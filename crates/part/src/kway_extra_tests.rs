//! Tests for the generic recursive k-way driver.

use crate::bisect::{bisect_targets, bisect_targets_branch};
use crate::config::MlConfig;
use crate::kway::{kway_partition, recursive_kway_with};
use crate::metrics::{edge_cut_kway, part_weights};
use crate::refine::BalanceTargets;
use mlgp_graph::generators::{
    grid2d, hierarchical_lp, powergrid, powerlaw, stiffness3d, tri_mesh2d,
};
use mlgp_graph::{CsrGraph, Vid};
use mlgp_trace::Trace;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

#[test]
fn generic_driver_matches_builtin_kway() {
    let g = grid2d(20, 20);
    let cfg = MlConfig::default();
    let generic = recursive_kway_with(&g, 4, &|sub: &CsrGraph, _, targets, salt| {
        bisect_targets(sub, &cfg.reseed(salt), targets).part
    });
    let builtin = kway_partition(&g, 4, &cfg);
    assert_eq!(generic, builtin.part);
}

#[test]
fn generic_driver_with_trivial_bisector_balances() {
    // A "first half / second half" bisector by weight still yields balanced
    // parts through the recursion.
    let g = grid2d(16, 16);
    let part = recursive_kway_with(&g, 8, &|sub: &CsrGraph, _, targets, _| {
        let mut out = vec![1u8; sub.n()];
        let mut w = 0;
        for (o, &vw) in out.iter_mut().zip(sub.vwgt()) {
            if w >= targets[0] {
                break;
            }
            *o = 0;
            w += vw;
        }
        out
    });
    let w = part_weights(&g, &part, 8);
    assert!(w.iter().all(|&x| x == 32), "{w:?}");
    assert!(edge_cut_kway(&g, &part) > 0);
}

/// Every bisection inside `kway_partition` must end within its side bounds
/// `BalanceTargets::ub` plus one heaviest vertex of the subgraph: one
/// graph of each request class, scaled down for debug builds, at several
/// part counts and seeds. The bisector is `kway_partition`'s own.
#[test]
fn every_kway_bisection_ends_within_its_bound() {
    let graphs = [
        ("mesh2d", tri_mesh2d(30, 30, 1)),
        ("stiffness3d", stiffness3d(9, 9, 9)),
        ("power", powergrid(1000, 2)),
        ("circuit", powerlaw(1000, 2, 3)),
        ("lp", hierarchical_lp(7, 146, 4)),
    ];
    let failures = Mutex::new(Vec::new());
    let mut bisections = 0usize;
    for (name, g) in &graphs {
        for k in [3, 16, 64] {
            for seed in 0..8 {
                let cfg = MlConfig {
                    seed,
                    ..MlConfig::default()
                };
                let count = Mutex::new(0usize);
                recursive_kway_with(g, k, &|sub: &CsrGraph, _, targets, salt| {
                    let r = bisect_targets_branch(
                        sub,
                        &cfg.reseed(salt),
                        targets,
                        &Trace::disabled(),
                        salt,
                    );
                    let ub = BalanceTargets::new(targets, cfg.imbalance).ub;
                    let heaviest = sub.vwgt().iter().copied().max().unwrap_or(0);
                    if (0..2).any(|s| r.pwgts[s] > ub[s] + heaviest) {
                        let mut f = failures.lock().unwrap_or_else(|e| e.into_inner());
                        f.push(format!(
                            "{name} k={k} seed={seed} salt={salt}: {:?} over {ub:?} + {heaviest}",
                            r.pwgts
                        ));
                    }
                    *count.lock().unwrap_or_else(|e| e.into_inner()) += 1;
                    r.part
                });
                bisections += count.into_inner().unwrap_or_else(|e| e.into_inner());
            }
        }
    }
    let failures = failures.into_inner().unwrap_or_else(|e| e.into_inner());
    assert!(failures.is_empty(), "{failures:#?}");
    assert!(bisections > 1000, "{bisections} bisections");
}

/// The ids handed to the bisector name each subgraph vertex in the input
/// graph: the vertex weights and every subgraph edge with its weight match
/// the input, and the two halves of a split hold disjoint ids drawn from
/// their parent's.
#[test]
fn bisector_ids_name_input_vertices() {
    let g = tri_mesh2d(20, 20, 7);
    let cfg = MlConfig::default();
    let seen = Mutex::new(BTreeMap::new());
    recursive_kway_with(&g, 7, &|sub: &CsrGraph, ids: &[Vid], targets, salt| {
        assert_eq!(ids.len(), sub.n());
        for (a, &id) in ids.iter().enumerate() {
            assert_eq!(sub.vwgt()[a], g.vwgt()[id as usize]);
            for (b, w) in sub.adj(a as Vid) {
                assert!(g.adj(id).any(|(u, wu)| u == ids[b as usize] && wu == w));
            }
        }
        let mut seen = seen.lock().unwrap_or_else(|e| e.into_inner());
        seen.insert(salt, ids.iter().copied().collect::<BTreeSet<Vid>>());
        bisect_targets(sub, &cfg.reseed(salt), targets).part
    });
    let seen = seen.into_inner().unwrap_or_else(|e| e.into_inner());
    assert_eq!(seen[&1].len(), g.n());
    assert!(seen.len() > 3, "{} bisections", seen.len());
    for (&salt, ids) in &seen {
        if salt > 1 {
            assert!(ids.is_subset(&seen[&(salt / 2)]), "salt {salt}");
        }
        if let Some(sibling) = seen.get(&(salt ^ 1)) {
            assert!(ids.is_disjoint(sibling), "salt {salt}");
        }
    }
}
