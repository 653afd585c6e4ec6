//! Differential determinism suite for the multilevel pipeline under
//! different installed pools.
//!
//! The determinism contract (see `matching.rs` and DESIGN.md §10): with a
//! fixed seed, the full coarsening hierarchy, the final bisection, and the
//! k-way partition are **bit-identical** for every installed pool. Every
//! kernel below the recursion is serial; the pool reaches only the forks
//! of the k-way recursion. These tests run on ~20k-vertex graphs under
//! pool caps of 1, 2 and 8 threads and diff the complete outputs: the
//! single-bisection tests check that no kernel reads the pool, the k-way
//! tests that the forks do not change the result.
//!
//! The `MLGP_THREADS` environment variable (set by the CI thread-matrix
//! job) adds one extra pool cap to the sweep.

use mlgp_graph::generators::{powerlaw, tri_mesh2d};
use mlgp_graph::rng::seeded;
use mlgp_graph::CsrGraph;
use mlgp_linalg::with_fanout;
use mlgp_part::{
    bisect, coarsen, coarsen_traced, kway_partition, kway_partition_refined, kway_refine_greedy,
    MatchingScheme, MlConfig,
};
use mlgp_trace::Trace;

/// Pool caps under test: {1, 2, 8} plus an optional `MLGP_THREADS` from
/// the CI matrix.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
    if let Ok(v) = std::env::var("MLGP_THREADS") {
        if let Ok(t) = v.trim().parse::<usize>() {
            if t > 0 && !counts.contains(&t) {
                counts.push(t);
            }
        }
    }
    counts
}

/// A 21,000-vertex mesh: large enough that an 8-way partition forks its
/// top subproblems onto threads of their own under any pool wider than one
/// thread.
fn mesh() -> CsrGraph {
    tri_mesh2d(150, 140, 11)
}

fn cfg_with(matching: MatchingScheme) -> MlConfig {
    MlConfig {
        matching,
        seed: 20260807,
        ..MlConfig::default()
    }
}

#[test]
fn hierarchy_is_bit_identical_across_thread_counts() {
    let g = mesh();
    for scheme in MatchingScheme::all() {
        let reference = with_fanout(1, || coarsen(&g, &cfg_with(scheme), &mut seeded(3)));
        for &t in &thread_counts()[1..] {
            let trace = Trace::enabled();
            let h = with_fanout(t, || {
                coarsen_traced(&g, &cfg_with(scheme), &mut seeded(3), &trace)
            });
            assert_eq!(
                h.levels(),
                reference.levels(),
                "{scheme:?}: level count differs at {t} threads"
            );
            // Every contraction scanned its fine level's adjacency once.
            let fine_levels = &h.graphs[..h.levels() - 1];
            assert_eq!(
                trace.counter("contract_entries"),
                fine_levels.iter().map(|g| g.nnz() as u64).sum::<u64>(),
                "{scheme:?}: contraction entries at {t} threads"
            );
            for (lvl, (a, b)) in h.graphs.iter().zip(&reference.graphs).enumerate() {
                assert_eq!(
                    a, b,
                    "{scheme:?}: graph at level {lvl} differs at {t} threads"
                );
            }
            for (lvl, (a, b)) in h.cmaps.iter().zip(&reference.cmaps).enumerate() {
                assert_eq!(
                    a, b,
                    "{scheme:?}: cmap at level {lvl} differs at {t} threads"
                );
            }
        }
    }
}

#[test]
fn bisection_is_bit_identical_across_thread_counts() {
    let g = mesh();
    for scheme in MatchingScheme::all() {
        let reference = with_fanout(1, || bisect(&g, &cfg_with(scheme)));
        for &t in &thread_counts()[1..] {
            let r = with_fanout(t, || bisect(&g, &cfg_with(scheme)));
            assert_eq!(
                r.cut, reference.cut,
                "{scheme:?}: cut differs at {t} threads"
            );
            assert_eq!(
                r.part, reference.part,
                "{scheme:?}: partition differs at {t} threads"
            );
            assert_eq!(r.pwgts, reference.pwgts);
        }
    }
}

#[test]
fn kway_is_bit_identical_across_thread_counts() {
    // The k-way recursion forks its subproblems onto the pool; the result
    // must not depend on which thread ran which half.
    let g = mesh();
    let cfg = cfg_with(MatchingScheme::HeavyEdge);
    let reference = with_fanout(1, || kway_partition(&g, 8, &cfg));
    for &t in &thread_counts()[1..] {
        let r = with_fanout(t, || kway_partition(&g, 8, &cfg));
        assert_eq!(r.edge_cut, reference.edge_cut, "cut differs at {t} threads");
        assert_eq!(r.part, reference.part, "partition differs at {t} threads");
    }
}

#[test]
fn refined_pipeline_is_bit_identical_across_thread_counts() {
    // The full pipeline: coarsen → recursive bisection → round-based k-way
    // refinement. The pool reaches the recursion forks and the chunked
    // loops of uncoarsening (FM queue seeding, projection, the sweep's
    // boundary counts), so the end-to-end result must stay a pure function
    // of (graph, config, seed).
    let g = mesh();
    for scheme in [MatchingScheme::HeavyEdge, MatchingScheme::Random] {
        let reference = with_fanout(1, || kway_partition_refined(&g, 8, &cfg_with(scheme)));
        for &t in &thread_counts()[1..] {
            let r = with_fanout(t, || kway_partition_refined(&g, 8, &cfg_with(scheme)));
            assert_eq!(
                r.edge_cut, reference.edge_cut,
                "{scheme:?}: refined cut differs at {t} threads"
            );
            assert_eq!(
                r.part, reference.part,
                "{scheme:?}: refined partition differs at {t} threads"
            );
        }
    }
}

#[test]
fn kway_refine_kernel_is_bit_identical_across_thread_counts() {
    // The round-based sweep in isolation, on a fixed damaged partition of
    // the mesh: a serial kernel, so no pool may change it.
    let g = mesh();
    let base = with_fanout(1, || {
        kway_partition(&g, 8, &cfg_with(MatchingScheme::HeavyEdge))
    });
    let run = |threads: usize| {
        let mut part = base.part.clone();
        // Damage the partition deterministically so rounds have real work.
        for (i, p) in part.iter_mut().enumerate() {
            if i % 13 == 0 {
                *p = (i % 8) as u32;
            }
        }
        let cut = with_fanout(threads, || {
            kway_refine_greedy(&g, &mut part, 8, &Default::default())
        });
        (part, cut)
    };
    let reference = run(1);
    for &t in &thread_counts()[1..] {
        assert_eq!(run(t), reference, "refine kernel diverged at {t} threads");
    }
}

#[test]
fn irregular_graph_hierarchy_is_thread_independent() {
    // Power-law degree graphs stress the chain walk's deep candidate
    // chains and memo rescans; the hierarchy must not depend on the pool.
    let g = powerlaw(20000, 4, 13);
    for scheme in [MatchingScheme::HeavyEdge, MatchingScheme::Random] {
        let reference = with_fanout(1, || coarsen(&g, &cfg_with(scheme), &mut seeded(8)));
        for &t in &thread_counts()[1..] {
            let h = with_fanout(t, || coarsen(&g, &cfg_with(scheme), &mut seeded(8)));
            assert_eq!(h.graphs.len(), reference.graphs.len(), "{scheme:?}");
            for (a, b) in h.graphs.iter().zip(&reference.graphs) {
                assert_eq!(a, b, "{scheme:?} differs at {t} threads");
            }
        }
    }
}

#[test]
fn ambient_pool_cap_does_not_change_results() {
    // Without an installed pool the kernels follow the hardware thread
    // count; that must not perturb the result either.
    let g = mesh();
    let cfg = cfg_with(MatchingScheme::HeavyEdge);
    let reference = bisect(&g, &cfg);
    for nt in [1usize, 2, 8] {
        let r = with_fanout(nt, || bisect(&g, &cfg));
        assert_eq!(r.part, reference.part, "pool cap {nt} changed the result");
        assert_eq!(r.cut, reference.cut);
    }
}
