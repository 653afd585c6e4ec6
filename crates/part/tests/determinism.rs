//! Differential determinism suite for the parallel coarsening and
//! uncoarsening kernels.
//!
//! The determinism contract (see `matching.rs` and DESIGN.md §10): with a
//! fixed seed, the full coarsening hierarchy, the final bisection, and the
//! k-way partition are **bit-identical** for every installed pool. The
//! kernels take one shard per pool thread on levels of at least 8192
//! vertices, so these tests run on ~20k-vertex graphs, whose levels 0 and
//! 1 both shard, under pool caps of 1, 2 and 8 threads, and diff the
//! complete outputs.
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

/// A 21,000-vertex mesh: its HEM level 1 still has more than 8192
/// vertices, so two levels shard under any pool wider than one thread.
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
            // The suite must really exercise the sharded kernels: some
            // contraction ran on more than one shard.
            let contractions = h.levels() as u64 - 1;
            assert!(
                trace.counter("par_contract_shards") > contractions,
                "{scheme:?}: every contraction ran on one shard at {t} threads"
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
    // The k-way recursion adds a second layer of parallelism (rayon::join
    // over subproblems); the kernels must stay deterministic under it.
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
    // refinement. The pool reaches the uncoarsening kernels (BisectState
    // construction, FM queue seeding, projection, and the propose/commit
    // sweep), so the end-to-end result must stay a pure function of
    // (graph, config, seed).
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
    // a graph above the size floor, so it shards under every pool wider
    // than one thread.
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
