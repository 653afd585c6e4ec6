//! Criterion: the four matching schemes on mid-size FEM meshes (§3.1,
//! the CTime column of Table 2 at kernel granularity).
//!
//! * `matching_8k_tet` — level 0 of a tetrahedral mesh, a few handshake
//!   rounds deep;
//! * `matching_8k_stiffness` — level 0 of a unit-weight 27-point grid, the
//!   many-round regime (≈ 30 rounds);
//! * `matching_coarse_level1` — HEM on level 1 of that grid's `coarsen`
//!   hierarchy, with the vertex and edge weights contraction produced;
//! * `contract_hem_shards` — contracting a 28³ grid by its HEM matching
//!   under pools of 1 and 2 threads. The coarse level keeps more than the
//!   8192-vertex sharding floor, so the pool picks the kernel: one shard,
//!   the direct build sorted by one transpose, against two shards, per-shard
//!   sorted rows copied into place.
//!
//! The matching kernel is serial: it follows best-candidate chains, which
//! finds the handshake's matching and round count without running the
//! rounds. Its candidate memo saves most in the many-round regime, where
//! rescanning every unmatched vertex each round would read ≈ 13× nnz.

use criterion::{criterion_group, criterion_main, Criterion};
use mlgp_graph::generators::{stiffness3d, tet_mesh3d};
use mlgp_graph::rng::seeded;
use mlgp_graph::CsrGraph;
use mlgp_linalg::with_fanout;
use mlgp_part::{coarsen, compute_matching, contract_threads, MatchingScheme, MlConfig};
use std::hint::black_box;

fn bench_schemes(c: &mut Criterion, group: &str, g: &CsrGraph, schemes: &[MatchingScheme]) {
    let cewgt = vec![0; g.n()];
    let mut group = c.benchmark_group(group);
    for &scheme in schemes {
        group.bench_function(scheme.abbrev(), |b| {
            b.iter(|| {
                let mut rng = seeded(3);
                black_box(compute_matching(g, scheme, &cewgt, &mut rng))
            })
        });
    }
    group.finish();
}

fn bench_matching(c: &mut Criterion) {
    let all = MatchingScheme::all();
    bench_schemes(c, "matching_8k_tet", &tet_mesh3d(20, 20, 20, 7), &all);
    let grid = stiffness3d(20, 20, 20);
    bench_schemes(c, "matching_8k_stiffness", &grid, &all);
    // HEM reads only edge weights, so the level's `cewgt` (which the
    // hierarchy does not keep) is not needed.
    let hierarchy = coarsen(&grid, &MlConfig::default(), &mut seeded(5));
    bench_schemes(
        c,
        "matching_coarse_level1",
        &hierarchy.graphs[1],
        &[MatchingScheme::HeavyEdge],
    );
    bench_contract_shards(c, &stiffness3d(28, 28, 28));
}

/// Contraction of `g` by its HEM matching under pools of 1 and 2 threads;
/// each reports the shard count the kernel chose.
fn bench_contract_shards(c: &mut Criterion, g: &CsrGraph) {
    let cewgt = vec![0; g.n()];
    let m = compute_matching(g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(3));
    let (cmap, nc) = m.to_cmap();
    let mut group = c.benchmark_group("contract_hem_shards");
    for threads in [1, 2] {
        let shards = with_fanout(threads, || {
            contract_threads(g, &cmap, nc, &cewgt, 0).1.shards
        });
        group.bench_function(format!("{threads}_thread_{shards}_shard"), |b| {
            b.iter(|| {
                with_fanout(threads, || {
                    black_box(contract_threads(g, &cmap, nc, &cewgt, 0))
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matching);
criterion_main!(benches);
