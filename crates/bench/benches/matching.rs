//! Criterion: the four matching schemes on mid-size FEM meshes (§3.1,
//! the CTime column of Table 2 at kernel granularity).
//!
//! * `matching_8k_tet` — level 0 of a unit-weight tetrahedral mesh;
//! * `matching_8k_stiffness` — level 0 of a unit-weight 27-point grid;
//! * `matching_coarse_level1` — HEM on level 1 of that grid's `coarsen`
//!   hierarchy, with the vertex and edge weights contraction produced.
//!
//! The matching kernel is serial and computes the greedy matching under the
//! edge key. On the two unit-weight level-0 groups HEM and LEM take the
//! rank sweep, one read of each unmatched vertex's row; RM, HCM and the
//! weighted coarse level take the chain walk, which follows best-candidate
//! chains through a per-vertex candidate memo.

use criterion::{criterion_group, criterion_main, Criterion};
use mlgp_graph::generators::{stiffness3d, tet_mesh3d};
use mlgp_graph::rng::seeded;
use mlgp_graph::CsrGraph;
use mlgp_part::{coarsen, compute_matching, MatchingScheme, MlConfig};
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
}

criterion_group!(benches, bench_matching);
criterion_main!(benches);
