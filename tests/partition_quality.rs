//! Cross-crate integration: partition quality of the multilevel scheme
//! against its baselines and against known-optimal structures.

use mlgp::prelude::*;
use mlgp_part::{bisect, part_weights, BalanceTargets};

/// `MLGP_HEAVY_TESTS=1` (scheduled CI job) restores the original instance
/// sizes; the default keeps the suite fast in debug builds.
fn heavy_dim(light: usize, heavy: usize) -> usize {
    if std::env::var("MLGP_HEAVY_TESTS").is_ok_and(|v| v == "1") {
        heavy
    } else {
        light
    }
}

#[test]
fn multilevel_matches_known_grid_structure() {
    // 48x48 grid: optimal bisection 48, optimal 4-way 96.
    let g = mlgp::graph::generators::grid2d(48, 48);
    let two = bisect(&g, &MlConfig::default());
    assert!(two.cut <= 72, "bisection cut {}", two.cut);
    let four = kway_partition(&g, 4, &MlConfig::default());
    assert!(four.edge_cut <= 160, "4-way cut {}", four.edge_cut);
    assert!(imbalance(&g, &four.part, 4) <= 1.06);
}

#[test]
fn multilevel_no_worse_than_spectral_baselines_on_mesh() {
    // The paper's headline: similar-or-better quality than MSB at a
    // fraction of the time. Allow 15% slack for this single medium mesh.
    let d = heavy_dim(10, 14);
    let g = mlgp::graph::generators::tet_mesh3d(d, d, d, 3);
    let k = 8;
    let ml = kway_partition(&g, k, &MlConfig::default());
    let msb = msb_kway(&g, k, 777);
    let msb_cut = edge_cut_kway(&g, &msb);
    assert!(
        (ml.edge_cut as f64) <= 1.15 * msb_cut as f64,
        "multilevel {} vs MSB {}",
        ml.edge_cut,
        msb_cut
    );
}

#[test]
fn every_matching_scheme_partitions_the_lp_graph() {
    // FINAN512-class graph: no geometry, the case where geometric methods
    // fail outright; all multilevel variants must handle it.
    let g = mlgp::graph::generators::hierarchical_lp(32, 24, 9);
    for m in MatchingScheme::all() {
        let cfg = MlConfig {
            matching: m,
            ..MlConfig::default()
        };
        let r = kway_partition(&g, 8, &cfg);
        assert!(imbalance(&g, &r.part, 8) < 1.10, "{m:?}");
        assert!(r.edge_cut > 0, "{m:?}");
    }
}

#[test]
fn partition_vector_is_complete_and_in_range() {
    let g = mlgp::graph::generators::powerlaw(3000, 3, 11);
    for k in [2, 3, 16] {
        let r = kway_partition(&g, k, &MlConfig::default());
        assert_eq!(r.part.len(), g.n());
        assert!(r.part.iter().all(|&p| (p as usize) < k), "k={k}");
        let w = part_weights(&g, &r.part, k);
        assert!(w.iter().all(|&x| x > 0), "k={k}: empty part {w:?}");
    }
}

#[test]
fn weighted_graph_bisection_respects_vertex_weights() {
    // Heavier vertices on one end: balance must be by weight, not count.
    let grid = mlgp::graph::generators::grid2d(20, 10);
    let mut b = mlgp::graph::GraphBuilder::new(grid.n());
    for v in 0..grid.n() as u32 {
        for (u, w) in grid.adj(v) {
            if u > v {
                b.add_weighted_edge(v, u, w);
            }
        }
    }
    // Vertex weight 1..5 depending on column.
    let vw: Vec<i64> = (0..grid.n()).map(|v| 1 + (v % 20 / 4) as i64).collect();
    b.set_vertex_weights(vw);
    let g = b.build();
    let r = bisect(&g, &MlConfig::default());
    let bt = BalanceTargets::even(g.total_vwgt(), 1.03);
    assert!(
        bt.balanced(r.pwgts),
        "{:?} of total {}",
        r.pwgts,
        g.total_vwgt()
    );
}

#[test]
fn chaco_ml_and_msb_kl_are_sane_on_grid() {
    let g = mlgp::graph::generators::grid2d(32, 32);
    let ours = kway_partition(&g, 4, &MlConfig::default()).edge_cut;
    for (name, part) in [
        ("chaco", chaco_ml_kway(&g, 4, 1919)),
        ("msb-kl", msb_kl_kway(&g, 4, 777)),
    ] {
        let cut = edge_cut_kway(&g, &part);
        assert!(imbalance(&g, &part, 4) < 1.10, "{name}");
        // Baselines are real algorithms: within 2x of ours on an easy grid.
        assert!(cut <= 2 * ours.max(96), "{name}: {cut} vs ours {ours}");
    }
}
