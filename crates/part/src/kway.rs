//! k-way partitioning by recursive bisection (§2 of the paper).
//!
//! The graph is bisected, the two induced subgraphs are partitioned
//! recursively (in parallel — the subproblems are independent, which is the
//! parallelism the paper's §5 exploits on the Cray T3D), and labels are
//! composed. Non-power-of-two `k` is handled by splitting weight targets
//! proportionally (`⌈k/2⌉ : ⌊k/2⌋`).

use crate::bisect::bisect_targets_branch;
use crate::config::MlConfig;
use crate::metrics::edge_cut_kway;
use mlgp_graph::{split_by_part, CsrGraph, Vid, Wgt};
use mlgp_trace::Trace;

/// Result of a k-way partitioning.
#[derive(Clone, Debug)]
pub struct KwayResult {
    /// Part label (`0..k`) per vertex.
    pub part: Vec<u32>,
    /// Total edge-cut.
    pub edge_cut: Wgt,
    /// Number of parts requested.
    pub nparts: usize,
}

/// Subproblems smaller than this are recursed sequentially; larger ones
/// fork with rayon.
const PARALLEL_THRESHOLD: usize = 4096;

/// Partition `g` into `k` parts of near-equal vertex weight.
pub fn kway_partition(g: &CsrGraph, k: usize, cfg: &MlConfig) -> KwayResult {
    kway_partition_traced(g, k, cfg, &Trace::disabled())
}

/// [`kway_partition`] with telemetry: every bisection in the recursion tree
/// records its phase spans and per-level events, salted with its recursion
/// path (the `branch` field) so the levels of different subproblems remain
/// separable. The trace handle crosses the rayon forks.
pub fn kway_partition_traced(g: &CsrGraph, k: usize, cfg: &MlConfig, trace: &Trace) -> KwayResult {
    assert!(k >= 1, "k must be at least 1");
    let part = recursive_kway_with(g, k, &|sub, _, targets, salt| {
        bisect_targets_branch(sub, &cfg.reseed(salt), targets, trace, salt).part
    });
    let edge_cut = edge_cut_kway(g, &part);
    KwayResult {
        part,
        edge_cut,
        nparts: k,
    }
}

/// Recursive k-way driver over an arbitrary bisector — the one recursion
/// behind multilevel k-way, the spectral baselines (MSB, MSB-KL, Chaco-ML)
/// and the randomized geometric separators, which the paper lifts to k-way
/// the same way.
///
/// The bisector receives the subgraph, the ids of its vertices in `g`
/// (which lets a bisector look up per-vertex data such as coordinates), the
/// `[side0, side1]` weight targets (side 0 gets `⌈k/2⌉/k` of the weight)
/// and a deterministic salt that identifies the recursion path (1 at the
/// root, `2s`/`2s+1` below `s`), and returns 0/1 labels. It is called only
/// on subgraphs of at least 2 vertices, so `k` may exceed the vertex count.
pub fn recursive_kway_with<F>(g: &CsrGraph, k: usize, bisector: &F) -> Vec<u32>
where
    F: Fn(&CsrGraph, &[Vid], [Wgt; 2], u64) -> Vec<u8> + Sync,
{
    let mut part = vec![0u32; g.n()];
    let ids: Vec<Vid> = (0..g.n() as Vid).collect();
    rec_with(g, &ids, k, bisector, 1, &mut part);
    part
}

fn rec_with<F>(g: &CsrGraph, ids: &[Vid], k: usize, bisector: &F, salt: u64, part: &mut [u32])
where
    F: Fn(&CsrGraph, &[Vid], [Wgt; 2], u64) -> Vec<u8> + Sync,
{
    // A single vertex is never bisected: it takes label 0, the side with
    // the larger target.
    if k <= 1 || g.n() <= 1 {
        for p in part.iter_mut() {
            *p = 0;
        }
        return;
    }
    let k0 = k.div_ceil(2);
    let k1 = k - k0;
    let total = g.total_vwgt();
    let t0 = ((total as i128 * k0 as i128) / k as i128) as Wgt;
    let bpart8 = bisector(g, ids, [t0, total - t0], salt);
    if k == 2 {
        for (p, &side) in part.iter_mut().zip(&bpart8) {
            *p = side as u32;
        }
        return;
    }
    let bpart: Vec<u32> = bpart8.iter().map(|&s| s as u32).collect();
    let subs = split_by_part(g, &bpart, 2);
    let (s0, s1) = (&subs[0], &subs[1]);
    let ids0: Vec<Vid> = s0.orig.iter().map(|&v| ids[v as usize]).collect();
    let ids1: Vec<Vid> = s1.orig.iter().map(|&v| ids[v as usize]).collect();
    let mut part0 = vec![0u32; s0.graph.n()];
    let mut part1 = vec![0u32; s1.graph.n()];
    if g.n() >= PARALLEL_THRESHOLD {
        rayon::join(
            || rec_with(&s0.graph, &ids0, k0, bisector, salt * 2, &mut part0),
            || rec_with(&s1.graph, &ids1, k1, bisector, salt * 2 + 1, &mut part1),
        );
    } else {
        rec_with(&s0.graph, &ids0, k0, bisector, salt * 2, &mut part0);
        rec_with(&s1.graph, &ids1, k1, bisector, salt * 2 + 1, &mut part1);
    }
    for (i, &orig) in s0.orig.iter().enumerate() {
        part[orig as usize] = part0[i];
    }
    for (i, &orig) in s1.orig.iter().enumerate() {
        part[orig as usize] = k0 as u32 + part1[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{imbalance, part_weights};
    use mlgp_graph::generators::{grid2d, tet_mesh3d, tri_mesh2d};
    use mlgp_trace::{SPAN_COARSEN, SPAN_INIT, SPAN_PROJECT, SPAN_REFINE};

    #[test]
    fn four_way_grid() {
        let g = grid2d(24, 24);
        let r = kway_partition(&g, 4, &MlConfig::default());
        assert_eq!(r.nparts, 4);
        // Every part non-empty and labels within range.
        let w = part_weights(&g, &r.part, 4);
        assert!(w.iter().all(|&x| x > 0), "{w:?}");
        assert!(
            imbalance(&g, &r.part, 4) < 1.10,
            "{}",
            imbalance(&g, &r.part, 4)
        );
        // Optimal 4-way of a 24x24 grid is 48; stay in range.
        assert!(r.edge_cut >= 48 && r.edge_cut <= 96, "cut {}", r.edge_cut);
    }

    #[test]
    fn k_equals_one_is_trivial() {
        let g = grid2d(5, 5);
        let r = kway_partition(&g, 1, &MlConfig::default());
        assert_eq!(r.edge_cut, 0);
        assert!(r.part.iter().all(|&p| p == 0));
    }

    #[test]
    fn non_power_of_two_parts() {
        let g = tri_mesh2d(30, 30, 3);
        for k in [3, 5, 6, 7] {
            let r = kway_partition(&g, k, &MlConfig::default());
            let w = part_weights(&g, &r.part, k);
            assert!(w.iter().all(|&x| x > 0), "k={k}: {w:?}");
            let imb = imbalance(&g, &r.part, k);
            assert!(imb < 1.15, "k={k}: imbalance {imb}");
            assert_eq!(r.part.iter().map(|&p| p as usize).max().unwrap(), k - 1);
        }
    }

    #[test]
    fn larger_k_cuts_more() {
        let g = grid2d(32, 32);
        let cfg = MlConfig::default();
        let c2 = kway_partition(&g, 2, &cfg).edge_cut;
        let c8 = kway_partition(&g, 8, &cfg).edge_cut;
        let c32 = kway_partition(&g, 32, &cfg).edge_cut;
        assert!(c2 < c8 && c8 < c32, "{c2} {c8} {c32}");
    }

    #[test]
    fn deterministic() {
        let g = tet_mesh3d(8, 8, 8, 4);
        let a = kway_partition(&g, 8, &MlConfig::default());
        let b = kway_partition(&g, 8, &MlConfig::default());
        assert_eq!(a.part, b.part);
        assert_eq!(a.edge_cut, b.edge_cut);
    }

    #[test]
    fn traced_kway_records_every_phase_span() {
        let g = grid2d(40, 40);
        let trace = Trace::enabled();
        kway_partition_traced(&g, 8, &MlConfig::default(), &trace);
        for span in [SPAN_COARSEN, SPAN_INIT, SPAN_REFINE, SPAN_PROJECT] {
            let d = trace.span_total(span).unwrap_or_default();
            assert!(d > std::time::Duration::ZERO, "{span}: {d:?}");
        }
    }
}
