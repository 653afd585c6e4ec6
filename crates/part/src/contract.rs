//! Graph contraction: build `G_{i+1}` from `G_i` and a matching.
//!
//! Multinode weights are the sums of their constituents' weights, parallel
//! edges fold by summing weights, and internal (contracted) edges disappear
//! from the structure but are accounted in `cewgt` so that HCM can measure
//! edge density at deeper levels. This maintains the key identity the paper
//! uses: `W(E_{i+1}) = W(E_i) − W(M_i)`, and makes the coarse edge-cut of a
//! partition equal the fine edge-cut of its projection.
//!
//! # In-place rows and transpose
//!
//! The kernel is one serial pass, as in the paper's §3.1; parallelism lives
//! at the recursion forks above it. It folds every coarse row straight into
//! the CSR arrays, in first-seen neighbor order: `pos` holds each coarse
//! neighbor's absolute offset in `adjncy`/`adjwgt`, and a parallel edge
//! adds its weight there. The arrays are reserved to the fine level's
//! `nnz`, which bounds the coarse one, so they never grow, and shrunk to
//! their length once the rows are in. One counting-sort transpose then
//! sorts every row at once: row `c`'s entry `(u, w)` is scattered to row
//! `u` as `(c, w)`, rows taken in ascending `c`. The coarse graph is
//! symmetric, so its transpose is the same graph, now with every row
//! ascending (the canonical form the [`mlgp_graph`] builder also produces),
//! with no per-row sort.

use mlgp_graph::{CsrGraph, Vid, Wgt};

/// Result of one contraction step.
#[derive(Clone, Debug)]
pub struct Contraction {
    /// The coarser graph.
    pub graph: CsrGraph,
    /// Per-coarse-vertex total weight of edges contracted inside it (input
    /// `cewgt` of both constituents plus the matched edge's weight).
    pub cewgt: Vec<Wgt>,
}

/// Telemetry from one run of the contraction kernel.
#[derive(Clone, Debug, Default)]
pub struct ContractStats {
    /// Fine adjacency entries scanned: one element, the fine level's
    /// `nnz` (a `Vec` for callers that sum it).
    pub entries: Vec<u64>,
}

/// Contract `g` according to `cmap` (from [`crate::matching::Matching::to_cmap`]).
///
/// `cewgt` carries the contracted-edge weight of each fine vertex (zeros at
/// the finest level).
pub fn contract(g: &CsrGraph, cmap: &[Vid], ncoarse: usize, cewgt: &[Wgt]) -> Contraction {
    contract_threads(g, cmap, ncoarse, cewgt, 0).0
}

/// [`contract`] with kernel telemetry. `_threads` is ignored, and kept
/// only for callers that still pass one.
///
/// Rows are folded in place into the CSR arrays in first-seen order, then
/// one counting-sort transpose sorts them all (module docs).
pub fn contract_threads(
    g: &CsrGraph,
    cmap: &[Vid],
    ncoarse: usize,
    cewgt: &[Wgt],
    _threads: usize,
) -> (Contraction, ContractStats) {
    let n = g.n();
    assert_eq!(cmap.len(), n);
    assert_eq!(cewgt.len(), n);
    // Constituents of each coarse vertex, in coarse order: counting sort.
    let mut ccount = vec![0u32; ncoarse + 1];
    for &c in cmap {
        ccount[c as usize + 1] += 1;
    }
    for i in 0..ncoarse {
        ccount[i + 1] += ccount[i];
    }
    let mut members = vec![0 as Vid; n];
    {
        let mut cursor = ccount[..ncoarse.max(1)].to_vec();
        for v in 0..n as Vid {
            let c = cmap[v as usize] as usize;
            members[cursor[c] as usize] = v;
            cursor[c] += 1;
        }
    }

    let mut xadj = Vec::with_capacity(ncoarse + 1);
    xadj.push(0u32);
    // The coarse level has at most the fine level's entries.
    let mut adjncy: Vec<Vid> = Vec::with_capacity(g.nnz());
    let mut adjwgt: Vec<Wgt> = Vec::with_capacity(g.nnz());
    let mut cvwgt = vec![0 as Wgt; ncoarse];
    let mut ccewgt = vec![0 as Wgt; ncoarse];
    let mut pos = vec![u32::MAX; ncoarse];
    for c in 0..ncoarse {
        (cvwgt[c], ccewgt[c]) = fold_row(
            g,
            cmap,
            cewgt,
            &members[ccount[c] as usize..ccount[c + 1] as usize],
            c,
            &mut pos,
            &mut adjncy,
            &mut adjwgt,
        );
        xadj.push(adjncy.len() as u32);
    }
    // Hand the unused tail back before the transpose allocates: with it
    // kept, the two-thread `nd-order` benchmark's peak RSS read about
    // 1.5 MiB (3 %) higher.
    adjncy.shrink_to_fit();
    adjwgt.shrink_to_fit();
    // Transpose: row `c`'s entry `(u, w)` lands in row `u` as `(c, w)`.
    // Row lengths carry over unchanged, since the graph is symmetric.
    let mut cursor = xadj[..ncoarse].to_vec();
    let mut sorted_adjncy = vec![0 as Vid; adjncy.len()];
    let mut sorted_adjwgt = vec![0 as Wgt; adjwgt.len()];
    for c in 0..ncoarse {
        let row = xadj[c] as usize..xadj[c + 1] as usize;
        for (&u, &w) in adjncy[row.clone()].iter().zip(&adjwgt[row]) {
            let slot = &mut cursor[u as usize];
            sorted_adjncy[*slot as usize] = c as Vid;
            sorted_adjwgt[*slot as usize] = w;
            *slot += 1;
        }
    }
    debug_assert!(cursor.iter().zip(&xadj[1..]).all(|(a, b)| a == b));
    (
        Contraction {
            graph: CsrGraph::from_parts_unchecked(xadj, sorted_adjncy, cvwgt, sorted_adjwgt),
            cewgt: ccewgt,
        },
        ContractStats {
            entries: vec![g.nnz() as u64],
        },
    )
}

/// Fold coarse vertex `c`'s row from its constituents `members` onto the
/// ends of `adjncy`/`adjwgt`: edges to other coarse vertices in first-seen
/// order, parallel edges summed. Returns `c`'s vertex weight and
/// contracted-edge weight. `pos` maps a coarse neighbor to its absolute
/// offset in the arrays; it must be all `u32::MAX` on entry and is again
/// on return.
#[inline]
#[allow(clippy::too_many_arguments)]
fn fold_row(
    g: &CsrGraph,
    cmap: &[Vid],
    cewgt: &[Wgt],
    members: &[Vid],
    c: usize,
    pos: &mut [u32],
    adjncy: &mut Vec<Vid>,
    adjwgt: &mut Vec<Wgt>,
) -> (Wgt, Wgt) {
    let start = adjncy.len();
    let (mut vwgt, mut cw, mut internal) = (0 as Wgt, 0 as Wgt, 0 as Wgt);
    for &v in members {
        vwgt += g.vwgt()[v as usize];
        cw += cewgt[v as usize];
        for (u, w) in g.adj(v) {
            let cu = cmap[u as usize];
            if cu as usize == c {
                internal += w; // counted from both endpoints => 2w total
                continue;
            }
            let p = pos[cu as usize];
            if p == u32::MAX {
                pos[cu as usize] = adjncy.len() as u32;
                adjncy.push(cu);
                adjwgt.push(w);
            } else {
                adjwgt[p as usize] += w;
            }
        }
    }
    for &u in &adjncy[start..] {
        pos[u as usize] = u32::MAX;
    }
    // Each internal edge was seen from both endpoints.
    debug_assert_eq!(internal % 2, 0);
    (vwgt, cw + internal / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatchingScheme;
    use crate::matching::compute_matching;
    use mlgp_graph::generators::{grid2d, powerlaw, tri_mesh2d};
    use mlgp_graph::rng::seeded;
    use mlgp_graph::GraphBuilder;
    use rand::RngExt;

    #[test]
    fn contract_square_pairwise() {
        // Square 0-1-2-3-0; match (0,1) and (2,3).
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(3, 0);
        let g = b.build();
        let cmap = vec![0, 0, 1, 1];
        let c = contract(&g, &cmap, 2, &[0; 4]);
        assert_eq!(c.graph.n(), 2);
        assert_eq!(c.graph.m(), 1);
        // Two parallel fine edges (1-2 and 3-0) fold to weight 2.
        assert_eq!(c.graph.edge_weights(0), &[2]);
        assert_eq!(c.graph.vwgt(), &[2, 2]);
        // One unit edge contracted inside each multinode.
        assert_eq!(c.cewgt, vec![1, 1]);
        assert!(c.graph.validate().is_ok());
    }

    #[test]
    fn weight_conservation_identity() {
        // W(E_{i+1}) = W(E_i) − W(M_i) for any matching-based contraction.
        let g = tri_mesh2d(10, 8, 5);
        let cewgt = vec![0; g.n()];
        for scheme in MatchingScheme::all() {
            let m = compute_matching(&g, scheme, &cewgt, &mut seeded(3));
            let matched_weight: Wgt = (0..g.n() as Vid)
                .map(|v| {
                    let p = m.partner[v as usize];
                    if p > v {
                        g.adj(v).find(|&(u, _)| u == p).unwrap().1
                    } else {
                        0
                    }
                })
                .sum();
            let (cmap, nc) = m.to_cmap();
            let c = contract(&g, &cmap, nc, &cewgt);
            assert_eq!(
                c.graph.total_adjwgt(),
                g.total_adjwgt() - matched_weight,
                "{scheme:?}"
            );
            assert_eq!(c.graph.total_vwgt(), g.total_vwgt());
            assert!(c.graph.validate().is_ok());
            // cewgt sums to the total contracted weight.
            assert_eq!(c.cewgt.iter().sum::<Wgt>(), matched_weight);
        }
    }

    #[test]
    fn projected_cut_is_preserved() {
        // A coarse partition's cut equals the projected fine partition's cut.
        let g = grid2d(8, 6);
        let cewgt = vec![0; g.n()];
        let m = compute_matching(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(11));
        let (cmap, nc) = m.to_cmap();
        let c = contract(&g, &cmap, nc, &cewgt);
        // Arbitrary coarse bisection.
        let cpart: Vec<u8> = (0..nc).map(|i| (i % 2) as u8).collect();
        let fpart: Vec<u8> = (0..g.n()).map(|v| cpart[cmap[v] as usize]).collect();
        assert_eq!(
            crate::metrics::edge_cut_bisection(&c.graph, &cpart),
            crate::metrics::edge_cut_bisection(&g, &fpart)
        );
    }

    #[test]
    fn identity_contraction() {
        // Empty matching: coarse graph == fine graph.
        let g = grid2d(4, 4);
        let cmap: Vec<Vid> = (0..g.n() as Vid).collect();
        let c = contract(&g, &cmap, g.n(), &vec![0; g.n()]);
        assert_eq!(c.graph, g);
        assert_eq!(c.cewgt, vec![0; g.n()]);
    }

    /// Contract through the kernel and through an independent oracle, the
    /// edge-list [`GraphBuilder`], and require the same coarse graph: every
    /// fine edge `u < v` between two coarse vertices added as a coarse edge
    /// (the builder folds parallel edges by summing), vertex weights summed
    /// per coarse vertex, and `cewgt` = the members' `cewgt` plus the
    /// weights of edges inside the coarse vertex.
    fn assert_matches_builder(
        g: &CsrGraph,
        cmap: &[Vid],
        nc: usize,
        cewgt: &[Wgt],
        ctx: &str,
    ) -> Contraction {
        let mut b = GraphBuilder::new(nc);
        let mut vwgt = vec![0 as Wgt; nc];
        let mut want_cewgt = vec![0 as Wgt; nc];
        for v in 0..g.n() as Vid {
            let cv = cmap[v as usize];
            vwgt[cv as usize] += g.vwgt()[v as usize];
            want_cewgt[cv as usize] += cewgt[v as usize];
            for (u, w) in g.adj(v).filter(|&(u, _)| u > v) {
                let cu = cmap[u as usize];
                if cu == cv {
                    want_cewgt[cv as usize] += w;
                } else {
                    b.add_weighted_edge(cv, cu, w);
                }
            }
        }
        b.set_vertex_weights(vwgt);
        let want = b.build();
        let (c, stats) = contract_threads(g, cmap, nc, cewgt, 0);
        assert_eq!(c.graph, want, "{ctx}");
        assert_eq!(c.cewgt, want_cewgt, "{ctx}");
        assert_eq!(stats.entries, vec![g.nnz() as u64], "{ctx}");
        assert!(c.graph.validate().is_ok(), "{ctx}");
        c
    }

    #[test]
    fn direct_build_matches_builder_oracle_on_hub_levels() {
        // Hub rows fold many fine edges into few coarse neighbors, so
        // first-seen order is far from sorted; deeper levels give nonzero
        // `cewgt` and weighted edges and vertices.
        let mut g = powerlaw(3000, 3, 21);
        assert!(g.max_degree() > 100, "expected hub rows");
        let mut cewgt = vec![0; g.n()];
        for level in 0..3 {
            let m = compute_matching(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(level));
            let (cmap, nc) = m.to_cmap();
            let c = assert_matches_builder(&g, &cmap, nc, &cewgt, &format!("level {level}"));
            g = c.graph;
            cewgt = c.cewgt;
        }
        assert!(cewgt.iter().any(|&w| w > 0));
        assert!(g.adjwgt().iter().any(|&w| w > 1));
        // Any map works, not only a matching's: scattered five-way merges.
        let nc = g.n() / 5;
        let cmap: Vec<Vid> = (0..g.n() as Vid).map(|v| v % nc as Vid).collect();
        assert_matches_builder(&g, &cmap, nc, &cewgt, "five-way merges");
    }

    #[test]
    fn direct_build_matches_builder_oracle_on_random_graphs() {
        // Small random graphs with weighted edges, every scheme.
        for seed in 0..24u64 {
            let mut rng = seeded(seed);
            let n = 4 + rng.random_range(0..120usize);
            let mut b = GraphBuilder::new(n);
            for v in 1..n {
                let u = rng.random_range(0..v);
                b.add_weighted_edge(v as Vid, u as Vid, 1 + rng.random_range(0..6));
            }
            for _ in 0..rng.random_range(0..180usize) {
                let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                if u != v {
                    b.add_weighted_edge(u as Vid, v as Vid, 1 + rng.random_range(0..6));
                }
            }
            let g = b.build();
            let cewgt = vec![0; g.n()];
            for scheme in MatchingScheme::all() {
                let m = compute_matching(&g, scheme, &cewgt, &mut seeded(seed ^ 5));
                let (cmap, nc) = m.to_cmap();
                assert_matches_builder(&g, &cmap, nc, &cewgt, &format!("seed {seed} {scheme:?}"));
            }
        }
    }

    #[test]
    fn rows_are_sorted() {
        let g = tri_mesh2d(14, 11, 2);
        let cewgt = vec![0; g.n()];
        let m = compute_matching(&g, MatchingScheme::Random, &cewgt, &mut seeded(4));
        let (cmap, nc) = m.to_cmap();
        let c = contract(&g, &cmap, nc, &cewgt);
        for v in 0..c.graph.n() as Vid {
            let nb = c.graph.neighbors(v);
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "row {v} not sorted");
        }
    }
}
