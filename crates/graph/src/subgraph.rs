//! Induced-subgraph extraction.
//!
//! Recursive bisection and nested dissection repeatedly carve a partitioned
//! graph into its per-part induced subgraphs and recurse; these routines do
//! that in `O(n + m)` while returning the old-vertex labels so results can be
//! mapped back to the original graph.

use crate::csr::{CsrGraph, Vid};

/// An induced subgraph together with the mapping back to the parent graph.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// The extracted graph, with vertices relabeled to `0..k`.
    pub graph: CsrGraph,
    /// `orig[i]` is the parent-graph vertex that became subgraph vertex `i`.
    pub orig: Vec<Vid>,
}

/// Extract the subgraph induced by the vertices with `select[v] == true`.
pub fn induced_subgraph(g: &CsrGraph, select: &[bool]) -> Subgraph {
    assert_eq!(select.len(), g.n());
    let mut orig: Vec<Vid> = Vec::new();
    let mut local = vec![Vid::MAX; g.n()];
    for v in 0..g.n() as Vid {
        if select[v as usize] {
            local[v as usize] = orig.len() as Vid;
            orig.push(v);
        }
    }
    let k = orig.len();
    let mut xadj = vec![0u32; k + 1];
    for (i, &v) in orig.iter().enumerate() {
        let deg = g
            .neighbors(v)
            .iter()
            .filter(|&&u| select[u as usize])
            .count();
        xadj[i + 1] = xadj[i] + deg as u32;
    }
    let nnz = xadj[k] as usize;
    let mut adjncy = vec![0 as Vid; nnz];
    let mut adjwgt = vec![0; nnz];
    let mut vwgt = vec![0; k];
    for (i, &v) in orig.iter().enumerate() {
        vwgt[i] = g.vwgt()[v as usize];
        let mut at = xadj[i] as usize;
        for (u, w) in g.adj(v) {
            if select[u as usize] {
                adjncy[at] = local[u as usize];
                adjwgt[at] = w;
                at += 1;
            }
        }
        debug_assert_eq!(at, xadj[i + 1] as usize);
    }
    Subgraph {
        graph: CsrGraph::from_parts_unchecked(xadj, adjncy, vwgt, adjwgt),
        orig,
    }
}

/// Split a partitioned graph into one induced subgraph per part.
///
/// `part[v]` must be in `0..nparts`. Cut edges are discarded (they are
/// exactly the edge-cut of the partition).
///
/// Each subgraph equals [`induced_subgraph`] of its part's vertices, but
/// one labelling pass gives every vertex its local id within its own part,
/// so the whole split costs `O(n + m)` rather than `O(nparts · n + m)`.
pub fn split_by_part(g: &CsrGraph, part: &[u32], nparts: usize) -> Vec<Subgraph> {
    assert_eq!(part.len(), g.n());
    let mut local = vec![0 as Vid; g.n()];
    let mut origs: Vec<Vec<Vid>> = vec![Vec::new(); nparts];
    // Adjacency entries of each part's vertices bound its subgraph's, so
    // each part's arrays are sized once and truncated to the entries kept.
    let mut entries = vec![0usize; nparts];
    for (v, &p) in part.iter().enumerate() {
        let orig = &mut origs[p as usize];
        local[v] = orig.len() as Vid;
        orig.push(v as Vid);
        entries[p as usize] += g.degree(v as Vid);
    }
    origs
        .into_iter()
        .zip(entries)
        .enumerate()
        .map(|(p, (orig, entries))| {
            let mut xadj = Vec::with_capacity(orig.len() + 1);
            xadj.push(0u32);
            let mut adjncy = vec![0 as Vid; entries];
            let mut adjwgt = vec![0; entries];
            let mut at = 0;
            for &v in &orig {
                for (u, w) in g.adj(v) {
                    if part[u as usize] as usize == p {
                        adjncy[at] = local[u as usize];
                        adjwgt[at] = w;
                        at += 1;
                    }
                }
                xadj.push(at as u32);
            }
            adjncy.truncate(at);
            adjwgt.truncate(at);
            let vwgt = orig.iter().map(|&v| g.vwgt()[v as usize]).collect();
            Subgraph {
                graph: CsrGraph::from_parts_unchecked(xadj, adjncy, vwgt, adjwgt),
                orig,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// 6-cycle 0-1-2-3-4-5-0.
    fn cycle6() -> CsrGraph {
        let mut b = GraphBuilder::new(6);
        for i in 0..6 {
            b.add_edge(i, (i + 1) % 6);
        }
        b.build()
    }

    #[test]
    fn extracts_half_cycle() {
        let g = cycle6();
        let select = vec![true, true, true, false, false, false];
        let s = induced_subgraph(&g, &select);
        assert_eq!(s.graph.n(), 3);
        assert_eq!(s.graph.m(), 2); // path 0-1-2
        assert_eq!(s.orig, vec![0, 1, 2]);
        assert!(s.graph.validate().is_ok());
    }

    #[test]
    fn preserves_weights() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 5).add_weighted_edge(1, 2, 7);
        b.set_vertex_weights(vec![10, 20, 30]);
        let g = b.build();
        let s = induced_subgraph(&g, &[true, true, false]);
        assert_eq!(s.graph.vwgt(), &[10, 20]);
        assert_eq!(s.graph.edge_weights(0), &[5]);
    }

    #[test]
    fn split_covers_all_vertices() {
        let g = cycle6();
        let part = vec![0, 0, 1, 1, 2, 2];
        let parts = split_by_part(&g, &part, 3);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(|s| s.graph.n()).sum();
        assert_eq!(total, 6);
        // Each part of the cycle is a 2-path with one edge.
        for s in &parts {
            assert_eq!(s.graph.n(), 2);
            assert_eq!(s.graph.m(), 1);
        }
    }

    #[test]
    fn empty_selection() {
        let g = cycle6();
        let s = induced_subgraph(&g, &[false; 6]);
        assert_eq!(s.graph.n(), 0);
        assert!(s.orig.is_empty());
    }

    #[test]
    fn orig_maps_back() {
        let g = cycle6();
        let s = induced_subgraph(&g, &[false, true, false, true, true, false]);
        assert_eq!(s.orig, vec![1, 3, 4]);
        // Edge 3-4 survives as local 1-2.
        let nbrs: Vec<_> = s.graph.neighbors(1).to_vec();
        assert_eq!(nbrs, vec![2]);
    }
}
