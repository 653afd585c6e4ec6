//! Incremental construction of [`CsrGraph`]s from edge lists.
//!
//! The builder accepts edges in any order, in either direction, with
//! duplicates; it symmetrizes, folds parallel edges by summing weights, and
//! drops self-loops, producing a graph that satisfies every [`CsrGraph`]
//! invariant. All algorithms that synthesize graphs (generators, file
//! readers, test fixtures) funnel through here.

use crate::csr::{CsrGraph, Vid, Wgt};

/// Accumulates an edge list and finalizes it into a [`CsrGraph`].
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(Vid, Vid, Wgt)>,
    vwgt: Option<Vec<Wgt>>,
}

impl GraphBuilder {
    /// Builder for a graph with `n` vertices and unit vertex weights.
    pub fn new(n: usize) -> Self {
        assert!(n < Vid::MAX as usize, "too many vertices for u32 ids");
        Self {
            n,
            edges: Vec::new(),
            vwgt: None,
        }
    }

    /// Pre-allocate room for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Set all vertex weights at once.
    ///
    /// # Panics
    /// Panics if `vwgt.len() != n` or any weight is non-positive.
    pub fn set_vertex_weights(&mut self, vwgt: Vec<Wgt>) -> &mut Self {
        assert_eq!(vwgt.len(), self.n, "vertex weight length mismatch");
        assert!(
            vwgt.iter().all(|&w| w > 0),
            "vertex weights must be positive"
        );
        self.vwgt = Some(vwgt);
        self
    }

    /// Add an undirected edge with unit weight. Self-loops are silently
    /// dropped; duplicates are folded at build time by summing weights.
    pub fn add_edge(&mut self, u: Vid, v: Vid) -> &mut Self {
        self.add_weighted_edge(u, v, 1)
    }

    /// Add an undirected edge with the given positive weight.
    pub fn add_weighted_edge(&mut self, u: Vid, v: Vid, w: Wgt) -> &mut Self {
        assert!((u as usize) < self.n, "edge endpoint {u} out of range");
        assert!((v as usize) < self.n, "edge endpoint {v} out of range");
        assert!(w > 0, "edge weights must be positive");
        if u != v {
            self.edges.push((u, v, w));
        }
        self
    }

    /// Finalize into a CSR graph.
    pub fn build(self) -> CsrGraph {
        let n = self.n;
        // Degree count over both directions.
        let mut xadj = vec![0u32; n + 1];
        for &(u, v, _) in &self.edges {
            xadj[u as usize + 1] += 1;
            xadj[v as usize + 1] += 1;
        }
        for i in 0..n {
            xadj[i + 1] += xadj[i];
        }
        let total = xadj[n] as usize;
        let mut adjncy = vec![0 as Vid; total];
        let mut adjwgt = vec![0 as Wgt; total];
        let mut cursor: Vec<u32> = xadj[..n].to_vec();
        for &(u, v, w) in &self.edges {
            let cu = cursor[u as usize] as usize;
            adjncy[cu] = v;
            adjwgt[cu] = w;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            adjncy[cv] = u;
            adjwgt[cv] = w;
            cursor[v as usize] += 1;
        }
        // Sort each row and sum parallel entries, compacting in place.
        sort_rows(&xadj, &mut adjncy, &mut adjwgt);
        fold_sorted_rows(&mut xadj, &mut adjncy, &mut adjwgt, |a, b| a + b);
        let vwgt = self.vwgt.unwrap_or_else(|| vec![1; n]);
        CsrGraph::from_parts_unchecked(xadj, adjncy, vwgt, adjwgt)
    }
}

/// Sort every CSR row by `(neighbor, weight)` in place. Rows already in
/// order are left alone; the others go through one scratch buffer shared by
/// all rows.
pub(crate) fn sort_rows(xadj: &[u32], adjncy: &mut [Vid], adjwgt: &mut [Wgt]) {
    let mut scratch: Vec<(Vid, Wgt)> = Vec::new();
    for r in xadj.windows(2) {
        let (start, end) = (r[0] as usize, r[1] as usize);
        let (nbrs, wgts) = (&mut adjncy[start..end], &mut adjwgt[start..end]);
        let sorted = (1..nbrs.len()).all(|i| (nbrs[i - 1], wgts[i - 1]) <= (nbrs[i], wgts[i]));
        if sorted {
            continue;
        }
        scratch.clear();
        scratch.extend(nbrs.iter().copied().zip(wgts.iter().copied()));
        scratch.sort_unstable();
        for ((u, w), &(su, sw)) in nbrs.iter_mut().zip(wgts.iter_mut()).zip(&scratch) {
            *u = su;
            *w = sw;
        }
    }
}

/// Fold each run of equal neighbors in CSR rows sorted by neighbor into one
/// entry whose weight is `merge` over the run's weights, compacting the
/// arrays in place and rewriting `xadj` to the folded rows.
pub(crate) fn fold_sorted_rows(
    xadj: &mut [u32],
    adjncy: &mut Vec<Vid>,
    adjwgt: &mut Vec<Wgt>,
    mut merge: impl FnMut(Wgt, Wgt) -> Wgt,
) {
    let mut write = 0usize;
    let mut start = 0usize;
    for v in 0..xadj.len().saturating_sub(1) {
        // `xadj[v]` already holds the folded offset; the row's own end is
        // still unread.
        let end = xadj[v + 1] as usize;
        let row_start = write;
        for i in start..end {
            let (u, w) = (adjncy[i], adjwgt[i]);
            if write > row_start && adjncy[write - 1] == u {
                adjwgt[write - 1] = merge(adjwgt[write - 1], w);
            } else {
                adjncy[write] = u;
                adjwgt[write] = w;
                write += 1;
            }
        }
        xadj[v + 1] = write as u32;
        start = end;
    }
    adjncy.truncate(write);
    adjwgt.truncate(write);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_path() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn folds_duplicate_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 2);
        b.add_weighted_edge(1, 0, 3);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weights(0), &[5]);
        assert_eq!(g.edge_weights(1), &[5]);
    }

    #[test]
    fn drops_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0).add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn respects_vertex_weights() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.set_vertex_weights(vec![7, 9]);
        let g = b.build();
        assert_eq!(g.vwgt(), &[7, 9]);
        assert_eq!(g.total_vwgt(), 16);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        GraphBuilder::new(2).add_edge(0, 2);
    }

    #[test]
    fn sorted_rows() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(3, 0).add_edge(1, 3).add_edge(3, 2);
        let g = b.build();
        assert_eq!(g.neighbors(3), &[0, 1, 2]);
    }
}
