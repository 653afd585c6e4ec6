//! Connectivity analysis.
//!
//! Partitioners and ordering codes assume connected inputs; generators use
//! these routines to verify (or restore) connectivity, and nested dissection
//! uses component decomposition when a separator disconnects a side.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, Vid};

/// Label the connected components of `g`; returns `(count, comp)` where
/// `comp[v]` is the 0-based component id of `v` (ids assigned in order of
/// first discovery by vertex number).
pub fn connected_components(g: &CsrGraph) -> (usize, Vec<u32>) {
    let n = g.n();
    let mut comp = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut stack: Vec<Vid> = Vec::new();
    for s in 0..n as Vid {
        if comp[s as usize] != u32::MAX {
            continue;
        }
        comp[s as usize] = count;
        stack.push(s);
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(v) {
                if comp[u as usize] == u32::MAX {
                    comp[u as usize] = count;
                    stack.push(u);
                }
            }
        }
        count += 1;
    }
    (count as usize, comp)
}

/// True iff `g` is connected (the empty graph counts as connected).
pub fn is_connected(g: &CsrGraph) -> bool {
    g.n() == 0 || connected_components(g).0 == 1
}

/// Add minimum-weight unit edges chaining one representative of each
/// component to the next, producing a connected graph. Used by generators
/// whose random construction can occasionally disconnect.
pub fn connect_components(g: &CsrGraph) -> CsrGraph {
    let (count, comp) = connected_components(g);
    if count <= 1 {
        return g.clone();
    }
    let mut rep = vec![Vid::MAX; count];
    for v in 0..g.n() as Vid {
        let c = comp[v as usize] as usize;
        if rep[c] == Vid::MAX {
            rep[c] = v;
        }
    }
    let mut b = GraphBuilder::with_capacity(g.n(), g.m() + count);
    b.set_vertex_weights(g.vwgt().to_vec());
    for v in 0..g.n() as Vid {
        for (u, w) in g.adj(v) {
            if v < u {
                b.add_weighted_edge(v, u, w);
            }
        }
    }
    for c in 1..count {
        b.add_edge(rep[c - 1], rep[c]);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles() -> CsrGraph {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
        b.add_edge(3, 4).add_edge(4, 5).add_edge(5, 3);
        b.build()
    }

    #[test]
    fn counts_components() {
        let (count, comp) = connected_components(&two_triangles());
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[0], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
    }

    #[test]
    fn connectivity_predicate() {
        assert!(!is_connected(&two_triangles()));
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        assert!(is_connected(&b.build()));
        assert!(is_connected(&CsrGraph::empty()));
    }

    #[test]
    fn connecting_makes_connected() {
        let g = connect_components(&two_triangles());
        assert!(is_connected(&g));
        assert_eq!(g.m(), 7); // 6 original + 1 bridge
        assert!(g.validate().is_ok());
    }

    #[test]
    fn connect_is_identity_on_connected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(connect_components(&g), g);
    }
}
