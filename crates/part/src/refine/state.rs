//! Incremental bisection state: partition labels, part weights, and the
//! internal/external degree of every vertex.
//!
//! `ed[v]` (external degree) is the total weight of `v`'s edges crossing the
//! cut; `id[v]` (internal degree) the weight staying inside `v`'s part. The
//! KL gain of moving `v` is `ed[v] − id[v]`, and `cut = Σ ed / 2`. All
//! refinement algorithms operate on this state through `move_vertex`, which
//! maintains every quantity in `O(deg v)`.
//!
//! Building, projecting and scanning the state are serial passes over the
//! vertices; the only parallelism is at the recursion forks above it.
//!
//! # Projection
//!
//! Uncoarsening builds each finer level's state from the coarser one with
//! [`BisectState::project`] instead of from scratch. Contraction keeps
//! vertex weights and the cut, so `pwgts` and `cut` carry over. A vertex
//! whose coarse vertex had no external degree has no cut edge either:
//! each of its neighbors lies in that same coarse vertex or in one of its
//! coarse neighbors, and every coarse neighbor is on the same side
//! (edge weights are positive, which `CsrGraph::validate` requires). Such
//! a vertex gets `ed = 0` and `id` = its weighted degree without reading
//! its neighbors' sides; only the vertices of coarse boundary vertices
//! scan them. The result equals [`BisectState::new`] on the projected
//! partition, field by field.

use mlgp_graph::{CsrGraph, Vid, Wgt};

/// Mutable state of a 2-way partition under refinement.
#[derive(Debug)]
pub struct BisectState<'g> {
    g: &'g CsrGraph,
    /// Side (0/1) of each vertex.
    pub part: Vec<u8>,
    /// Total vertex weight per side.
    pub pwgts: [Wgt; 2],
    /// External (cut) degree per vertex.
    pub ed: Vec<Wgt>,
    /// Internal degree per vertex.
    pub id: Vec<Wgt>,
    /// Current edge-cut.
    pub cut: Wgt,
}

impl<'g> BisectState<'g> {
    /// Build the state for an existing partition in `O(n + m)` work.
    pub fn new(g: &'g CsrGraph, part: Vec<u8>) -> Self {
        assert_eq!(part.len(), g.n());
        let (ed, id, pwgts, cut) = degrees(g.n(), |v, pwgts, cut| {
            let pv = part[v];
            debug_assert!(pv <= 1);
            pwgts[pv as usize] += g.vwgt()[v];
            let (mut ed_v, mut id_v) = (0, 0);
            for (u, w) in g.adj(v as Vid) {
                if part[u as usize] == pv {
                    id_v += w;
                } else {
                    ed_v += w;
                    if u as usize > v {
                        *cut += w;
                    }
                }
            }
            (ed_v, id_v)
        });
        Self {
            g,
            part,
            pwgts,
            ed,
            id,
            cut,
        }
    }

    /// [`BisectState::new`]; `_threads` is ignored, and kept only for
    /// callers that still pass one.
    pub fn with_threads(g: &'g CsrGraph, part: Vec<u8>, _threads: usize) -> Self {
        Self::new(g, part)
    }

    /// The state of `fine` under the projection of `coarse`'s partition
    /// through `cmap` (fine vertex → coarse vertex), equal to
    /// `BisectState::new` on that partition but reading the neighbors'
    /// sides only for vertices of coarse boundary vertices (module docs,
    /// "Projection"). `coarse` must be consistent (see [`Self::consistent`]).
    pub fn project(fine: &'g CsrGraph, coarse: &BisectState<'_>, cmap: &[Vid]) -> Self {
        assert_eq!(cmap.len(), fine.n());
        let part: Vec<u8> = cmap.iter().map(|&c| coarse.part[c as usize]).collect();
        let (ed, id, _, _) = degrees(fine.n(), |v, _, _| {
            if coarse.ed[cmap[v] as usize] == 0 {
                return (0, fine.edge_weights(v as Vid).iter().sum());
            }
            let pv = part[v];
            let (mut ed_v, mut id_v) = (0, 0);
            for (u, w) in fine.adj(v as Vid) {
                if part[u as usize] == pv {
                    id_v += w;
                } else {
                    ed_v += w;
                }
            }
            (ed_v, id_v)
        });
        Self {
            g: fine,
            part,
            pwgts: coarse.pwgts,
            ed,
            id,
            cut: coarse.cut,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.g
    }

    /// KL gain of moving `v` to the other side.
    #[inline]
    pub fn gain(&self, v: Vid) -> Wgt {
        self.ed[v as usize] - self.id[v as usize]
    }

    /// A vertex is on the boundary iff it has cut edges (isolated vertices
    /// also count so they stay movable for balancing).
    #[inline]
    pub fn is_boundary(&self, v: Vid) -> bool {
        self.ed[v as usize] > 0 || self.g.degree(v) == 0
    }

    /// Number of boundary vertices.
    pub fn boundary_count(&self) -> usize {
        (0..self.g.n() as Vid)
            .filter(|&v| self.is_boundary(v))
            .count()
    }

    /// Vertices eligible for refinement seeding — all of them, or only the
    /// boundary — in ascending vertex order.
    pub fn movable_vertices(&self, boundary_only: bool) -> Vec<Vid> {
        (0..self.g.n() as Vid)
            .filter(|&v| !boundary_only || self.is_boundary(v))
            .collect()
    }

    /// Move `v` to the other side, updating partition, weights, degrees and
    /// cut in `O(deg v)`. Also used to *undo* a move (it is an involution).
    pub fn move_vertex(&mut self, v: Vid) {
        let from = self.part[v as usize];
        let to = 1 - from;
        let vw = self.g.vwgt()[v as usize];
        self.cut -= self.gain(v);
        self.part[v as usize] = to;
        self.pwgts[from as usize] -= vw;
        self.pwgts[to as usize] += vw;
        let (ed_v, id_v) = (self.ed[v as usize], self.id[v as usize]);
        self.ed[v as usize] = id_v;
        self.id[v as usize] = ed_v;
        for (u, w) in self.g.adj(v) {
            if self.part[u as usize] == to {
                // u is now on v's side: the edge stopped being cut.
                self.id[u as usize] += w;
                self.ed[u as usize] -= w;
            } else {
                self.ed[u as usize] += w;
                self.id[u as usize] -= w;
            }
        }
    }

    /// Recompute everything from scratch and compare (debug aid; used by
    /// tests and property checks).
    pub fn consistent(&self) -> bool {
        let fresh = BisectState::new(self.g, self.part.clone());
        fresh.cut == self.cut
            && fresh.pwgts == self.pwgts
            && fresh.ed == self.ed
            && fresh.id == self.id
    }
}

/// Per-vertex `(ed, id)` of `n` vertices from `vertex(v, pwgts, cut)`,
/// which may also add to the part weights and cut returned with them.
fn degrees<F>(n: usize, mut vertex: F) -> (Vec<Wgt>, Vec<Wgt>, [Wgt; 2], Wgt)
where
    F: FnMut(usize, &mut [Wgt; 2], &mut Wgt) -> (Wgt, Wgt),
{
    let mut ed = Vec::with_capacity(n);
    let mut id = Vec::with_capacity(n);
    let mut pwgts = [0, 0];
    let mut cut = 0;
    for v in 0..n {
        let (ed_v, id_v) = vertex(v, &mut pwgts, &mut cut);
        ed.push(ed_v);
        id.push(id_v);
    }
    (ed, id, pwgts, cut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgp_graph::generators::{grid2d, tri_mesh2d};
    use mlgp_graph::GraphBuilder;

    #[test]
    fn projection_matches_a_fresh_build() {
        // A coarse level by an arbitrary three-way merge map and a striped
        // partition (long boundaries, interior vertices on both sides).
        let g = tri_mesh2d(40, 30, 2);
        let nc = g.n() / 3;
        let cmap: Vec<Vid> = (0..g.n() as Vid).map(|v| v / 3 % nc as Vid).collect();
        let coarse_g = crate::contract::contract(&g, &cmap, nc, &vec![0; g.n()]).graph;
        let cpart: Vec<u8> = (0..nc).map(|c| (c / 40 % 2) as u8).collect();
        let coarse = BisectState::new(&coarse_g, cpart.clone());
        let fine_part: Vec<u8> = cmap.iter().map(|&c| cpart[c as usize]).collect();
        let fresh = BisectState::new(&g, fine_part);
        assert!(coarse.ed.contains(&0) && coarse.cut > 0);
        let p = BisectState::project(&g, &coarse, &cmap);
        assert_eq!(p.part, fresh.part);
        assert_eq!(p.ed, fresh.ed);
        assert_eq!(p.id, fresh.id);
        assert_eq!((p.pwgts, p.cut), (fresh.pwgts, fresh.cut));
    }

    #[test]
    fn initial_state_of_square() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(3, 0);
        let g = b.build();
        let s = BisectState::new(&g, vec![0, 0, 1, 1]);
        assert_eq!(s.cut, 2);
        assert_eq!(s.pwgts, [2, 2]);
        assert_eq!(s.ed, vec![1, 1, 1, 1]);
        assert_eq!(s.id, vec![1, 1, 1, 1]);
        assert_eq!(s.gain(0), 0);
        assert!(s.is_boundary(0));
        assert_eq!(s.boundary_count(), 4);
    }

    #[test]
    fn move_updates_everything() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(3, 0);
        let g = b.build();
        let mut s = BisectState::new(&g, vec![0, 0, 1, 1]);
        s.move_vertex(1);
        assert_eq!(s.part, vec![0, 1, 1, 1]);
        assert_eq!(s.cut, 2);
        assert_eq!(s.pwgts, [1, 3]);
        assert!(s.consistent());
    }

    #[test]
    fn move_is_involution() {
        let g = grid2d(6, 6);
        let part: Vec<u8> = (0..36).map(|i| ((i / 6) % 2) as u8).collect();
        let mut s = BisectState::new(&g, part.clone());
        let cut0 = s.cut;
        s.move_vertex(14);
        s.move_vertex(14);
        assert_eq!(s.part, part);
        assert_eq!(s.cut, cut0);
        assert!(s.consistent());
    }

    #[test]
    fn gain_predicts_cut_change() {
        let g = grid2d(5, 5);
        let part: Vec<u8> = (0..25).map(|i| if i % 5 < 2 { 0 } else { 1 }).collect();
        let mut s = BisectState::new(&g, part);
        for v in [0u32, 7, 12, 24] {
            let before = s.cut;
            let gain = s.gain(v);
            s.move_vertex(v);
            assert_eq!(s.cut, before - gain, "vertex {v}");
            assert!(s.consistent());
        }
    }

    #[test]
    fn sequence_of_moves_stays_consistent() {
        let g = grid2d(7, 4);
        let part: Vec<u8> = (0..28).map(|i| (i % 2) as u8).collect();
        let mut s = BisectState::new(&g, part);
        for v in [3u32, 9, 9, 20, 5, 3, 27, 0] {
            s.move_vertex(v);
        }
        assert!(s.consistent());
    }
}
