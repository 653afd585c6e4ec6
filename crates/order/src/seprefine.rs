//! FM-style vertex-separator refinement.
//!
//! The minimum-vertex-cover separator from [`crate::vcover`] is optimal
//! *for the given edge separator*, but a different nearby edge separator
//! may admit a smaller vertex separator. This pass improves the separator
//! directly: moving a separator vertex `v` into side A removes `v` from S
//! but must pull `v`'s B-side neighbors into S (and vice versa), giving
//! the classic gain `size(v) − Σ size(B-neighbors of v not already in S)`.
//! Passes run with rollback to the best prefix, exactly like the KL engine
//! in `mlgp-part` — this is the separator-space analogue the authors'
//! companion report describes for `onmetis`.
//!
//! Each side keeps a lazy max-heap of its separator vertices' gains, and a
//! move changes only the gains of separator vertices next to a vertex it
//! relabels, by the weight that vertex carried. A pass therefore costs the
//! separator's adjacency plus the adjacency of what its moves touch, not a
//! scan of the whole subgraph per move.

use crate::vcover::{SEPARATOR, SIDE_A, SIDE_B};
use mlgp_graph::{CsrGraph, Vid, Wgt};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Options for separator refinement.
#[derive(Clone, Copy, Debug)]
pub struct SepRefineOptions {
    /// Maximum refinement passes.
    pub max_passes: usize,
    /// Abort a pass after this many consecutive non-improving moves.
    pub early_exit: usize,
    /// Allowed side imbalance: no move takes side A or B above
    /// `⌈imbalance × (|A|+|B|+|S|)/2⌉`, half the whole graph's weight times
    /// `imbalance` (weights, not counts).
    pub imbalance: f64,
}

impl Default for SepRefineOptions {
    fn default() -> Self {
        Self {
            max_passes: 4,
            early_exit: 40,
            imbalance: 1.10,
        }
    }
}

/// Total vertex weight of the separator under `labels`.
pub fn separator_weight(g: &CsrGraph, labels: &[u8]) -> Wgt {
    (0..g.n())
        .filter(|&v| labels[v] == SEPARATOR)
        .map(|v| g.vwgt()[v])
        .sum()
}

/// Refine a separator labeling in place; returns the final separator
/// weight. The labeling must be valid (no A-B edge) on entry and stays
/// valid on exit.
pub fn refine_separator(g: &CsrGraph, labels: &mut [u8], opts: &SepRefineOptions) -> Wgt {
    assert_eq!(labels.len(), g.n());
    let mut side_w = [0 as Wgt; 3];
    for v in 0..g.n() {
        side_w[labels[v] as usize] += g.vwgt()[v];
    }
    for _ in 0..opts.max_passes.max(1) {
        if !one_pass(g, labels, &mut side_w, opts) {
            break;
        }
    }
    side_w[SEPARATOR as usize]
}

/// One pass of greedy separator moves with rollback. Returns whether the
/// separator weight decreased.
///
/// Each move takes the highest gain over both sides, then the lowest
/// vertex id, then side A before side B, among the unmoved separator
/// vertices whose weight fits under the side bound. One lazy max-heap per
/// side holds `(gain, Reverse(v))`; an entry is stale once `v` has moved,
/// has left S, or its gain no longer equals the current one. A move updates
/// the gains it changes by `±vwgt` deltas.
fn one_pass(
    g: &CsrGraph,
    labels: &mut [u8],
    side_w: &mut [Wgt; 3],
    opts: &SepRefineOptions,
) -> bool {
    const SIDES: [u8; 2] = [SIDE_A, SIDE_B];
    let n = g.n();
    let vwgt = g.vwgt();
    let start_sep = side_w[SEPARATOR as usize];
    let half = (side_w[SIDE_A as usize] + side_w[SIDE_B as usize] + start_sep) as f64 / 2.0;
    let side_ub = (half * opts.imbalance).ceil() as Wgt;
    let lightest = vwgt.iter().copied().min().unwrap_or(0);
    let mut moved = vec![false; n];
    // pull[s][v]: weight of v's neighbors on side 1 − s, kept for the
    // unmoved separator vertices. Moving v to s gains vwgt[v] − pull[s][v].
    let mut pull = [vec![0 as Wgt; n], vec![0 as Wgt; n]];
    // `touched` lists the vertices whose pulls changed since the heaps last
    // got their entries: at first the whole separator.
    let mut touched: Vec<Vid> = Vec::new();
    for v in 0..n as Vid {
        if labels[v as usize] == SEPARATOR {
            fresh_pulls(g, labels, &mut pull, v);
            touched.push(v);
        }
    }
    let mut heaps: [BinaryHeap<(Wgt, Reverse<Vid>)>; 2] = Default::default();
    // stamp[v] == t marks v as pulled into S by move t; dirty[v] == t marks
    // v as already in `touched` for move t.
    let mut stamp = vec![0u32; n];
    let mut dirty = vec![0u32; n];
    let mut aside: Vec<(Wgt, Reverse<Vid>)> = Vec::new();
    // Move log for rollback: (vertex, previous labels of changed vertices).
    let mut log: Vec<(Vid, u8, Vec<Vid>)> = Vec::new();
    let mut best_len = 0usize;
    let mut best_sep = start_sep;
    let mut bad = 0usize;
    loop {
        for x in touched.drain(..) {
            for s in 0..2 {
                heaps[s].push((vwgt[x as usize] - pull[s][x as usize], Reverse(x)));
            }
        }
        let mut tops = [None; 2];
        for s in SIDES {
            let sw = side_w[s as usize];
            if sw + lightest > side_ub {
                continue;
            }
            let heap = &mut heaps[s as usize];
            while let Some(&(gain, Reverse(v))) = heap.peek() {
                let vu = v as usize;
                if moved[vu] || labels[vu] != SEPARATOR || gain != vwgt[vu] - pull[s as usize][vu] {
                    heap.pop();
                } else if sw + vwgt[vu] > side_ub {
                    aside.extend(heap.pop());
                } else {
                    tops[s as usize] = Some((gain, Reverse(v)));
                    break;
                }
            }
            heap.extend(aside.drain(..));
        }
        // `None` orders below every entry, so A wins ties and empty sides
        // lose; both empty ends the pass.
        let side = if tops[0] >= tops[1] { SIDE_A } else { SIDE_B };
        let Some((_, Reverse(v))) = tops[side as usize] else {
            break;
        };
        let other = 1 - side;
        let (si, oi) = (side as usize, other as usize);
        let t = log.len() as u32 + 1;
        // Apply: v -> side; other-side neighbors -> S.
        let mut pulled: Vec<Vid> = Vec::new();
        labels[v as usize] = side;
        side_w[SEPARATOR as usize] -= vwgt[v as usize];
        side_w[si] += vwgt[v as usize];
        for &u in g.neighbors(v) {
            if labels[u as usize] == other {
                labels[u as usize] = SEPARATOR;
                side_w[oi] -= vwgt[u as usize];
                side_w[SEPARATOR as usize] += vwgt[u as usize];
                stamp[u as usize] = t;
                pulled.push(u);
            }
        }
        moved[v as usize] = true;
        // Separator vertices that were in S before the move see v join
        // `side` and each pulled u leave `other`.
        let mut shift = |x: Vid, s: usize, by: Wgt| {
            let xu = x as usize;
            if labels[xu] == SEPARATOR && !moved[xu] && stamp[xu] != t {
                pull[s][xu] += by;
                if dirty[xu] != t {
                    dirty[xu] = t;
                    touched.push(x);
                }
            }
        };
        for &x in g.neighbors(v) {
            shift(x, oi, vwgt[v as usize]);
        }
        for &u in &pulled {
            for &x in g.neighbors(u) {
                shift(x, si, -vwgt[u as usize]);
            }
        }
        // Pulled vertices enter S with pulls from their adjacency.
        for &u in &pulled {
            if !moved[u as usize] {
                fresh_pulls(g, labels, &mut pull, u);
                touched.push(u);
            }
        }
        log.push((v, other, pulled));
        if side_w[SEPARATOR as usize] < best_sep {
            best_sep = side_w[SEPARATOR as usize];
            best_len = log.len();
            bad = 0;
        } else {
            bad += 1;
            if bad >= opts.early_exit {
                break;
            }
        }
    }
    rollback(g, labels, side_w, &mut log, best_len);
    best_sep < start_sep
}

/// Set `pull[s][v]` to the weight of `v`'s neighbors on side `1 − s`.
fn fresh_pulls(g: &CsrGraph, labels: &[u8], pull: &mut [Vec<Wgt>; 2], v: Vid) {
    let mut on = [0 as Wgt; 2];
    for &u in g.neighbors(v) {
        let l = labels[u as usize];
        if l != SEPARATOR {
            on[l as usize] += g.vwgt()[u as usize];
        }
    }
    pull[SIDE_A as usize][v as usize] = on[SIDE_B as usize];
    pull[SIDE_B as usize][v as usize] = on[SIDE_A as usize];
}

/// Undo the moves of `log` past its first `keep`.
fn rollback(
    g: &CsrGraph,
    labels: &mut [u8],
    side_w: &mut [Wgt; 3],
    log: &mut Vec<(Vid, u8, Vec<Vid>)>,
    keep: usize,
) {
    while log.len() > keep {
        let Some((v, other, pulled)) = log.pop() else {
            break; // len > keep >= 0 guarantees a popped entry
        };
        let side = labels[v as usize];
        for u in pulled {
            labels[u as usize] = other;
            side_w[SEPARATOR as usize] -= g.vwgt()[u as usize];
            side_w[other as usize] += g.vwgt()[u as usize];
        }
        labels[v as usize] = SEPARATOR;
        side_w[side as usize] -= g.vwgt()[v as usize];
        side_w[SEPARATOR as usize] += g.vwgt()[v as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcover::{separator_is_valid, vertex_separator};
    use mlgp_graph::generators::{grid2d, powerlaw, stiffness3d, tri_mesh2d};
    use mlgp_graph::rng::seeded;
    use mlgp_part::{bisect, MlConfig};
    use rand::RngExt;

    /// The kernel the heap pass replaced: every move scans all `n`
    /// vertices and recomputes both gains of each separator vertex from its
    /// adjacency. Kept as the oracle for [`one_pass`].
    fn scan_one_pass(
        g: &CsrGraph,
        labels: &mut [u8],
        side_w: &mut [Wgt; 3],
        opts: &SepRefineOptions,
    ) -> bool {
        let n = g.n();
        let start_sep = side_w[SEPARATOR as usize];
        let half = (side_w[SIDE_A as usize] + side_w[SIDE_B as usize] + start_sep) as f64 / 2.0;
        let side_ub = (half * opts.imbalance).ceil() as Wgt;
        let mut moved = vec![false; n];
        let mut log: Vec<(Vid, u8, Vec<Vid>)> = Vec::new();
        let mut best_len = 0usize;
        let mut best_sep = start_sep;
        let mut bad = 0usize;
        loop {
            let mut best_move: Option<(Wgt, Vid, u8)> = None;
            for v in 0..n as Vid {
                if labels[v as usize] != SEPARATOR || moved[v as usize] {
                    continue;
                }
                for side in [SIDE_A, SIDE_B] {
                    let other = 1 - side;
                    let pulled: Wgt = g
                        .neighbors(v)
                        .iter()
                        .filter(|&&u| labels[u as usize] == other)
                        .map(|&u| g.vwgt()[u as usize])
                        .sum();
                    let gain = g.vwgt()[v as usize] - pulled;
                    if side_w[side as usize] + g.vwgt()[v as usize] > side_ub {
                        continue;
                    }
                    if best_move.is_none_or(|(bg, _, _)| gain > bg) {
                        best_move = Some((gain, v, side));
                    }
                }
            }
            let Some((_, v, side)) = best_move else { break };
            let other = 1 - side;
            let mut pulled: Vec<Vid> = Vec::new();
            labels[v as usize] = side;
            side_w[SEPARATOR as usize] -= g.vwgt()[v as usize];
            side_w[side as usize] += g.vwgt()[v as usize];
            for &u in g.neighbors(v) {
                if labels[u as usize] == other {
                    labels[u as usize] = SEPARATOR;
                    side_w[other as usize] -= g.vwgt()[u as usize];
                    side_w[SEPARATOR as usize] += g.vwgt()[u as usize];
                    pulled.push(u);
                }
            }
            moved[v as usize] = true;
            log.push((v, other, pulled));
            if side_w[SEPARATOR as usize] < best_sep {
                best_sep = side_w[SEPARATOR as usize];
                best_len = log.len();
                bad = 0;
            } else {
                bad += 1;
                if bad >= opts.early_exit {
                    break;
                }
            }
        }
        rollback(g, labels, side_w, &mut log, best_len);
        best_sep < start_sep
    }

    fn side_weights(g: &CsrGraph, labels: &[u8]) -> [Wgt; 3] {
        let mut w = [0 as Wgt; 3];
        for v in 0..g.n() {
            w[labels[v] as usize] += g.vwgt()[v];
        }
        w
    }

    /// Run the heap and scan passes side by side from `labels` and require
    /// equal labels, side weights and results after every pass, and the
    /// same final weight from [`refine_separator`].
    fn assert_matches_scan(g: &CsrGraph, labels: &[u8], opts: &SepRefineOptions, what: &str) {
        let (mut heap_l, mut scan_l) = (labels.to_vec(), labels.to_vec());
        let (mut heap_w, mut scan_w) = (side_weights(g, labels), side_weights(g, labels));
        for pass in 0..opts.max_passes.max(1) {
            let heap_r = one_pass(g, &mut heap_l, &mut heap_w, opts);
            let scan_r = scan_one_pass(g, &mut scan_l, &mut scan_w, opts);
            assert_eq!(heap_r, scan_r, "{what}: result of pass {pass}");
            assert_eq!(heap_w, scan_w, "{what}: side weights after pass {pass}");
            assert!(heap_l == scan_l, "{what}: labels after pass {pass}");
            if !heap_r {
                break;
            }
        }
        let mut again = labels.to_vec();
        assert_eq!(
            refine_separator(g, &mut again, opts),
            scan_w[SEPARATOR as usize],
            "{what}: refine_separator"
        );
        assert!(again == scan_l, "{what}: refine_separator labels");
    }

    /// `g` with vertex weights drawn from `1..=max_w`.
    fn reweighted(g: &CsrGraph, max_w: Wgt, seed: u64) -> CsrGraph {
        let mut rng = seeded(seed);
        let (xadj, adjncy, _, adjwgt) = g.clone().into_parts();
        let vwgt = (0..g.n()).map(|_| rng.random_range(1..=max_w)).collect();
        CsrGraph::from_parts(xadj, adjncy, vwgt, adjwgt)
    }

    #[test]
    fn heap_pass_matches_the_scan_oracle() {
        let graphs = [
            ("tri_mesh2d", tri_mesh2d(24, 24, 3)),
            ("stiffness3d", stiffness3d(7, 7, 7)),
            ("powerlaw", powerlaw(800, 3, 5)),
            ("grid2d", grid2d(20, 15)),
        ];
        for (name, base) in &graphs {
            for (max_w, seed) in [(1, 0), (4, 11), (9, 12)] {
                let g = if max_w == 1 {
                    base.clone()
                } else {
                    reweighted(base, max_w, seed)
                };
                for bseed in [1, 2] {
                    let cfg = MlConfig {
                        seed: bseed,
                        ..MlConfig::default()
                    };
                    let labels = vertex_separator(&g, &bisect(&g, &cfg).part);
                    for imbalance in [1.02, 1.10, 1.5] {
                        for early_exit in [40, usize::MAX] {
                            let opts = SepRefineOptions {
                                max_passes: 6,
                                early_exit,
                                imbalance,
                            };
                            let what = format!(
                                "{name} w≤{max_w} seed {bseed} imbalance {imbalance} exit {early_exit}"
                            );
                            assert_matches_scan(&g, &labels, &opts, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn heap_pass_matches_the_scan_oracle_on_thick_separators() {
        // Wide bands of separator vertices: many equal gains on both sides,
        // so the tie rule decides most moves.
        for (nx, band) in [(10usize, 2usize), (16, 4), (21, 7)] {
            let g = grid2d(nx, nx);
            let lo = (nx - band) / 2;
            let labels: Vec<u8> = (0..nx * nx)
                .map(|i| match i % nx {
                    c if c < lo => SIDE_A,
                    c if c < lo + band => SEPARATOR,
                    _ => SIDE_B,
                })
                .collect();
            for imbalance in [1.02, 1.10, 1.5] {
                let opts = SepRefineOptions {
                    imbalance,
                    ..SepRefineOptions::default()
                };
                assert_matches_scan(&g, &labels, &opts, &format!("band {nx}/{band}"));
            }
        }
    }

    fn checked_refine(g: &CsrGraph, labels: &mut [u8]) -> (Wgt, Wgt) {
        let before = separator_weight(g, labels);
        let after = refine_separator(g, labels, &SepRefineOptions::default());
        assert!(separator_is_valid(g, labels), "separator invalidated");
        assert_eq!(after, separator_weight(g, labels));
        (before, after)
    }

    #[test]
    fn never_worsens_an_optimal_separator() {
        // Column separator of a grid is optimal; refinement must keep it.
        let g = grid2d(8, 8);
        let part: Vec<u8> = (0..64).map(|i| if i % 8 < 4 { 0 } else { 1 }).collect();
        let mut labels = vertex_separator(&g, &part);
        let (before, after) = checked_refine(&g, &mut labels);
        assert_eq!(before, 8);
        assert!(after <= before);
    }

    #[test]
    fn improves_a_jagged_separator() {
        // Build a deliberately bad labeling: a thick double-column
        // separator; refinement should thin it toward one column.
        let g = grid2d(10, 10);
        let mut labels: Vec<u8> = (0..100)
            .map(|i| match i % 10 {
                0..=3 => SIDE_A,
                4 | 5 => SEPARATOR,
                _ => SIDE_B,
            })
            .collect();
        assert!(separator_is_valid(&g, &labels));
        let (before, after) = checked_refine(&g, &mut labels);
        assert_eq!(before, 20);
        assert!(after <= 12, "after {after}");
    }

    #[test]
    fn refines_real_bisection_separators() {
        let g = tri_mesh2d(25, 25, 9);
        let r = bisect(&g, &MlConfig::default());
        let mut labels = vertex_separator(&g, &r.part);
        let (before, after) = checked_refine(&g, &mut labels);
        assert!(after <= before, "{after} > {before}");
        // Sides stay within the balance envelope.
        let wa: Wgt = (0..g.n())
            .filter(|&v| labels[v] == SIDE_A)
            .map(|v| g.vwgt()[v])
            .sum();
        let wb: Wgt = (0..g.n())
            .filter(|&v| labels[v] == SIDE_B)
            .map(|v| g.vwgt()[v])
            .sum();
        let half = g.total_vwgt() as f64 / 2.0;
        assert!(
            wa as f64 <= 1.12 * half && wb as f64 <= 1.12 * half,
            "{wa} {wb}"
        );
    }

    #[test]
    fn empty_separator_is_fixed_point() {
        let g = grid2d(4, 2);
        let mut labels = vec![SIDE_A; 8];
        let after = refine_separator(&g, &mut labels, &SepRefineOptions::default());
        assert_eq!(after, 0);
        assert!(labels.iter().all(|&l| l == SIDE_A));
    }
}
