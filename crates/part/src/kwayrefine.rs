//! Direct k-way refinement — the extension the paper's conclusion points
//! toward (and which became the k-way refinement of the authors' follow-up
//! work): instead of only refining each bisection in isolation, sweep the
//! *final* k-way partition, moving boundary vertices to whichever adjacent
//! part reduces the cut most, under the balance constraint.
//!
//! # Greedy passes
//!
//! Each pass visits the vertices in one seeded random order. A boundary
//! vertex computes its connectivity to the adjacent parts from the
//! *current* partition and part weights and moves at once to its best
//! legal destination: highest gain, ties toward the lighter part, never
//! past the balance bound `ub`. A move is legal when its gain is positive,
//! or zero with the destination lighter than the vertex's part before the
//! move. Every gain is exact, so the cut never increases; the sweep stops
//! after a pass that lowers the cut by nothing, or at `max_passes`. The
//! result is a pure function of `(graph, partition, k, options.seed)`.
//!
//! Only a boundary vertex can have a legal move, so the kernel keeps, for
//! every vertex, its number of neighbors in other parts and reads the
//! adjacency of boundary vertices only. The counts are built once in
//! `O(n + m)` and kept exact by each move in `O(deg)`, so a pass costs
//! `O(n)` plus the boundary's adjacency; a `#[cfg(test)]` full-scan oracle
//! checks that the moves are exactly those of a scan of every adjacency.

use crate::config::MlConfig;
use crate::kway::{kway_partition_traced, KwayResult};
use crate::metrics::{edge_cut_kway, part_weights};
use mlgp_graph::rng::{random_order, seeded};
use mlgp_graph::{CsrGraph, Vid, Wgt};
use mlgp_trace::{Event, Trace, SPAN_REFINE};

/// Options for the greedy k-way sweep.
#[derive(Clone, Copy, Debug)]
pub struct KwayRefineOptions {
    /// Maximum passes over the vertices.
    pub max_passes: usize,
    /// Per-part weight may not exceed `imbalance ×` the average.
    pub imbalance: f64,
    /// Seed for the visit order.
    pub seed: u64,
    /// Ignored: the sweep is one serial kernel. The field stays only for
    /// callers that still set it.
    pub threads: usize,
}

impl Default for KwayRefineOptions {
    fn default() -> Self {
        Self {
            max_passes: 24,
            imbalance: 1.03,
            seed: 0x6b77,
            threads: 0,
        }
    }
}

/// Telemetry from one run of the greedy k-way sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KwayRefineStats {
    /// Passes over the vertices.
    pub rounds: usize,
    /// Boundary vertices evaluated, summed over the passes.
    pub proposals: usize,
    /// Moves applied.
    pub moves: usize,
}

/// Refine a k-way partition in place with the greedy sweep. Returns the
/// resulting edge-cut.
pub fn kway_refine_greedy(
    g: &CsrGraph,
    part: &mut [u32],
    k: usize,
    opts: &KwayRefineOptions,
) -> Wgt {
    kway_refine_stats(g, part, k, opts, &Trace::disabled()).0
}

/// [`kway_refine_greedy`] with telemetry: returns the kernel statistics
/// alongside the final cut, and records a `kway_sweep` event and the
/// `kwayref_*` counters on `trace`.
pub fn kway_refine_stats(
    g: &CsrGraph,
    part: &mut [u32],
    k: usize,
    opts: &KwayRefineOptions,
    trace: &Trace,
) -> (Wgt, KwayRefineStats) {
    assert_eq!(part.len(), g.n());
    let n = g.n();
    let mut stats = KwayRefineStats::default();
    if k <= 1 || n == 0 {
        return (0, stats);
    }
    let cut_before = edge_cut_kway(g, part);
    let mut cut = cut_before;
    let order = random_order(&mut seeded(opts.seed), n);
    let mut pwgts = part_weights(g, part, k);
    let total: Wgt = pwgts.iter().sum();
    let ub = (total as f64 / k as f64 * opts.imbalance).ceil() as Wgt;

    // Connectivity of the current vertex to each part, reset per vertex
    // via `touched`.
    let mut conn: Vec<Wgt> = vec![0; k];
    let mut touched: Vec<u32> = Vec::with_capacity(16);
    // Neighbors of each vertex in another part: only boundary vertices
    // (`external > 0`) can move. Every move keeps it current.
    let mut external: Vec<u32> = (0..n)
        .map(|v| {
            let home = part[v];
            g.neighbors(v as Vid)
                .iter()
                .filter(|&&u| part[u as usize] != home)
                .count() as u32
        })
        .collect();

    for _ in 0..opts.max_passes.max(1) {
        let cut_at_start = cut;
        for &v in &order {
            let v = v as usize;
            if external[v] == 0 {
                continue;
            }
            stats.proposals += 1;
            let home = part[v];
            touched.clear();
            for (u, w) in g.adj(v as Vid) {
                let pu = part[u as usize];
                if conn[pu as usize] == 0 {
                    touched.push(pu);
                }
                conn[pu as usize] += w;
            }
            // Best destination by (gain, -pwgt); equal keys go to the part
            // met first in the adjacency.
            let mut best: Option<(Wgt, Wgt, u32)> = None;
            let vw = g.vwgt()[v];
            let here = conn[home as usize];
            for &t in &touched {
                let tw = pwgts[t as usize];
                if t == home || tw + vw > ub {
                    continue;
                }
                let gain = conn[t as usize] - here;
                if (gain > 0 || (gain == 0 && tw < pwgts[home as usize]))
                    && best.is_none_or(|(bg, bw, _)| (gain, -tw) > (bg, bw))
                {
                    best = Some((gain, -tw, t));
                }
            }
            for &t in &touched {
                conn[t as usize] = 0;
            }
            let Some((gain, _, to)) = best else {
                continue;
            };
            // Apply the move, refreshing the boundary counts of the vertex
            // and its neighbors.
            pwgts[home as usize] -= vw;
            pwgts[to as usize] += vw;
            part[v] = to;
            let mut ext = 0;
            for &u in g.neighbors(v as Vid) {
                let pu = part[u as usize];
                if pu == home {
                    external[u as usize] += 1;
                } else if pu == to {
                    external[u as usize] -= 1;
                }
                ext += (pu != to) as u32;
            }
            external[v] = ext;
            cut -= gain;
            stats.moves += 1;
        }
        stats.rounds += 1;
        if cut == cut_at_start {
            break;
        }
    }
    if trace.is_enabled() {
        trace.count("kwayref_rounds", stats.rounds as u64);
        trace.count("kwayref_proposals", stats.proposals as u64);
        trace.count("kwayref_moves", stats.moves as u64);
    }
    trace.record(|| Event::KwaySweep {
        passes: stats.rounds,
        moves: stats.moves,
        cut_before,
        cut_after: cut,
    });
    (cut, stats)
}

/// [`kway_partition`] followed by the greedy k-way sweep.
///
/// [`kway_partition`]: crate::kway::kway_partition
pub fn kway_partition_refined(g: &CsrGraph, k: usize, cfg: &MlConfig) -> KwayResult {
    kway_partition_refined_traced(g, k, cfg, &Trace::disabled())
}

/// [`kway_partition_refined`] with telemetry over both the recursive
/// bisections and the final k-way sweep.
pub fn kway_partition_refined_traced(
    g: &CsrGraph,
    k: usize,
    cfg: &MlConfig,
    trace: &Trace,
) -> KwayResult {
    let mut r = kway_partition_traced(g, k, cfg, trace);
    let opts = KwayRefineOptions {
        imbalance: cfg.imbalance,
        seed: cfg.seed ^ 0x5eed,
        ..KwayRefineOptions::default()
    };
    let t = trace.start();
    r.edge_cut = kway_refine_stats(g, &mut r.part, k, &opts, trace).0;
    trace.stop(t, SPAN_REFINE);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kway::kway_partition;
    use crate::metrics::{boundary_count, imbalance};
    use mlgp_graph::generators::{grid2d, powerlaw, tet_mesh3d, tri_mesh2d};

    /// A full-scan oracle for the sweep: the same seeded visit order, but
    /// every vertex rebuilds its part connectivity from its whole adjacency,
    /// with no boundary counts, and every pass ends with a full cut scan.
    fn reference_refine(
        g: &CsrGraph,
        part: &mut [u32],
        k: usize,
        opts: &KwayRefineOptions,
    ) -> (Wgt, KwayRefineStats) {
        let n = g.n();
        let mut stats = KwayRefineStats::default();
        let order = random_order(&mut seeded(opts.seed), n);
        let mut pwgts = part_weights(g, part, k);
        let total: Wgt = pwgts.iter().sum();
        let ub = (total as f64 / k as f64 * opts.imbalance).ceil() as Wgt;
        let mut cut = edge_cut_kway(g, part);
        for _ in 0..opts.max_passes.max(1) {
            for &v in &order {
                let v = v as usize;
                let home = part[v] as usize;
                // Destinations in first-adjacent order, so equal keys go to
                // the part met first.
                let mut conn = vec![0 as Wgt; k];
                let mut touched = Vec::new();
                for (u, w) in g.adj(v as Vid) {
                    let pu = part[u as usize] as usize;
                    if !touched.contains(&pu) {
                        touched.push(pu);
                    }
                    conn[pu] += w;
                }
                if touched.iter().all(|&t| t == home) {
                    continue;
                }
                stats.proposals += 1;
                let vw = g.vwgt()[v];
                let mut best: Option<(Wgt, Wgt, usize)> = None;
                for &t in &touched {
                    if t == home || pwgts[t] + vw > ub {
                        continue;
                    }
                    let gain = conn[t] - conn[home];
                    let legal = gain > 0 || (gain == 0 && pwgts[t] < pwgts[home]);
                    if legal && best.is_none_or(|(bg, bw, _)| (gain, -pwgts[t]) > (bg, bw)) {
                        best = Some((gain, -pwgts[t], t));
                    }
                }
                if let Some((_, _, t)) = best {
                    pwgts[home] -= vw;
                    pwgts[t] += vw;
                    part[v] = t as u32;
                    stats.moves += 1;
                }
            }
            stats.rounds += 1;
            let after = edge_cut_kway(g, part);
            if after == cut {
                break;
            }
            cut = after;
        }
        (cut, stats)
    }

    #[test]
    fn boundary_only_sweep_matches_full_scan_oracle() {
        let graphs = [
            ("tri_mesh2d", tri_mesh2d(40, 36, 5)),
            ("powerlaw", powerlaw(1500, 3, 9)),
        ];
        let mut moved = 0;
        for (name, g) in &graphs {
            for k in [2, 7, 32] {
                // A recursive-bisection partition with every 13th label
                // scrambled, so the sweep has interior vertices turning
                // into boundary ones and back.
                let mut start = kway_partition(g, k, &MlConfig::default()).part;
                for (v, p) in start.iter_mut().enumerate() {
                    if v % 13 == 0 {
                        *p = (v * 7 % k) as u32;
                    }
                }
                let opts = KwayRefineOptions {
                    imbalance: 1.05,
                    ..KwayRefineOptions::default()
                };
                let mut want_part = start.clone();
                let (want_cut, want) = reference_refine(g, &mut want_part, k, &opts);
                moved += want.moves;
                let mut part = start.clone();
                let (cut, stats) = kway_refine_stats(g, &mut part, k, &opts, &Trace::disabled());
                assert_eq!(part, want_part, "{name} k={k}");
                assert_eq!(cut, want_cut, "{name} k={k}");
                assert_eq!(stats, want, "{name} k={k}");
            }
        }
        assert!(moved > 0, "the oracle cases made no moves");
    }

    #[test]
    fn sweep_improves_or_preserves_cut() {
        let g = tri_mesh2d(24, 24, 6);
        for k in [4, 8, 16] {
            let base = kway_partition(&g, k, &MlConfig::default());
            let before_imb = imbalance(&g, &base.part, k);
            let mut part = base.part.clone();
            let refined = kway_refine_greedy(&g, &mut part, k, &KwayRefineOptions::default());
            assert!(
                refined <= base.edge_cut,
                "k={k}: {refined} > {}",
                base.edge_cut
            );
            // The sweep never worsens balance beyond its bound or the input.
            let after_imb = imbalance(&g, &part, k);
            assert!(after_imb <= before_imb.max(1.05), "k={k}: {after_imb}");
        }
    }

    #[test]
    fn sweep_repairs_perturbed_partition() {
        // Take a good 4-way partition and scramble 15% of the labels: the
        // sweep must recover most of the damage.
        let g = grid2d(16, 16);
        let good = kway_partition(&g, 4, &MlConfig::default());
        let mut part = good.part.clone();
        let mut rng = mlgp_graph::rng::seeded(5);
        use rand::RngExt;
        for p in part.iter_mut() {
            if rng.random_range(0..100) < 15 {
                *p = rng.random_range(0..4u32);
            }
        }
        let damaged = edge_cut_kway(&g, &part);
        let repaired = kway_refine_greedy(
            &g,
            &mut part,
            4,
            &KwayRefineOptions {
                imbalance: 1.10,
                ..KwayRefineOptions::default()
            },
        );
        assert!(damaged > good.edge_cut, "perturbation did nothing");
        let recovered = (damaged - repaired) as f64 / (damaged - good.edge_cut) as f64;
        assert!(
            recovered > 0.5,
            "only recovered {recovered:.2} of the damage"
        );
    }

    #[test]
    fn refined_pipeline_beats_or_ties_plain() {
        let g = tet_mesh3d(12, 12, 12, 8);
        let plain = kway_partition(&g, 16, &MlConfig::default());
        let refined = kway_partition_refined(&g, 16, &MlConfig::default());
        assert!(refined.edge_cut <= plain.edge_cut);
        assert!(imbalance(&g, &refined.part, 16) <= 1.05);
    }

    #[test]
    fn never_pushes_a_part_over_its_bound() {
        let g = grid2d(20, 20);
        let base = kway_partition(&g, 5, &MlConfig::default()).part;
        let start_max = {
            let mut pw = [0i64; 5];
            for v in 0..g.n() {
                pw[base[v] as usize] += 1;
            }
            *pw.iter().max().unwrap()
        };
        let mut part = base;
        kway_refine_greedy(
            &g,
            &mut part,
            5,
            &KwayRefineOptions {
                imbalance: 1.01,
                ..KwayRefineOptions::default()
            },
        );
        let mut pw = vec![0i64; 5];
        for v in 0..g.n() {
            pw[part[v] as usize] += 1;
        }
        // No part may grow past max(bound, its starting weight): the sweep
        // only ever moves INTO parts below the bound.
        let ub = (80.0 * 1.01f64).ceil() as i64;
        assert!(pw.iter().all(|&w| w <= ub.max(start_max)), "{pw:?}");
    }

    #[test]
    fn trivial_cases() {
        let g = grid2d(4, 4);
        let mut part = vec![0u32; 16];
        assert_eq!(
            kway_refine_greedy(&g, &mut part, 1, &KwayRefineOptions::default()),
            0
        );
        assert_eq!(boundary_count(&g, &part), 0);
    }

    #[test]
    fn deterministic() {
        let g = tri_mesh2d(15, 15, 2);
        let run = || {
            let mut part = kway_partition(&g, 8, &MlConfig::default()).part;
            kway_refine_greedy(&g, &mut part, 8, &KwayRefineOptions::default());
            part
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sweep_event_matches_the_returned_stats_and_cut() {
        let g = tri_mesh2d(18, 18, 4);
        let mut part = kway_partition(&g, 6, &MlConfig::default()).part;
        // Perturb so the sweep has real work.
        for (i, p) in part.iter_mut().enumerate() {
            if i % 17 == 0 {
                *p = (i % 6) as u32;
            }
        }
        let trace = Trace::enabled();
        let before = edge_cut_kway(&g, &part);
        let (cut, stats) =
            kway_refine_stats(&g, &mut part, 6, &KwayRefineOptions::default(), &trace);
        assert!(stats.moves > 0, "the perturbed partition made no moves");
        assert_eq!(cut, edge_cut_kway(&g, &part));
        let events = trace.events();
        let sweeps: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, Event::KwaySweep { .. }))
            .collect();
        let [Event::KwaySweep {
            passes,
            moves,
            cut_before,
            cut_after,
        }] = sweeps[..]
        else {
            panic!("want one sweep summary event, got {}", sweeps.len());
        };
        assert_eq!(*passes, stats.rounds);
        assert_eq!(*moves, stats.moves);
        assert_eq!(*cut_before, before);
        assert_eq!(*cut_after, cut);
    }
}
