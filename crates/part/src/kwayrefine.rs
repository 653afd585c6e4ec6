//! Direct k-way refinement — the extension the paper's conclusion points
//! toward (and which became the k-way refinement of the authors' follow-up
//! work): instead of only refining each bisection in isolation, sweep the
//! *final* k-way partition, moving boundary vertices to whichever adjacent
//! part reduces the cut most, under the balance constraint.
//!
//! # Round-based kernel (determinism contract)
//!
//! The sweep runs as synchronized *propose/commit rounds*, the structure
//! of a local-max matching handshake:
//!
//! 1. **Propose** — every boundary vertex computes its best legal move
//!    against a *frozen* snapshot of the partition and part weights:
//!    maximal connectivity gain, ties toward the lighter part,
//!    destinations over the balance bound excluded.
//! 2. **Resolve** — a proposer commits only if it beats every proposing
//!    neighbor under the strict key `(gain, seeded rank)` (ranks come from
//!    a seeded random permutation, so the order is total). Winners form an
//!    independent set in the conflict graph, which means no winner's
//!    neighborhood changes this round — every committed gain is *exact*
//!    and the cut never increases.
//! 3. **Commit** — winners are bucketed by destination part in vertex
//!    order; each part accepts its candidates best-first while they fit in
//!    its budget `ub − pwgt`. Rejected and losing vertices simply
//!    re-propose next round against the updated snapshot.
//!
//! The result is a pure function of `(graph, partition, k, options.seed)`,
//! independent of visit order within a phase. The phases run as serial
//! loops; parallelism lives at the recursion forks of the bisections that
//! produce the input. The globally maximal proposer always wins and always
//! fits its (snapshot-legal) budget, so every round with proposals commits
//! at least one move.
//!
//! # Cost: boundary-only proposals
//!
//! Only a boundary vertex can have a legal move, so the kernel keeps, for
//! every vertex, its number of neighbors in other parts, and the propose
//! phase reads the adjacency of boundary vertices only; interior ones just
//! clear their proposal slot. The counts are built once in `O(n + m)` and
//! kept exact by the apply loop, which updates each moved vertex
//! and its neighbors in `O(deg)`. A round then costs `O(n)` plus the
//! adjacency of the boundary and of the proposers' neighbors (resolve),
//! instead of `O(n + m)`; proposals, winners and moves are exactly those
//! of a full scan, which a `#[cfg(test)]` oracle checks.

use crate::config::MlConfig;
use crate::kway::{kway_partition_traced, KwayResult};
use crate::metrics::{edge_cut_kway, part_weights};
use mlgp_graph::rng::{random_order, seeded};
use mlgp_graph::{CsrGraph, Vid, Wgt};
use mlgp_trace::{Event, Trace, SPAN_REFINE};

/// Sentinel for "no proposal this round".
const NONE: u32 = u32::MAX;

/// Options for the round-based k-way sweep.
#[derive(Clone, Copy, Debug)]
pub struct KwayRefineOptions {
    /// Maximum propose/commit rounds.
    pub max_passes: usize,
    /// Per-part weight may not exceed `imbalance ×` the average.
    pub imbalance: f64,
    /// Seed for the rank permutation (the commit tie-breaker).
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

/// Telemetry from one run of the round-based k-way refinement kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KwayRefineStats {
    /// Propose/commit rounds executed.
    pub rounds: usize,
    /// Move proposals across all rounds.
    pub proposals: usize,
    /// Proposals dropped because an adjacent proposer had a higher
    /// `(gain, rank)` key.
    pub conflicts: usize,
    /// Round winners rejected because their destination's weight budget
    /// was exhausted.
    pub balance_rejects: usize,
    /// Moves committed.
    pub moves: usize,
}

/// Refine a k-way partition in place with the round-based kernel. Returns
/// the resulting edge-cut.
pub fn kway_refine_greedy(
    g: &CsrGraph,
    part: &mut [u32],
    k: usize,
    opts: &KwayRefineOptions,
) -> Wgt {
    kway_refine_greedy_traced(g, part, k, opts, &Trace::disabled())
}

/// [`kway_refine_greedy`] with telemetry: one `kway_round` event per round
/// plus a `kway_sweep` summary and workspace counters.
pub fn kway_refine_greedy_traced(
    g: &CsrGraph,
    part: &mut [u32],
    k: usize,
    opts: &KwayRefineOptions,
    trace: &Trace,
) -> Wgt {
    kway_refine_stats(g, part, k, opts, trace).0
}

/// [`kway_refine_greedy_traced`] returning the kernel telemetry alongside
/// the final cut (used by the scaling bench and the determinism suite).
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
    let cut_before = if trace.is_enabled() {
        edge_cut_kway(g, part)
    } else {
        0
    };
    // Seeded rank permutation: the strict tie-breaker that makes the
    // conflict order total (same role as the matching kernel's ranks).
    let mut rng = seeded(opts.seed);
    let order = random_order(&mut rng, n);
    let mut rank = vec![0u32; n];
    for (i, &v) in order.iter().enumerate() {
        rank[v as usize] = i as u32;
    }
    let mut pwgts = part_weights(g, part, k);
    let total: Wgt = pwgts.iter().sum();
    let avg = total as f64 / k as f64;
    let ub = (avg * opts.imbalance).ceil() as Wgt;

    // Connectivity of the current vertex to each part, reset per vertex
    // via `touched`.
    let mut conn: Vec<Wgt> = vec![0; k];
    let mut touched: Vec<u32> = Vec::with_capacity(16);
    // Proposal slots, rewritten every round: destination and gain.
    let mut prop_to = vec![NONE; n];
    let mut prop_gain: Vec<Wgt> = vec![0; n];
    // Neighbors of each vertex in another part: only boundary vertices
    // (`external > 0`) can propose. The apply loop keeps it current.
    let mut external: Vec<u32> = (0..n)
        .map(|v| {
            let home = part[v];
            g.neighbors(v as Vid)
                .iter()
                .filter(|&&u| part[u as usize] != home)
                .count() as u32
        })
        .collect();

    for round in 0..opts.max_passes.max(1) {
        // Propose: best legal move per boundary vertex against the frozen
        // (part, pwgts) snapshot; interior vertices cannot improve the cut
        // and skip their adjacency.
        let mut proposals = 0usize;
        for v in 0..n {
            prop_to[v] = NONE;
            if external[v] == 0 {
                continue;
            }
            let home = part[v] as usize;
            touched.clear();
            for (u, w) in g.adj(v as Vid) {
                let pu = part[u as usize] as usize;
                if conn[pu] == 0 {
                    touched.push(pu as u32);
                }
                conn[pu] += w;
            }
            let mut best: Option<(Wgt, Wgt, usize)> = None; // (gain, -pwgt, part)
            let vw = g.vwgt()[v];
            let here = conn[home];
            for &t in &touched {
                let t = t as usize;
                if t == home || pwgts[t] + vw > ub {
                    continue;
                }
                let gain = conn[t] - here;
                let key = (gain, -pwgts[t]);
                if (gain > 0 || (gain == 0 && pwgts[t] + vw < pwgts[home]))
                    && best.is_none_or(|(bg, bw, _)| key > (bg, bw))
                {
                    best = Some((gain, -pwgts[t], t));
                }
            }
            for &t in &touched {
                conn[t as usize] = 0;
            }
            if let Some((gain, _, to)) = best {
                prop_gain[v] = gain;
                prop_to[v] = to as u32;
                proposals += 1;
            }
        }
        if proposals == 0 {
            break;
        }
        // Resolve: a proposer wins iff it beats every proposing neighbor
        // under the strict `(gain, rank)` key, so winners are independent
        // and their snapshot gains are exact. Winners are bucketed by
        // destination in vertex order.
        let mut buckets: Vec<Vec<(Vid, Wgt)>> = vec![Vec::new(); k];
        let mut winners_total = 0usize;
        for v in 0..n {
            if prop_to[v] == NONE {
                continue;
            }
            let kv = (prop_gain[v], rank[v]);
            let wins = g.neighbors(v as Vid).iter().all(|&u| {
                prop_to[u as usize] == NONE || (prop_gain[u as usize], rank[u as usize]) <= kv
            });
            if wins {
                buckets[prop_to[v] as usize].push((v as Vid, prop_gain[v]));
                winners_total += 1;
            }
        }
        // Commit: each part accepts best-first while its weight stays
        // within the bound.
        for (p, bucket) in buckets.iter_mut().enumerate() {
            bucket.sort_unstable_by(|&(va, ga), &(vb, gb)| {
                (gb, rank[vb as usize]).cmp(&(ga, rank[va as usize]))
            });
            let mut left = ub - pwgts[p];
            bucket.retain(|&(v, _)| {
                let vw = g.vwgt()[v as usize];
                let fits = vw <= left;
                if fits {
                    left -= vw;
                }
                fits
            });
        }
        // Apply the accepted moves (disjoint vertices), refreshing the
        // boundary counts of each mover and its neighbors.
        let mut moves = 0usize;
        for (p, bucket) in buckets.iter().enumerate() {
            let to = p as u32;
            for &(v, _) in bucket {
                let vw = g.vwgt()[v as usize];
                let from = part[v as usize];
                pwgts[from as usize] -= vw;
                pwgts[p] += vw;
                part[v as usize] = to;
                let mut ext = 0;
                for &u in g.neighbors(v) {
                    let pu = part[u as usize];
                    if pu == from {
                        external[u as usize] += 1;
                    } else if pu == to {
                        external[u as usize] -= 1;
                    }
                    ext += (pu != to) as u32;
                }
                external[v as usize] = ext;
                moves += 1;
            }
        }
        stats.rounds += 1;
        stats.proposals += proposals;
        stats.conflicts += proposals - winners_total;
        stats.balance_rejects += winners_total - moves;
        stats.moves += moves;
        trace.record(|| Event::KwayRound {
            round,
            proposals,
            conflicts: proposals - winners_total,
            balance_rejects: winners_total - moves,
            moves,
        });
        if moves == 0 {
            break;
        }
    }
    if trace.is_enabled() {
        trace.count("kwayref_rounds", stats.rounds as u64);
        trace.count("kwayref_proposals", stats.proposals as u64);
        trace.count("kwayref_conflicts", stats.conflicts as u64);
        trace.count("kwayref_balance_rejects", stats.balance_rejects as u64);
        trace.count("kwayref_moves", stats.moves as u64);
    }
    let cut_after = edge_cut_kway(g, part);
    trace.record(|| Event::KwaySweep {
        passes: stats.rounds,
        moves: stats.moves,
        cut_before,
        cut_after,
    });
    (cut_after, stats)
}

/// [`kway_partition`] followed by the round-based k-way sweep.
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
    r.edge_cut = kway_refine_greedy_traced(g, &mut r.part, k, &opts, trace);
    trace.stop(t, SPAN_REFINE);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kway::kway_partition;
    use crate::metrics::{boundary_count, imbalance};
    use mlgp_graph::generators::{grid2d, powerlaw, tet_mesh3d, tri_mesh2d};

    /// The full-scan kernel the boundary counts replaced, run serially as
    /// an oracle: every round rebuilds every vertex's part connectivity
    /// from its whole adjacency, interior vertices included, and only then
    /// asks whether the vertex is on the boundary.
    fn reference_refine(
        g: &CsrGraph,
        part: &mut [u32],
        k: usize,
        opts: &KwayRefineOptions,
    ) -> (Wgt, KwayRefineStats) {
        let n = g.n();
        let mut stats = KwayRefineStats::default();
        let order = random_order(&mut seeded(opts.seed), n);
        let mut rank = vec![0u32; n];
        for (i, &v) in order.iter().enumerate() {
            rank[v as usize] = i as u32;
        }
        let mut pwgts = part_weights(g, part, k);
        let total: Wgt = pwgts.iter().sum();
        let ub = (total as f64 / k as f64 * opts.imbalance).ceil() as Wgt;
        for _ in 0..opts.max_passes.max(1) {
            // Propose; destinations in first-adjacent order, so equal keys
            // go to the part met first.
            let mut prop: Vec<Option<(Wgt, usize)>> = vec![None; n];
            for (v, slot) in prop.iter_mut().enumerate() {
                let home = part[v] as usize;
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
                let vw = g.vwgt()[v];
                let mut best: Option<(Wgt, Wgt, usize)> = None;
                for &t in &touched {
                    if t == home || pwgts[t] + vw > ub {
                        continue;
                    }
                    let gain = conn[t] - conn[home];
                    let legal = gain > 0 || (gain == 0 && pwgts[t] + vw < pwgts[home]);
                    if legal && best.is_none_or(|(bg, bw, _)| (gain, -pwgts[t]) > (bg, bw)) {
                        best = Some((gain, -pwgts[t], t));
                    }
                }
                *slot = best.map(|(gain, _, t)| (gain, t));
            }
            let proposals = prop.iter().flatten().count();
            if proposals == 0 {
                break;
            }
            // Resolve.
            let key = |v: usize| prop[v].map(|(gain, _)| (gain, rank[v]));
            let winners: Vec<usize> = (0..n)
                .filter(|&v| {
                    key(v).is_some_and(|kv| {
                        g.neighbors(v as Vid)
                            .iter()
                            .all(|&u| key(u as usize) <= Some(kv))
                    })
                })
                .collect();
            // Commit, best first per destination, then apply.
            let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); k];
            for &v in &winners {
                buckets[prop[v].unwrap().1].push(v);
            }
            let mut moves = 0;
            for (p, bucket) in buckets.iter_mut().enumerate() {
                bucket.sort_by_key(|&v| std::cmp::Reverse(key(v)));
                let mut budget = ub - pwgts[p];
                bucket.retain(|&v| {
                    let fits = g.vwgt()[v] <= budget;
                    if fits {
                        budget -= g.vwgt()[v];
                    }
                    fits
                });
            }
            for (p, bucket) in buckets.iter().enumerate() {
                for &v in bucket {
                    pwgts[part[v] as usize] -= g.vwgt()[v];
                    pwgts[p] += g.vwgt()[v];
                    part[v] = p as u32;
                    moves += 1;
                }
            }
            stats.rounds += 1;
            stats.proposals += proposals;
            stats.conflicts += proposals - winners.len();
            stats.balance_rejects += winners.len() - moves;
            stats.moves += moves;
            if moves == 0 {
                break;
            }
        }
        (edge_cut_kway(g, part), stats)
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
    fn winners_are_exact_so_cut_drops_by_committed_gains() {
        // The independence of round winners makes every committed gain
        // exact: the cut after each round equals the cut before minus the
        // sum of committed gains. Verify via the per-round trace events.
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
        let after =
            kway_refine_greedy_traced(&g, &mut part, 6, &KwayRefineOptions::default(), &trace);
        assert!(after <= before);
        let events = trace.events();
        let rounds = events
            .iter()
            .filter(|e| matches!(e, Event::KwayRound { .. }))
            .count();
        assert!(rounds >= 1);
        let Some(Event::KwaySweep { passes, .. }) = events
            .iter()
            .rfind(|e| matches!(e, Event::KwaySweep { .. }))
        else {
            panic!("no sweep summary event");
        };
        assert_eq!(*passes, rounds);
    }
}
