//! Partitioning the coarsest graph (§3.2 of the paper).
//!
//! Three algorithms: GGP (breadth-first graph growing), GGGP (greedy graph
//! growing, picking the frontier vertex that increases the cut least), and
//! spectral bisection. GGP/GGGP run several trials from random seeds and
//! keep the best cut; the paper found GGGP with 5 trials consistently best.
//!
//! ## Trials
//!
//! Each trial `t` owns an independent RNG stream seeded by a SplitMix64 mix
//! of `(base, t)`, where `base` is a **single** `next_u64` draw from the
//! caller's RNG — so the shared RNG advances by exactly one draw regardless
//! of the trial count, and trial `t` produces the same start vertex however
//! many siblings run. The trials run one after another, and the winner is
//! the least under the strict total order *(balanced first, then lower cut,
//! then lower trial index)*. The coarsest graph is small, so the trials
//! stay on the calling thread; parallelism lives at the recursion forks.

use crate::config::InitialPartitioning;
use crate::metrics::edge_cut_bisection;
use crate::refine::fm::BalanceTargets;
use crate::refine::GainQueue;
use mlgp_graph::rng::{mix, seeded};
use mlgp_graph::{CsrGraph, Vid, Wgt};
use mlgp_trace::Trace;
use rand::{Rng, RngExt};
use std::collections::VecDeque;

/// Compute an initial bisection of the (coarse) graph.
///
/// Part 0 is grown to roughly `bt.target[0]` vertex weight. Returns the 0/1
/// partition vector.
pub fn initial_partition<R: Rng>(
    g: &CsrGraph,
    bt: &BalanceTargets,
    scheme: InitialPartitioning,
    trials: usize,
    rng: &mut R,
) -> Vec<u8> {
    initial_partition_traced(g, bt, scheme, trials, rng, 0, &Trace::disabled())
}

/// [`initial_partition`] with telemetry: each growing trial bumps the
/// `init_trial` counter and the spectral scheme records an `eigen` event
/// per Fiedler solve. `_threads` is ignored (the trials run serially), and
/// kept only for callers that still pass one.
pub fn initial_partition_traced<R: Rng>(
    g: &CsrGraph,
    bt: &BalanceTargets,
    scheme: InitialPartitioning,
    trials: usize,
    rng: &mut R,
    _threads: usize,
    trace: &Trace,
) -> Vec<u8> {
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![0];
    }
    // One draw, whatever the trial count: downstream consumers of `rng`
    // see the same stream whether we run 1 trial or 100 (and the spectral
    // scheme burns the draw too, so switching schemes is also neutral).
    let base = rng.next_u64();
    match scheme {
        InitialPartitioning::GraphGrowing => best_of(g, bt, trials, base, trace, grow_bfs),
        InitialPartitioning::GreedyGraphGrowing => best_of(g, bt, trials, base, trace, grow_greedy),
        InitialPartitioning::Spectral => spectral_split(g, bt, trace),
    }
}

/// One evaluated trial: the strict winner key `(balanced, cut, index)`
/// plus the grown partition.
struct Trial {
    balanced: bool,
    cut: Wgt,
    index: usize,
    part: Vec<u8>,
}

impl Trial {
    /// Ascending winner key: balanced sorts first (`!balanced` = false),
    /// then lower cut, then lower trial index.
    fn key(&self) -> (bool, Wgt, usize) {
        (!self.balanced, self.cut, self.index)
    }
}

/// Run `grow` from `trials` independent random starts and keep the winner
/// under the strict (balanced, cut, index) key.
fn best_of(
    g: &CsrGraph,
    bt: &BalanceTargets,
    trials: usize,
    base: u64,
    trace: &Trace,
    grow: fn(&CsrGraph, &BalanceTargets, Vid) -> Vec<u8>,
) -> Vec<u8> {
    let n = g.n();
    let trials = trials.max(1);
    trace.count("init_trial", trials as u64);
    let run_trial = |t: usize| -> Trial {
        // Trial t's own stream: the same SplitMix64 step as `MlConfig::reseed`.
        let mut rng = seeded(mix(base, t as u64 + 1));
        let start = rng.random_range(0..n) as Vid;
        let part = grow(g, bt, start);
        let cut = edge_cut_bisection(g, &part);
        let balanced = bt.balanced(part_weights(g, &part));
        Trial {
            balanced,
            cut,
            index: t,
            part,
        }
    };
    let best = (0..trials).map(run_trial).min_by_key(Trial::key);
    // LINT: allow(panic, trials is clamped to max(1) above, so at least one trial ran)
    best.expect("at least one trial ran").part
}

fn part_weights(g: &CsrGraph, part: &[u8]) -> [Wgt; 2] {
    let mut pw = [0, 0];
    for v in 0..g.n() {
        pw[part[v] as usize] += g.vwgt()[v];
    }
    pw
}

/// GGP: grow part 0 breadth-first from `start` until it reaches its target
/// weight. Disconnected graphs continue from the lowest unvisited vertex.
fn grow_bfs(g: &CsrGraph, bt: &BalanceTargets, start: Vid) -> Vec<u8> {
    let n = g.n();
    let mut part = vec![1u8; n];
    let mut w0 = 0 as Wgt;
    let mut queue = VecDeque::new();
    let mut seen = vec![false; n];
    let mut next_seed = 0 as Vid;
    queue.push_back(start);
    seen[start as usize] = true;
    while w0 < bt.target[0] {
        let v = match queue.pop_front() {
            Some(v) => v,
            None => {
                // Component exhausted; restart from an unvisited vertex.
                while (next_seed as usize) < n && seen[next_seed as usize] {
                    next_seed += 1;
                }
                if next_seed as usize >= n {
                    break;
                }
                seen[next_seed as usize] = true;
                next_seed
            }
        };
        // Do not overshoot the bound by a large vertex unless nothing was
        // added yet.
        if w0 > 0 && w0 + g.vwgt()[v as usize] > bt.ub[0] {
            continue;
        }
        part[v as usize] = 0;
        w0 += g.vwgt()[v as usize];
        for &u in g.neighbors(v) {
            if !seen[u as usize] {
                seen[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    part
}

/// GGGP: grow part 0 from `start`, always absorbing the frontier vertex
/// whose inclusion increases the cut least (equivalently, maximizes
/// `2·conn(u) − wdeg(u)` where `conn` is the weight of edges into the grown
/// region).
fn grow_greedy(g: &CsrGraph, bt: &BalanceTargets, start: Vid) -> Vec<u8> {
    let n = g.n();
    let mut part = vec![1u8; n];
    let mut conn = vec![0 as Wgt; n];
    let mut queue = GainQueue::with_capacity(64);
    let mut w0 = 0 as Wgt;
    let mut next_seed = 0 as Vid;
    // Vertices rejected because they would overshoot the weight bound; they
    // must not be offered again (prevents a reseed livelock).
    let mut banned = vec![false; n];
    let key = |g: &CsrGraph, conn: &[Wgt], u: Vid| 2 * conn[u as usize] - g.weighted_degree(u);
    let absorb =
        |v: Vid, part: &mut Vec<u8>, conn: &mut Vec<Wgt>, queue: &mut GainQueue, w0: &mut Wgt| {
            part[v as usize] = 0;
            *w0 += g.vwgt()[v as usize];
            for (u, w) in g.adj(v) {
                if part[u as usize] == 1 {
                    conn[u as usize] += w;
                    queue.push(u, key(g, conn, u));
                }
            }
        };
    absorb(start, &mut part, &mut conn, &mut queue, &mut w0);
    while w0 < bt.target[0] {
        let popped = queue.pop_valid(|u, k| {
            part[u as usize] == 1 && !banned[u as usize] && key(g, &conn, u) == k
        });
        let v = match popped {
            Some((v, _)) => v,
            None => {
                // Frontier empty (component exhausted): reseed.
                while (next_seed as usize) < n
                    && (part[next_seed as usize] == 0 || banned[next_seed as usize])
                {
                    next_seed += 1;
                }
                if next_seed as usize >= n {
                    break;
                }
                next_seed
            }
        };
        if w0 > 0 && w0 + g.vwgt()[v as usize] > bt.ub[0] {
            banned[v as usize] = true;
            continue;
        }
        absorb(v, &mut part, &mut conn, &mut queue, &mut w0);
    }
    part
}

/// Spectral bisection: split at the weighted median of the Fiedler vector.
fn spectral_split(g: &CsrGraph, bt: &BalanceTargets, trace: &Trace) -> Vec<u8> {
    let (_, fiedler) = mlgp_linalg::fiedler_vector_traced(g, 0x5bec, trace);
    split_by_values(g, &fiedler, bt)
}

/// Assign the vertices with smallest `values` to part 0 until its target
/// weight is met. Shared by spectral initial partitioning and the spectral
/// baselines in `mlgp-spectral`.
pub fn split_by_values(g: &CsrGraph, values: &[f64], bt: &BalanceTargets) -> Vec<u8> {
    let n = g.n();
    assert_eq!(values.len(), n);
    let mut order: Vec<Vid> = (0..n as Vid).collect();
    order.sort_by(|&a, &b| {
        values[a as usize]
            .partial_cmp(&values[b as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut part = vec![1u8; n];
    let mut w0 = 0;
    for &v in &order {
        if w0 >= bt.target[0] {
            break;
        }
        part[v as usize] = 0;
        w0 += g.vwgt()[v as usize];
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::imbalance;
    use mlgp_graph::generators::{grid2d, tri_mesh2d};
    use mlgp_graph::rng::seeded;

    fn check_scheme(g: &CsrGraph, scheme: InitialPartitioning) -> (Wgt, [Wgt; 2]) {
        let bt = BalanceTargets::even(g.total_vwgt(), 1.05);
        let mut rng = seeded(42);
        let part = initial_partition(g, &bt, scheme, scheme.default_trials(), &mut rng);
        let cut = edge_cut_bisection(g, &part);
        let pw = part_weights(g, &part);
        assert!(cut > 0, "{scheme:?}: zero cut on connected graph");
        assert!(bt.balanced(pw), "{scheme:?}: imbalanced {pw:?}");
        (cut, pw)
    }

    #[test]
    fn all_schemes_balanced_on_grid() {
        let g = grid2d(12, 12);
        for scheme in InitialPartitioning::all() {
            check_scheme(&g, scheme);
        }
    }

    #[test]
    fn all_schemes_balanced_on_mesh() {
        let g = tri_mesh2d(13, 11, 4);
        for scheme in InitialPartitioning::all() {
            check_scheme(&g, scheme);
        }
    }

    #[test]
    fn gggp_beats_or_matches_ggp_on_average() {
        // Accumulate cuts over seeds: GGGP should not lose to plain BFS
        // growing in aggregate (the paper's observation).
        let g = grid2d(16, 16);
        let bt = BalanceTargets::even(g.total_vwgt(), 1.05);
        let mut total = [0 as Wgt; 2];
        for seed in 0..8 {
            let mut rng = seeded(seed);
            let ggp = initial_partition(&g, &bt, InitialPartitioning::GraphGrowing, 10, &mut rng);
            let mut rng = seeded(seed);
            let gggp = initial_partition(
                &g,
                &bt,
                InitialPartitioning::GreedyGraphGrowing,
                5,
                &mut rng,
            );
            total[0] += edge_cut_bisection(&g, &ggp);
            total[1] += edge_cut_bisection(&g, &gggp);
        }
        assert!(
            total[1] <= total[0],
            "GGGP {} vs GGP {}",
            total[1],
            total[0]
        );
    }

    #[test]
    fn spectral_finds_natural_split() {
        // Grid 20x10: spectral should cut close to the short dimension (10).
        let g = grid2d(20, 10);
        let bt = BalanceTargets::even(g.total_vwgt(), 1.03);
        let part = spectral_split(&g, &bt, &Trace::disabled());
        let cut = edge_cut_bisection(&g, &part);
        assert!(cut <= 14, "spectral cut {cut}");
    }

    #[test]
    fn respects_uneven_targets() {
        let g = grid2d(10, 10);
        let bt = BalanceTargets::new([25, 75], 1.05);
        let mut rng = seeded(7);
        for scheme in InitialPartitioning::all() {
            let part = initial_partition(&g, &bt, scheme, scheme.default_trials(), &mut rng);
            let pw = part_weights(&g, &part);
            assert!(
                (25..=27).contains(&pw[0]),
                "{scheme:?}: part0 weight {} target 25",
                pw[0]
            );
        }
    }

    #[test]
    fn downstream_rng_state_independent_of_trial_count() {
        // The shared RNG must advance by exactly one draw no matter how
        // many trials run (or which scheme runs): the next draw after the
        // call must be identical across trial counts.
        let g = grid2d(12, 12);
        let bt = BalanceTargets::even(g.total_vwgt(), 1.05);
        let mut draws = Vec::new();
        for (scheme, trials) in [
            (InitialPartitioning::GraphGrowing, 1),
            (InitialPartitioning::GraphGrowing, 5),
            (InitialPartitioning::GraphGrowing, 17),
            (InitialPartitioning::GreedyGraphGrowing, 1),
            (InitialPartitioning::GreedyGraphGrowing, 9),
            (InitialPartitioning::Spectral, 1),
        ] {
            let mut rng = seeded(0xfeed);
            let _ = initial_partition(&g, &bt, scheme, trials, &mut rng);
            draws.push(rng.next_u64());
        }
        assert!(
            draws.windows(2).all(|w| w[0] == w[1]),
            "downstream draws differ across trial counts/schemes: {draws:?}"
        );
    }

    #[test]
    fn trial_fanout_thread_invariant() {
        // The winner must be bit-identical at every pool size.
        let g = tri_mesh2d(14, 14, 6);
        let bt = BalanceTargets::even(g.total_vwgt(), 1.05);
        for scheme in [
            InitialPartitioning::GraphGrowing,
            InitialPartitioning::GreedyGraphGrowing,
        ] {
            let run = |threads: usize| {
                let mut rng = seeded(0xabcd);
                mlgp_linalg::with_fanout(threads, || {
                    initial_partition(&g, &bt, scheme, 7, &mut rng)
                })
            };
            let reference = run(1);
            for threads in [2usize, 3, 8] {
                assert_eq!(run(threads), reference, "{scheme:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn trial_results_independent_of_sibling_count() {
        // Trial t draws from its own stream: the trial-0 result must be
        // the same whether it runs alone or alongside 9 siblings. With a
        // single trial the winner IS trial 0; with 10 trials the winner
        // can only improve (strict key).
        let g = grid2d(14, 14);
        let bt = BalanceTargets::even(g.total_vwgt(), 1.05);
        let cut_of = |trials: usize| {
            let mut rng = seeded(99);
            let p = initial_partition(
                &g,
                &bt,
                InitialPartitioning::GreedyGraphGrowing,
                trials,
                &mut rng,
            );
            edge_cut_bisection(&g, &p)
        };
        assert!(cut_of(10) <= cut_of(1), "more trials must not hurt");
    }

    #[test]
    fn tiny_graphs() {
        let g = grid2d(2, 1);
        let bt = BalanceTargets::even(2, 1.0);
        let mut rng = seeded(1);
        for scheme in InitialPartitioning::all() {
            let part = initial_partition(&g, &bt, scheme, 1, &mut rng);
            assert_eq!(part.len(), 2);
            let pw = part_weights(&g, &part);
            assert_eq!(pw, [1, 1], "{scheme:?}");
        }
        let _ = imbalance(&g, &[0, 1], 2);
    }
}
