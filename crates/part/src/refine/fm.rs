//! The KL/FM refinement engine and the five refinement policies of §3.3.
//!
//! One *pass* repeatedly moves the highest-gain vertex from the overweight
//! side (single-vertex moves with immediate gain updates, as in
//! Fiduccia-Mattheyses), stops after `x` consecutive non-improving moves
//! (the paper uses `x = 50`), and rolls back to the best prefix. Policies
//! differ only in (a) whether the queues are seeded with *all* vertices
//! (GR/KLR) or just the boundary (BGR/BKLR), and (b) whether passes repeat
//! to convergence (KLR/BKLR) or run once (GR/BGR). BKLGR picks BKLR or BGR
//! per level from the boundary size.

use super::queue::GainQueue;
use super::state::BisectState;
use crate::config::{MlConfig, RefinementPolicy};
use mlgp_graph::{Vid, Wgt};

/// Balance targets for a (possibly uneven) bisection.
#[derive(Clone, Copy, Debug)]
pub struct BalanceTargets {
    /// Ideal weight per side.
    pub target: [Wgt; 2],
    /// Hard upper bound per side (`⌈imbalance × target⌉`, at least
    /// `target + 1` so unit-weight graphs always have slack).
    pub ub: [Wgt; 2],
}

impl BalanceTargets {
    /// Build targets from ideal weights and a relative imbalance factor.
    pub fn new(target: [Wgt; 2], imbalance: f64) -> Self {
        let ub = [
            ((target[0] as f64 * imbalance).ceil() as Wgt).max(target[0] + 1),
            ((target[1] as f64 * imbalance).ceil() as Wgt).max(target[1] + 1),
        ];
        Self { target, ub }
    }

    /// Even split of `total` with the given imbalance.
    pub fn even(total: Wgt, imbalance: f64) -> Self {
        let half = total / 2;
        Self::new([half, total - half], imbalance)
    }

    /// Whether the given side weights satisfy both upper bounds.
    #[inline]
    pub fn balanced(&self, pwgts: [Wgt; 2]) -> bool {
        pwgts[0] <= self.ub[0] && pwgts[1] <= self.ub[1]
    }
}

/// Statistics of a single KL/FM pass (see [`fm_pass_stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct PassStats {
    /// Whether the pass improved the cut or repaired the balance.
    pub improved: bool,
    /// Moves kept after rolling back to the best prefix.
    pub moves: usize,
    /// Moves undone by the rollback.
    pub rollbacks: usize,
    /// Whether the pass ended via the `early_exit_moves` counter (as
    /// opposed to exhausting all movable vertices).
    pub early_exit: bool,
}

/// Aggregated refinement statistics for one uncoarsening level (summed
/// over the passes [`refine_level_stats`] executes).
#[derive(Clone, Copy, Debug, Default)]
pub struct RefineStats {
    /// KL/FM passes executed.
    pub passes: usize,
    /// Total committed moves.
    pub moves: usize,
    /// Total rolled-back moves.
    pub rollbacks: usize,
    /// Passes that ended through the early-exit counter. Reported in
    /// traces as the `early_exit_triggers` counter (the canonical name —
    /// see `MlConfig::early_exit_moves`).
    pub early_exit_triggers: usize,
}

impl RefineStats {
    fn absorb(&mut self, p: PassStats) {
        self.passes += 1;
        self.moves += p.moves;
        self.rollbacks += p.rollbacks;
        self.early_exit_triggers += p.early_exit as usize;
    }
}

/// One KL/FM pass. Returns `true` if the pass improved the cut or repaired
/// the balance.
pub fn fm_pass(
    state: &mut BisectState<'_>,
    bt: &BalanceTargets,
    boundary_only: bool,
    early_exit_moves: usize,
) -> bool {
    fm_pass_stats(state, bt, boundary_only, early_exit_moves).improved
}

/// [`fm_pass`] with full per-pass statistics.
pub fn fm_pass_stats(
    state: &mut BisectState<'_>,
    bt: &BalanceTargets,
    boundary_only: bool,
    early_exit_moves: usize,
) -> PassStats {
    let g = state.graph();
    let n = g.n();
    let start_cut = state.cut;
    let start_balanced = bt.balanced(state.pwgts);
    // `locked` marks vertices that may no longer move in this pass: already
    // moved, or rejected for balance.
    let mut locked = vec![false; n];
    let mut queues = [GainQueue::with_capacity(64), GainQueue::with_capacity(64)];
    // The eligible set is in ascending vertex order, which fixes the order
    // the queues fill in.
    for v in state.movable_vertices(boundary_only) {
        queues[state.part[v as usize] as usize].push(v, state.gain(v));
    }
    let mut log: Vec<Vid> = Vec::new();
    let mut best = (start_balanced, start_cut);
    let mut best_len = 0usize;
    let mut bad = 0usize;
    let mut exited_early = false;
    loop {
        // Prefer to drain the side with the larger excess over its target.
        let excess0 = state.pwgts[0] - bt.target[0];
        let excess1 = state.pwgts[1] - bt.target[1];
        let order = if excess0 >= excess1 {
            [0usize, 1]
        } else {
            [1, 0]
        };
        let mut picked: Option<Vid> = None;
        'pick: for &side in &order {
            loop {
                let popped = queues[side].pop_valid(|v, gain| {
                    !locked[v as usize]
                        && state.part[v as usize] == side as u8
                        && state.gain(v) == gain
                });
                let Some((v, _)) = popped else { break };
                let to = 1 - side;
                let vw = g.vwgt()[v as usize];
                // A move is legal if the destination stays under its bound,
                // or if the source is itself overweight (balance repair).
                if state.pwgts[to] + vw <= bt.ub[to] || state.pwgts[side] > bt.ub[side] {
                    picked = Some(v);
                    break 'pick;
                }
                locked[v as usize] = true;
            }
        }
        let Some(v) = picked else { break };
        locked[v as usize] = true;
        state.move_vertex(v);
        log.push(v);
        for (u, _) in g.adj(v) {
            if !locked[u as usize] && (!boundary_only || state.is_boundary(u)) {
                queues[state.part[u as usize] as usize].push(u, state.gain(u));
            }
        }
        let now_balanced = bt.balanced(state.pwgts);
        let better = (now_balanced && !best.0) || (now_balanced == best.0 && state.cut < best.1);
        if better {
            best = (now_balanced, state.cut);
            best_len = log.len();
            bad = 0;
        } else {
            bad += 1;
            if bad >= early_exit_moves {
                exited_early = true;
                break;
            }
        }
    }
    // Roll back to the best prefix.
    for &v in log[best_len..].iter().rev() {
        state.move_vertex(v);
    }
    debug_assert_eq!(state.cut, best.1);
    PassStats {
        improved: best.1 < start_cut || (best.0 && !start_balanced),
        moves: best_len,
        rollbacks: log.len() - best_len,
        early_exit: exited_early,
    }
}

/// Cap on KLR/BKLR passes; convergence almost always happens far sooner,
/// this only guards against pathological oscillation.
const MAX_PASSES: usize = 16;

/// Apply a refinement policy to the current level.
///
/// `orig_n` is the vertex count of the *original* (finest) graph, used by
/// the BKLGR switch (paper: BKLR while the boundary is under 2% of the
/// original size, BGR otherwise).
pub fn refine_level(
    state: &mut BisectState<'_>,
    bt: &BalanceTargets,
    policy: RefinementPolicy,
    cfg: &MlConfig,
    orig_n: usize,
) {
    refine_level_stats(state, bt, policy, cfg, orig_n);
}

/// [`refine_level`] with aggregated pass statistics for telemetry.
pub fn refine_level_stats(
    state: &mut BisectState<'_>,
    bt: &BalanceTargets,
    policy: RefinementPolicy,
    cfg: &MlConfig,
    orig_n: usize,
) -> RefineStats {
    fn once(
        state: &mut BisectState<'_>,
        bt: &BalanceTargets,
        stats: &mut RefineStats,
        boundary: bool,
        x: usize,
    ) -> bool {
        let p = fm_pass_stats(state, bt, boundary, x);
        stats.absorb(p);
        p.improved
    }
    fn converge(
        state: &mut BisectState<'_>,
        bt: &BalanceTargets,
        stats: &mut RefineStats,
        boundary: bool,
        x: usize,
    ) {
        for _ in 0..MAX_PASSES {
            if !once(state, bt, stats, boundary, x) {
                break;
            }
        }
    }
    let x = cfg.early_exit_moves.max(1);
    let mut stats = RefineStats::default();
    match policy {
        RefinementPolicy::None => {}
        RefinementPolicy::Greedy => {
            once(state, bt, &mut stats, false, x);
        }
        RefinementPolicy::KernighanLin => converge(state, bt, &mut stats, false, x),
        RefinementPolicy::BoundaryGreedy => {
            once(state, bt, &mut stats, true, x);
        }
        RefinementPolicy::BoundaryKernighanLin => converge(state, bt, &mut stats, true, x),
        RefinementPolicy::BoundaryKlGreedyHybrid => {
            let threshold = (cfg.hybrid_boundary_frac * orig_n as f64) as usize;
            if state.boundary_count() < threshold.max(1) {
                converge(state, bt, &mut stats, true, x);
            } else {
                once(state, bt, &mut stats, true, x);
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgp_graph::generators::{grid2d, tri_mesh2d};
    use mlgp_graph::rng::seeded;
    use rand::RngExt;

    fn random_partition(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = seeded(seed);
        // Balanced random split.
        let mut part = vec![0u8; n];
        for p in part.iter_mut().skip(n / 2) {
            *p = 1;
        }
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            part.swap(i, j);
        }
        part
    }

    #[test]
    fn pass_improves_random_partition_on_grid() {
        let g = grid2d(16, 16);
        let part = random_partition(g.n(), 3);
        let mut s = BisectState::new(&g, part);
        let before = s.cut;
        let bt = BalanceTargets::even(g.total_vwgt(), 1.03);
        let improved = fm_pass(&mut s, &bt, false, 50);
        assert!(improved);
        assert!(s.cut < before, "{} -> {}", before, s.cut);
        assert!(s.consistent());
        assert!(bt.balanced(s.pwgts));
    }

    #[test]
    fn boundary_pass_improves_too() {
        let g = tri_mesh2d(14, 14, 9);
        let part = random_partition(g.n(), 5);
        let mut s = BisectState::new(&g, part);
        let before = s.cut;
        let bt = BalanceTargets::even(g.total_vwgt(), 1.03);
        fm_pass(&mut s, &bt, true, 50);
        assert!(s.cut < before);
        assert!(s.consistent());
    }

    #[test]
    fn klr_converges_to_good_cut_on_grid() {
        // An 8x8 grid has an optimal bisection of 8; KLR from random should
        // land near it (allow slack, KL is a local method).
        let g = grid2d(8, 8);
        let mut s = BisectState::new(&g, random_partition(64, 7));
        let bt = BalanceTargets::even(64, 1.03);
        let cfg = MlConfig::default();
        refine_level(&mut s, &bt, RefinementPolicy::KernighanLin, &cfg, 64);
        // KL from a random start is a local method (the paper's motivation
        // for going multilevel): accept anything within ~3x of optimal.
        assert!(s.cut <= 24, "cut {}", s.cut);
        assert!(bt.balanced(s.pwgts));
        assert!(s.consistent());
    }

    #[test]
    fn repairs_imbalance() {
        // Start with everything on side 0: refinement must rebalance.
        let g = grid2d(10, 10);
        let mut s = BisectState::new(&g, vec![0; 100]);
        let bt = BalanceTargets::even(100, 1.03);
        let cfg = MlConfig::default();
        refine_level(&mut s, &bt, RefinementPolicy::KernighanLin, &cfg, 100);
        assert!(bt.balanced(s.pwgts), "pwgts {:?}", s.pwgts);
        assert!(s.consistent());
    }

    #[test]
    fn rollback_restores_consistency() {
        // With early_exit = 1 the pass aborts quickly and must roll back to
        // a consistent best prefix.
        let g = grid2d(9, 9);
        let mut s = BisectState::new(&g, random_partition(81, 11));
        let bt = BalanceTargets::even(81, 1.05);
        let cut_before = s.cut;
        fm_pass(&mut s, &bt, false, 1);
        assert!(s.consistent());
        assert!(s.cut <= cut_before);
    }

    #[test]
    fn perfect_partition_is_stable() {
        // Optimal vertical split of a grid: no policy should worsen it.
        let g = grid2d(12, 6);
        let part: Vec<u8> = (0..72).map(|i| if i % 12 < 6 { 0 } else { 1 }).collect();
        let bt = BalanceTargets::even(72, 1.03);
        let cfg = MlConfig::default();
        for policy in RefinementPolicy::evaluated() {
            let mut s = BisectState::new(&g, part.clone());
            refine_level(&mut s, &bt, policy, &cfg, 72);
            assert!(s.cut <= 6, "{policy:?} worsened cut to {}", s.cut);
            assert!(bt.balanced(s.pwgts), "{policy:?}");
        }
    }

    #[test]
    fn none_policy_is_identity() {
        let g = grid2d(6, 6);
        let part = random_partition(36, 2);
        let mut s = BisectState::new(&g, part.clone());
        let cfg = MlConfig::default();
        let bt = BalanceTargets::even(36, 1.03);
        refine_level(&mut s, &bt, RefinementPolicy::None, &cfg, 36);
        assert_eq!(s.part, part);
    }

    #[test]
    fn respects_hard_balance_bound() {
        let g = grid2d(10, 4);
        let mut s = BisectState::new(&g, random_partition(40, 13));
        let bt = BalanceTargets::even(40, 1.03);
        let cfg = MlConfig::default();
        for policy in RefinementPolicy::evaluated() {
            refine_level(&mut s, &bt, policy, &cfg, 40);
            assert!(
                bt.balanced(s.pwgts),
                "{policy:?} violated balance: {:?}",
                s.pwgts
            );
        }
    }
}
