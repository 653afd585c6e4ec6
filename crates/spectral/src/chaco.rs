//! Chaco-ML analogue: the Hendrickson-Leland multilevel partitioner as
//! described in §4.2 of the paper — random matching during coarsening,
//! spectral bisection of the coarsest graph, and Kernighan-Lin refinement
//! applied **every other** uncoarsening level.

use mlgp_graph::{CsrGraph, Wgt};
use mlgp_part::initpart::initial_partition;
use mlgp_part::kway::recursive_kway_with;
use mlgp_part::refine::fm::BalanceTargets;
use mlgp_part::refine::{refine_level, BisectState};
use mlgp_part::{coarsen, InitialPartitioning, MatchingScheme, MlConfig, RefinementPolicy};

/// Coarsening stops at this many vertices.
const COARSEN_TO: usize = 100;
/// Allowed imbalance.
const IMBALANCE: f64 = 1.03;

/// Chaco-ML bisection with explicit weight targets; `seed` drives the
/// random matchings. Every kernel is serial; the bisection is
/// bit-identical under any pool.
pub fn chaco_ml_bisect_targets(g: &CsrGraph, seed: u64, target: [Wgt; 2]) -> Vec<u8> {
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    let ml = MlConfig {
        matching: MatchingScheme::Random,
        initial: InitialPartitioning::Spectral,
        refinement: RefinementPolicy::KernighanLin,
        coarsen_to: COARSEN_TO,
        imbalance: IMBALANCE,
        seed,
        ..MlConfig::default()
    };
    let bt = BalanceTargets::new(target, IMBALANCE);
    let mut rng = mlgp_graph::rng::seeded(seed);
    let h = coarsen(g, &ml, &mut rng);
    // Spectral bisection of the coarsest graph.
    let mut part = initial_partition(
        h.coarsest(),
        &bt,
        InitialPartitioning::Spectral,
        1,
        &mut rng,
    );
    {
        let mut state = BisectState::new(h.coarsest(), part);
        refine_level(&mut state, &bt, RefinementPolicy::KernighanLin, &ml, n);
        part = state.part;
    }
    // Uncoarsen; KL every other level, but always at the finest level so
    // the final partition is locally optimal (as Chaco does).
    for level in (0..h.levels() - 1).rev() {
        let fine_part = h.project(level, &part);
        let depth_from_coarsest = h.levels() - 1 - level;
        let mut state = BisectState::new(&h.graphs[level], fine_part);
        if depth_from_coarsest.is_multiple_of(2) || level == 0 {
            refine_level(&mut state, &bt, RefinementPolicy::KernighanLin, &ml, n);
        }
        part = state.part;
    }
    part
}

/// Chaco-ML bisection into equal halves. Returns `(part, cut)`.
pub fn chaco_ml_bisect(g: &CsrGraph, seed: u64) -> (Vec<u8>, Wgt) {
    let total = g.total_vwgt();
    let part = chaco_ml_bisect_targets(g, seed, [total / 2, total - total / 2]);
    let cut = mlgp_part::edge_cut_bisection(g, &part);
    (part, cut)
}

/// k-way Chaco-ML by recursive bisection; each bisection's seed is
/// `seed + salt`.
pub fn chaco_ml_kway(g: &CsrGraph, k: usize, seed: u64) -> Vec<u32> {
    recursive_kway_with(g, k, &|sub: &CsrGraph, _, targets, salt| {
        chaco_ml_bisect_targets(sub, seed.wrapping_add(salt), targets)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgp_graph::generators::{grid2d, tri_mesh2d};
    use mlgp_part::metrics::{edge_cut_kway, imbalance, part_weights};

    #[test]
    fn bisects_grid_sanely() {
        let g = grid2d(24, 24);
        let (part, cut) = chaco_ml_bisect(&g, 1919);
        let pw = [
            part.iter().filter(|&&p| p == 0).count() as Wgt,
            part.iter().filter(|&&p| p == 1).count() as Wgt,
        ];
        let bt = BalanceTargets::even(g.total_vwgt(), 1.05);
        assert!(bt.balanced(pw), "{pw:?}");
        assert!(cut <= 40, "cut {cut}");
    }

    #[test]
    fn kway_balanced_on_mesh() {
        let g = tri_mesh2d(18, 18, 2);
        let part = chaco_ml_kway(&g, 4, 1919);
        let w = part_weights(&g, &part, 4);
        assert!(w.iter().all(|&x| x > 0), "{w:?}");
        assert!(imbalance(&g, &part, 4) < 1.15);
        assert!(edge_cut_kway(&g, &part) > 0);
    }

    #[test]
    fn deterministic() {
        let g = grid2d(16, 16);
        let a = chaco_ml_bisect(&g, 1919);
        let b = chaco_ml_bisect(&g, 1919);
        assert_eq!(a, b);
    }
}
