//! Multilevel Spectral Bisection (MSB) à la Barnard-Simon, and its
//! KL-refined variant MSB-KL — the main baselines of §4.2.
//!
//! MSB computes the Fiedler vector *multilevel*: coarsen with random
//! matching to a small graph, solve the eigenproblem there, then
//! interpolate the vector level by level, refining it at each level with
//! Rayleigh-quotient iteration (indefinite solves via MINRES — the role
//! SYMMLQ plays in Chaco). The bisection is the weighted-median split of
//! the resulting vector. MSB-KL additionally runs Kernighan-Lin on the
//! final partition.

use mlgp_graph::{CsrGraph, Wgt};
use mlgp_linalg::{
    fiedler_vector, lanczos_fiedler_with_start, rqi_refine, LanczosOptions, Laplacian, RqiOptions,
};
use mlgp_part::initpart::split_by_values;
use mlgp_part::kway::recursive_kway_with;
use mlgp_part::refine::fm::BalanceTargets;
use mlgp_part::refine::{refine_level, BisectState};
use mlgp_part::{coarsen, Hierarchy, MatchingScheme, MlConfig, RefinementPolicy};

/// RM coarsening stops at this many vertices.
const COARSEN_TO: usize = 100;
/// Balance bound of MSB-KL's KL pass (the median split stops at its target).
const IMBALANCE: f64 = 1.03;
/// RQI settings used at every uncoarsening level.
const RQI: RqiOptions = RqiOptions {
    max_outer: 6,
    inner_iters: 50,
    tol: 1e-5,
};

/// Compute the Fiedler vector of `g` with the multilevel algorithm
/// (coarsest-level [`fiedler_vector`] solve + per-level interpolation and
/// RQI refinement). The coarsest solve is size-dispatched because RM
/// coarsening can stall far above `COARSEN_TO` on irregular graphs.
/// Every kernel is serial, and the float reductions have a fixed shape, so
/// the vector is bit-identical under any pool (see `mlgp_linalg::vecops`).
/// `seed` drives the random matchings and the coarsest solve.
pub fn msb_fiedler(g: &CsrGraph, seed: u64) -> Vec<f64> {
    assert!(g.n() >= 2);
    let h = rm_hierarchy(g, seed);
    let coarsest = h.coarsest();
    let mut x = if coarsest.n() >= 2 {
        fiedler_vector(coarsest, seed).1
    } else {
        vec![0.0; coarsest.n()]
    };
    // Interpolate and refine up the hierarchy.
    for level in (0..h.levels() - 1).rev() {
        let cmap = &h.cmaps[level];
        let fine = &h.graphs[level];
        let interp: Vec<f64> = cmap.iter().map(|&c| x[c as usize]).collect();
        x = refine_fiedler(fine, &interp, seed);
    }
    // If no coarsening happened, refine the solution of g itself.
    if h.levels() == 1 && g.n() > 2 {
        let x0 = x.clone();
        x = refine_fiedler(g, &x0, seed);
    }
    x
}

/// RM coarsening, reusing the partitioner's coarsening machinery.
fn rm_hierarchy(g: &CsrGraph, seed: u64) -> Hierarchy {
    let ml = MlConfig {
        matching: MatchingScheme::Random,
        coarsen_to: COARSEN_TO,
        seed,
        ..MlConfig::default()
    };
    coarsen(g, &ml, &mut mlgp_graph::rng::seeded(seed))
}

/// Refine an interpolated Fiedler approximation on one level: RQI first
/// (cheap, cubic near the answer), falling back to warm-started Lanczos
/// when RQI stalls or locks onto a higher eigenpair — RQI converges to the
/// eigenvalue *nearest* its starting Rayleigh quotient, which after a crude
/// piecewise-constant interpolation is not always λ₂.
fn refine_fiedler(fine: &CsrGraph, interp: &[f64], seed: u64) -> Vec<f64> {
    let lap = Laplacian::new(fine);
    let rho_interp = lap.rayleigh(interp);
    let r = rqi_refine(&lap, interp, &RQI);
    let converged = r.residual <= 10.0 * RQI.tol * lap.spectral_upper_bound();
    let not_escaped = r.lambda <= rho_interp * 1.05 + 1e-12;
    if converged && not_escaped {
        return r.vector;
    }
    lanczos_fiedler_with_start(
        &lap,
        interp,
        &LanczosOptions {
            max_steps: 60,
            max_restarts: 4,
            tol: 1e-6,
            seed,
        },
    )
    .vector
}

/// MSB bisection with explicit weight targets.
pub fn msb_bisect_targets(g: &CsrGraph, seed: u64, target: [Wgt; 2]) -> Vec<u8> {
    let bt = BalanceTargets::new(target, IMBALANCE);
    let f = msb_fiedler(g, seed);
    split_by_values(g, &f, &bt)
}

/// MSB bisection into equal halves. Returns `(part, cut)`.
pub fn msb_bisect(g: &CsrGraph, seed: u64) -> (Vec<u8>, Wgt) {
    let total = g.total_vwgt();
    let part = msb_bisect_targets(g, seed, [total / 2, total - total / 2]);
    let cut = mlgp_part::edge_cut_bisection(g, &part);
    (part, cut)
}

/// MSB-KL bisection: MSB followed by Kernighan-Lin refinement of the final
/// partition.
pub fn msb_kl_bisect_targets(g: &CsrGraph, seed: u64, target: [Wgt; 2]) -> Vec<u8> {
    let part = msb_bisect_targets(g, seed, target);
    let bt = BalanceTargets::new(target, IMBALANCE);
    let mut state = BisectState::new(g, part);
    let ml = MlConfig::default();
    refine_level(&mut state, &bt, RefinementPolicy::KernighanLin, &ml, g.n());
    state.part
}

/// k-way MSB by recursive bisection; each bisection's seed is
/// `seed + salt`.
pub fn msb_kway(g: &CsrGraph, k: usize, seed: u64) -> Vec<u32> {
    recursive_kway_with(g, k, &|sub: &CsrGraph, _, targets, salt| {
        msb_bisect_targets(sub, seed.wrapping_add(salt), targets)
    })
}

/// k-way MSB-KL by recursive bisection; each bisection's seed is
/// `seed + salt`.
pub fn msb_kl_kway(g: &CsrGraph, k: usize, seed: u64) -> Vec<u32> {
    recursive_kway_with(g, k, &|sub: &CsrGraph, _, targets, salt| {
        msb_kl_bisect_targets(sub, seed.wrapping_add(salt), targets)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgp_graph::generators::{grid2d, tri_mesh2d};
    use mlgp_part::metrics::{edge_cut_kway, imbalance, part_weights};

    #[test]
    fn msb_fiedler_close_to_true_on_medium_grid() {
        // 24x12 grid: λ2 = 2(1 - cos(pi/24)), simple. Check the Rayleigh
        // quotient of the multilevel vector approaches it.
        let g = grid2d(24, 12);
        let f = msb_fiedler(&g, 777);
        let lap = Laplacian::new(&g);
        let rho = lap.rayleigh(&f);
        let l2 = 2.0 * (1.0 - (std::f64::consts::PI / 24.0).cos());
        assert!((rho - l2).abs() < 0.05 * l2.max(1e-3), "rho {rho} vs {l2}");
    }

    #[test]
    fn msb_fiedler_solves_a_stalled_rm_hierarchy_with_lanczos() {
        // RM coarsening of this power-law circuit stalls far above
        // `coarsen_to`, so the coarsest solve takes the Lanczos path.
        let g = mlgp_graph::generators::entry("S38")
            .unwrap()
            .generate_scaled(0.2);
        let coarsest = rm_hierarchy(&g, 777).coarsest().n();
        assert!(coarsest > mlgp_linalg::DENSE_FIEDLER_LIMIT, "{coarsest}");
        let f = msb_fiedler(&g, 777);
        assert_eq!(f.len(), g.n());
        let norm = f.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
        assert!(f.iter().sum::<f64>().abs() < 1e-8);
        // A unit vector orthogonal to constants has Rayleigh quotient ≥ λ₂.
        // The per-level refinement stops at RQI tolerance or a capped
        // Lanczos, and lands about 10% above λ₂ here (0.556 vs 0.504), so
        // the bound is 15%.
        let rho = Laplacian::new(&g).rayleigh(&f);
        let (l2, _) = fiedler_vector(&g, 777);
        assert!(
            rho > l2 * (1.0 - 1e-6) && rho < 1.15 * l2,
            "rho {rho} vs {l2}"
        );
    }

    #[test]
    fn msb_bisects_grid_sanely() {
        let g = grid2d(24, 24);
        let (part, cut) = msb_bisect(&g, 777);
        let bt = BalanceTargets::even(g.total_vwgt(), 1.05);
        let pw = [
            part.iter().filter(|&&p| p == 0).count() as Wgt,
            part.iter().filter(|&&p| p == 1).count() as Wgt,
        ];
        assert!(bt.balanced(pw), "{pw:?}");
        // Optimal is 24; spectral median on a square grid should be close.
        assert!(cut <= 40, "cut {cut}");
    }

    #[test]
    fn msb_kl_never_worse_than_msb() {
        let g = tri_mesh2d(20, 20, 5);
        let (_, msb_cut) = msb_bisect(&g, 777);
        let total = g.total_vwgt();
        let part = msb_kl_bisect_targets(&g, 777, [total / 2, total - total / 2]);
        let kl_cut = mlgp_part::edge_cut_bisection(&g, &part);
        assert!(kl_cut <= msb_cut, "KL {kl_cut} vs MSB {msb_cut}");
    }

    #[test]
    fn msb_kway_produces_balanced_parts() {
        let g = grid2d(20, 20);
        let part = msb_kway(&g, 4, 777);
        let w = part_weights(&g, &part, 4);
        assert!(w.iter().all(|&x| x > 0), "{w:?}");
        assert!(imbalance(&g, &part, 4) < 1.12);
        assert!(edge_cut_kway(&g, &part) > 0);
    }
}
