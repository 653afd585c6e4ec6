//! Rayleigh-quotient iteration (RQI) for refining an approximate Fiedler
//! vector.
//!
//! This is the workhorse of multilevel spectral bisection (Barnard-Simon):
//! the Fiedler vector of a coarse graph, interpolated onto the next finer
//! graph, is already a good approximation; a few RQI steps — each an
//! indefinite solve `(L − ρI) y = x` done with MINRES — converge it
//! cubically to the fine graph's Fiedler pair.

use crate::laplacian::{Laplacian, Shifted, SymOp};
use crate::minres::{minres, MinresOptions};
use crate::vecops::{axpy, deflate_constant, norm, normalize};

/// Options for [`rqi_refine`].
#[derive(Clone, Copy, Debug)]
pub struct RqiOptions {
    /// Maximum RQI (outer) iterations.
    pub max_outer: usize,
    /// MINRES iteration cap per outer step.
    pub inner_iters: usize,
    /// Convergence: `‖Lx − ρx‖ ≤ tol · max_degree`.
    pub tol: f64,
}

impl Default for RqiOptions {
    fn default() -> Self {
        Self {
            max_outer: 10,
            inner_iters: 60,
            tol: 1e-6,
        }
    }
}

/// Result of RQI refinement.
#[derive(Clone, Debug)]
pub struct RqiResult {
    /// Refined eigenvalue estimate (Rayleigh quotient).
    pub lambda: f64,
    /// Refined unit eigenvector, orthogonal to constants.
    pub vector: Vec<f64>,
    /// Final eigen-residual `‖Lx − ρx‖`.
    pub residual: f64,
    /// Outer iterations performed.
    pub outer_iters: usize,
}

/// Refine `x0` toward the Fiedler pair of `lap`.
pub fn rqi_refine(lap: &Laplacian<'_>, x0: &[f64], opts: &RqiOptions) -> RqiResult {
    let n = lap.dim();
    assert_eq!(x0.len(), n);
    let mut x = x0.to_vec();
    deflate_constant(&mut x);
    if normalize(&mut x) == 0.0 {
        // Nothing to refine from; use a ramp.
        x = (0..n).map(|i| i as f64).collect();
        deflate_constant(&mut x);
        normalize(&mut x);
    }
    let scale = lap.spectral_upper_bound().max(1.0);
    let mut rho = lap.rayleigh(&x);
    let mut lx = vec![0.0; n];
    let mut outer = 0;
    let mut residual = f64::INFINITY;
    for it in 0..opts.max_outer {
        outer = it;
        lap.apply(&x, &mut lx);
        let mut r = lx.clone();
        axpy(-rho, &x, &mut r);
        residual = norm(&r);
        if residual <= opts.tol * scale {
            break;
        }
        let shifted = Shifted {
            op: lap,
            sigma: rho,
        };
        let solve = minres(
            &shifted,
            &x,
            &MinresOptions {
                max_iters: opts.inner_iters,
                tol: 1e-10,
                deflate: true,
            },
        );
        let mut y = solve.x;
        deflate_constant(&mut y);
        if normalize(&mut y) == 0.0 {
            break; // solver collapsed; keep current pair
        }
        x = y;
        rho = lap.rayleigh(&x);
        outer = it + 1;
    }
    // Final residual for the reported pair.
    lap.apply(&x, &mut lx);
    let mut r = lx;
    axpy(-rho, &x, &mut r);
    residual = residual.min(norm(&r));
    RqiResult {
        lambda: rho,
        vector: x,
        residual,
        outer_iters: outer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::fiedler_dense;
    use mlgp_graph::generators::{grid2d, tri_mesh2d};

    #[test]
    fn refines_noisy_fiedler_to_exact() {
        let g = grid2d(10, 4); // rectangular => simple lambda2
        let lap = Laplacian::new(&g);
        let (l2, f) = fiedler_dense(&g);
        // Perturb the true vector.
        let noisy: Vec<f64> = f
            .iter()
            .enumerate()
            .map(|(i, v)| v + 0.1 * ((i * 7 % 11) as f64 - 5.0) / 5.0)
            .collect();
        let r = rqi_refine(&lap, &noisy, &RqiOptions::default());
        assert!((r.lambda - l2).abs() < 1e-6, "{} vs {}", r.lambda, l2);
        assert!(r.residual < 1e-5 * lap.spectral_upper_bound());
    }

    #[test]
    fn converges_from_rough_start_on_mesh() {
        let g = tri_mesh2d(12, 12, 3);
        let lap = Laplacian::new(&g);
        // Linear ramp: decent but unconverged initial guess.
        let x0: Vec<f64> = (0..g.n()).map(|i| (i % 12) as f64).collect();
        let r = rqi_refine(&lap, &x0, &RqiOptions::default());
        assert!(r.lambda > 0.0);
        assert!(
            r.residual < 1e-4 * lap.spectral_upper_bound(),
            "res {}",
            r.residual
        );
        assert!(r.vector.iter().sum::<f64>().abs() < 1e-8);
    }

    #[test]
    fn already_converged_input_exits_immediately() {
        let g = grid2d(8, 3);
        let lap = Laplacian::new(&g);
        let (_, f) = fiedler_dense(&g);
        let r = rqi_refine(&lap, &f, &RqiOptions::default());
        assert_eq!(r.outer_iters, 0);
    }
}
