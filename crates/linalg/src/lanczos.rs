//! Lanczos iteration for the Fiedler (second-smallest) eigenpair of a graph
//! Laplacian.
//!
//! Full reorthogonalization is used — the coarse graphs this runs on are
//! small (spectral initial partitioning) or the run is explicitly the
//! expensive baseline (spectral nested dissection), so robustness beats
//! memory here. The Laplacian null space (constant vector) is deflated
//! explicitly, making the smallest Ritz value approximate λ₂.

use crate::dense::{jacobi_eigen, DenseSym};
use crate::laplacian::SymOp;
use crate::vecops::{axpy, deflate_constant, dot, normalize};
use mlgp_graph::rng::seeded;
use rand::RngExt;

/// Options for [`lanczos_fiedler`].
#[derive(Clone, Copy, Debug)]
pub struct LanczosOptions {
    /// Maximum Krylov dimension per restart cycle.
    pub max_steps: usize,
    /// Maximum number of restart cycles.
    pub max_restarts: usize,
    /// Relative residual tolerance `‖Lx − λx‖ ≤ tol·‖L‖`.
    pub tol: f64,
    /// RNG seed for the start vector.
    pub seed: u64,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        Self {
            max_steps: 100,
            max_restarts: 8,
            tol: 1e-7,
            seed: 0x1a2c,
        }
    }
}

/// Result of a Lanczos run.
#[derive(Clone, Debug)]
pub struct LanczosResult {
    /// Approximate second-smallest eigenvalue λ₂.
    pub lambda: f64,
    /// Unit eigenvector approximation (orthogonal to constants).
    pub vector: Vec<f64>,
    /// Final residual estimate `‖Lx − λx‖`.
    pub residual: f64,
    /// Total matrix-vector products performed.
    pub matvecs: usize,
}

/// Compute the Fiedler pair of `op` (a graph Laplacian or any symmetric
/// positive semidefinite operator whose null space is the constant vector).
///
/// All float reductions use the deterministic chunked-pairwise tree in
/// `vecops`, so the result is a pure function of the inputs.
pub fn lanczos_fiedler<O: SymOp>(op: &O, opts: &LanczosOptions) -> LanczosResult {
    lanczos_fiedler_impl(op, opts, None)
}

/// [`lanczos_fiedler`] warm-started from an approximate eigenvector (e.g.
/// a Fiedler vector interpolated from a coarser graph): the start vector
/// seeds the Krylov space, so a good approximation converges in few steps.
pub fn lanczos_fiedler_with_start<O: SymOp>(
    op: &O,
    start: &[f64],
    opts: &LanczosOptions,
) -> LanczosResult {
    lanczos_fiedler_impl(op, opts, Some(start))
}

fn lanczos_fiedler_impl<O: SymOp>(
    op: &O,
    opts: &LanczosOptions,
    start: Option<&[f64]>,
) -> LanczosResult {
    let n = op.dim();
    assert!(n >= 2, "operator too small for a Fiedler pair");
    let mut x: Vec<f64> = match start {
        Some(s) => {
            assert_eq!(s.len(), n, "start vector dimension mismatch");
            s.to_vec()
        }
        None => {
            let mut rng = seeded(opts.seed);
            (0..n).map(|_| rng.random_range(-1.0..1.0)).collect()
        }
    };
    deflate_constant(&mut x);
    if normalize(&mut x) == 0.0 {
        // Degenerate start; fall back to a ramp.
        x = (0..n).map(|i| i as f64).collect();
        deflate_constant(&mut x);
        normalize(&mut x);
    }
    let mut matvecs = 0usize;
    // Operator scale for the relative tolerance.
    let mut scratch = vec![0.0; n];
    op.apply(&x, &mut scratch);
    matvecs += 1;
    let op_scale = crate::vecops::norm(&scratch).max(1.0);

    let mut best = LanczosResult {
        lambda: f64::INFINITY,
        vector: x.clone(),
        residual: f64::INFINITY,
        matvecs: 0,
    };

    for _restart in 0..opts.max_restarts.max(1) {
        let steps = opts.max_steps.min(n.saturating_sub(1)).max(1);
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(steps);
        let mut alphas: Vec<f64> = Vec::with_capacity(steps);
        let mut betas: Vec<f64> = Vec::with_capacity(steps);
        let mut v = x.clone();
        let mut w = vec![0.0; n];
        let mut beta_next = 0.0;
        for j in 0..steps {
            basis.push(v.clone());
            op.apply(&v, &mut w);
            matvecs += 1;
            let alpha = dot(&w, &v);
            alphas.push(alpha);
            axpy(-alpha, &v, &mut w);
            if j > 0 {
                let beta_prev = betas[j - 1];
                axpy(-beta_prev, &basis[j - 1], &mut w);
            }
            // Full reorthogonalization (twice is enough) + null-space
            // deflation.
            for _ in 0..2 {
                deflate_constant(&mut w);
                for q in &basis {
                    let c = dot(&w, q);
                    axpy(-c, q, &mut w);
                }
            }
            beta_next = normalize(&mut w);
            if beta_next < 1e-13 * op_scale {
                // Invariant subspace found; T is exact.
                break;
            }
            betas.push(beta_next);
            std::mem::swap(&mut v, &mut w);
        }
        let m = alphas.len();
        // Eigen-decompose the tridiagonal projection.
        let mut t = DenseSym::zeros(m);
        for i in 0..m {
            t.set_sym(i, i, alphas[i]);
            if i + 1 < m {
                t.set_sym(i, i + 1, betas[i]);
            }
        }
        let e = jacobi_eigen(&t);
        let s = &e.vectors[0];
        let lambda = e.values[0];
        // Ritz vector y = V s.
        let mut y = vec![0.0; n];
        for (q, &coef) in basis.iter().zip(s.iter()) {
            axpy(coef, q, &mut y);
        }
        deflate_constant(&mut y);
        normalize(&mut y);
        // Residual: either the cheap bound |beta_m * s_m| or exact.
        let cheap = if m < basis.len() + 1 && betas.len() >= m {
            (betas[m - 1] * s[m - 1]).abs()
        } else {
            (beta_next * s[m - 1]).abs()
        };
        let result = LanczosResult {
            lambda,
            vector: y.clone(),
            residual: cheap,
            matvecs,
        };
        if result.residual < best.residual || best.residual.is_infinite() {
            best = result;
        }
        if best.residual <= opts.tol * op_scale {
            break;
        }
        // Restart from the best Ritz vector.
        x = y;
    }
    // Report the exact residual of the returned pair.
    let mut lx = vec![0.0; n];
    op.apply(&best.vector, &mut lx);
    matvecs += 1;
    axpy(-best.lambda, &best.vector, &mut lx);
    best.residual = crate::vecops::norm(&lx);
    best.matvecs = matvecs;
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::fiedler_dense;
    use crate::laplacian::Laplacian;
    use mlgp_graph::generators::{grid2d, lshape};
    use mlgp_graph::GraphBuilder;

    #[test]
    fn matches_dense_on_path() {
        let mut b = GraphBuilder::new(10);
        for i in 0..9 {
            b.add_edge(i, i + 1);
        }
        let g = b.build();
        let lap = Laplacian::new(&g);
        let r = lanczos_fiedler(&lap, &LanczosOptions::default());
        let (l2, _) = fiedler_dense(&g);
        assert!((r.lambda - l2).abs() < 1e-6, "{} vs {}", r.lambda, l2);
        assert!(r.residual < 1e-5);
    }

    #[test]
    fn matches_dense_on_grid() {
        let g = grid2d(8, 8);
        let lap = Laplacian::new(&g);
        let r = lanczos_fiedler(&lap, &LanczosOptions::default());
        let (l2, dense_vec) = fiedler_dense(&g);
        assert!((r.lambda - l2).abs() < 1e-5, "{} vs {}", r.lambda, l2);
        // Vectors agree up to sign (λ₂ of the square grid is degenerate in
        // general; 8x8 grid has λ₂ simple? For nx==ny it is double.) Only
        // check the eigen-residual instead.
        let mut lx = vec![0.0; g.n()];
        lap.apply(&r.vector, &mut lx);
        axpy(-r.lambda, &r.vector, &mut lx);
        assert!(crate::vecops::norm(&lx) < 1e-5);
        let _ = dense_vec;
    }

    #[test]
    fn works_on_larger_irregular_graph() {
        let g = lshape(24);
        let lap = Laplacian::new(&g);
        let r = lanczos_fiedler(&lap, &LanczosOptions::default());
        assert!(
            r.lambda > 1e-6,
            "lambda2 must be positive on connected graph"
        );
        assert!(r.residual < 1e-4 * lap.spectral_upper_bound());
        // Orthogonal to constants.
        assert!(r.vector.iter().sum::<f64>().abs() < 1e-8);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid2d(6, 5);
        let lap = Laplacian::new(&g);
        let a = lanczos_fiedler(&lap, &LanczosOptions::default());
        let b = lanczos_fiedler(&lap, &LanczosOptions::default());
        assert_eq!(a.lambda, b.lambda);
        assert_eq!(a.vector, b.vector);
    }
}
