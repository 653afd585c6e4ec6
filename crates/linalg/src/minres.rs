//! MINRES: Krylov solver for symmetric (possibly indefinite) systems.
//!
//! The Rayleigh-quotient iteration that refines interpolated Fiedler vectors
//! during multilevel spectral bisection must solve `(L − σI) y = x` with σ
//! inside the spectrum — an indefinite system. Chaco used SYMMLQ for this;
//! MINRES is the sibling Paige-Saunders method for the same problem class
//! and serves the identical role here (see DESIGN.md §2).

use crate::laplacian::SymOp;
use crate::vecops::{axpy, deflate_constant, dot, norm};

/// Options for [`minres`].
#[derive(Clone, Copy, Debug)]
pub struct MinresOptions {
    /// Iteration cap.
    pub max_iters: usize,
    /// Relative residual tolerance `‖b − Ax‖ ≤ tol·‖b‖`.
    pub tol: f64,
    /// Project every iterate off the constant vector. Required when solving
    /// shifted Laplacian systems restricted to the non-constant subspace.
    pub deflate: bool,
}

impl Default for MinresOptions {
    fn default() -> Self {
        Self {
            max_iters: 100,
            tol: 1e-8,
            deflate: false,
        }
    }
}

/// Result of a MINRES solve.
#[derive(Clone, Debug)]
pub struct MinresResult {
    /// Approximate solution.
    pub x: Vec<f64>,
    /// Final (recurrence) residual norm estimate.
    pub residual: f64,
    /// Iterations performed.
    pub iters: usize,
}

/// Solve `A x = b` for symmetric `A`.
pub fn minres<O: SymOp>(op: &O, b: &[f64], opts: &MinresOptions) -> MinresResult {
    let n = op.dim();
    assert_eq!(b.len(), n);
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    if opts.deflate {
        deflate_constant(&mut r);
    }
    let beta1 = norm(&r);
    if beta1 == 0.0 {
        return MinresResult {
            x,
            residual: 0.0,
            iters: 0,
        };
    }
    let mut v_prev = vec![0.0; n];
    let mut v: Vec<f64> = r.iter().map(|ri| ri / beta1).collect();
    let mut d = vec![0.0; n];
    let mut d_old = vec![0.0; n];
    let mut w = vec![0.0; n];
    let (mut c_old, mut c) = (1.0, 1.0);
    let (mut s_old, mut s) = (0.0, 0.0);
    let mut eta = beta1;
    let mut beta = beta1;
    let mut iters = 0;
    for k in 1..=opts.max_iters {
        iters = k;
        // Lanczos step.
        op.apply(&v, &mut w);
        if opts.deflate {
            deflate_constant(&mut w);
        }
        axpy(-beta, &v_prev, &mut w);
        let alpha = dot(&w, &v);
        axpy(-alpha, &v, &mut w);
        let beta_new = norm(&w);
        // Apply the two previous Givens rotations to the new column
        // [beta, alpha, beta_new] of T.
        let r1 = c * alpha - c_old * s * beta;
        let gamma = (r1 * r1 + beta_new * beta_new).sqrt().max(1e-300);
        let r2 = s * alpha + c_old * c * beta;
        let r3 = s_old * beta;
        let c_new = r1 / gamma;
        let s_new = beta_new / gamma;
        // Update the search direction and the solution.
        let mut d_new = v.clone();
        axpy(-r3, &d_old, &mut d_new);
        axpy(-r2, &d, &mut d_new);
        for di in &mut d_new {
            *di /= gamma;
        }
        axpy(c_new * eta, &d_new, &mut x);
        eta *= -s_new;
        // Shift state.
        std::mem::swap(&mut v_prev, &mut v);
        // w / beta_new becomes the next Lanczos vector.
        if beta_new > 0.0 {
            for (vi, wi) in v.iter_mut().zip(&w) {
                *vi = wi / beta_new;
            }
        }
        d_old = std::mem::replace(&mut d, d_new);
        c_old = c;
        c = c_new;
        s_old = s;
        s = s_new;
        beta = beta_new;
        if eta.abs() <= opts.tol * beta1 || beta_new < 1e-300 {
            break;
        }
    }
    if opts.deflate {
        deflate_constant(&mut x);
    }
    MinresResult {
        x,
        residual: eta.abs(),
        iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::{Laplacian, Shifted};
    use mlgp_graph::generators::grid2d;
    use mlgp_graph::GraphBuilder;

    /// Dense symmetric operator for testing.
    struct DenseOp {
        n: usize,
        a: Vec<f64>,
    }
    impl SymOp for DenseOp {
        fn dim(&self) -> usize {
            self.n
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            for (i, yi) in y.iter_mut().enumerate() {
                *yi = (0..self.n).map(|j| self.a[i * self.n + j] * x[j]).sum();
            }
        }
    }

    #[test]
    fn solves_spd_system() {
        // A = [[4,1],[1,3]], b = [1,2] => x = [1/11, 7/11]
        let op = DenseOp {
            n: 2,
            a: vec![4.0, 1.0, 1.0, 3.0],
        };
        let r = minres(&op, &[1.0, 2.0], &MinresOptions::default());
        assert!((r.x[0] - 1.0 / 11.0).abs() < 1e-8, "{:?}", r.x);
        assert!((r.x[1] - 7.0 / 11.0).abs() < 1e-8);
    }

    #[test]
    fn solves_indefinite_system() {
        // A = diag(2, -1): indefinite; b = [2, 3] => x = [1, -3].
        let op = DenseOp {
            n: 2,
            a: vec![2.0, 0.0, 0.0, -1.0],
        };
        let r = minres(&op, &[2.0, 3.0], &MinresOptions::default());
        assert!((r.x[0] - 1.0).abs() < 1e-8);
        assert!((r.x[1] + 3.0).abs() < 1e-8);
    }

    #[test]
    fn zero_rhs() {
        let op = DenseOp {
            n: 2,
            a: vec![1.0, 0.0, 0.0, 1.0],
        };
        let r = minres(&op, &[0.0, 0.0], &MinresOptions::default());
        assert_eq!(r.x, vec![0.0, 0.0]);
        assert_eq!(r.iters, 0);
    }

    #[test]
    fn shifted_laplacian_solve_in_deflated_subspace() {
        // Solve (L - sigma I) y = b with b ⟂ 1, sigma between 0 and λ2:
        // the restricted operator is definite and the solve must succeed.
        let g = grid2d(5, 4);
        let lap = Laplacian::new(&g);
        let sh = Shifted {
            op: &lap,
            sigma: 0.05,
        };
        let mut b: Vec<f64> = (0..g.n()).map(|i| (i as f64).sin()).collect();
        deflate_constant(&mut b);
        let r = minres(
            &sh,
            &b,
            &MinresOptions {
                max_iters: 500,
                tol: 1e-10,
                deflate: true,
            },
        );
        // Check true residual within the subspace.
        let mut ax = vec![0.0; g.n()];
        sh.apply(&r.x, &mut ax);
        deflate_constant(&mut ax);
        let mut res = ax;
        for (ri, bi) in res.iter_mut().zip(&b) {
            *ri -= bi;
        }
        assert!(norm(&res) < 1e-6 * norm(&b), "residual {}", norm(&res));
    }

    #[test]
    fn handles_path_graph_laplacian_shift() {
        let mut bld = GraphBuilder::new(3);
        bld.add_edge(0, 1).add_edge(1, 2);
        let g = bld.build();
        let lap = Laplacian::new(&g);
        let sh = Shifted {
            op: &lap,
            sigma: 0.5,
        };
        let mut b = vec![1.0, 0.0, -1.0];
        deflate_constant(&mut b);
        let r = minres(
            &sh,
            &b,
            &MinresOptions {
                deflate: true,
                ..Default::default()
            },
        );
        assert!(r.residual < 1e-6);
    }
}
