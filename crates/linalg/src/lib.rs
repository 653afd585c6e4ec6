//! # mlgp-linalg
//!
//! Numerical substrate for the spectral partitioning methods in the ICPP'95
//! reproduction: matrix-free graph Laplacians, a dense Jacobi eigensolver
//! (coarsest graphs), Lanczos with full reorthogonalization (Fiedler pairs
//! from scratch), MINRES for symmetric indefinite solves, and
//! Rayleigh-quotient iteration (multilevel Fiedler refinement à la
//! Barnard-Simon).
//!
//! ```
//! // lambda_2 of the path P_n is 2(1 - cos(pi/n)).
//! let g = mlgp_graph::generators::grid2d(16, 1);
//! let (l2, v) = mlgp_linalg::fiedler_vector(&g, 7);
//! let expect = 2.0 * (1.0 - (std::f64::consts::PI / 16.0).cos());
//! assert!((l2 - expect).abs() < 1e-6);
//! assert_eq!(v.len(), 16);
//! ```

pub mod dense;
pub mod lanczos;
pub mod laplacian;
pub mod minres;
pub mod rqi;
pub mod vecops;

pub use dense::{fiedler_dense, jacobi_eigen, DenseSym, EigenDecomposition};
pub use lanczos::{lanczos_fiedler, lanczos_fiedler_with_start, LanczosOptions, LanczosResult};
pub use laplacian::{Laplacian, Shifted, SymOp};
pub use minres::{minres, MinresOptions, MinresResult};
pub use rqi::{rqi_refine, RqiOptions, RqiResult};
pub use vecops::{chunked_reduce, with_fanout, REDUCTION_CHUNK};

use mlgp_graph::CsrGraph;
use mlgp_trace::{Event, Trace};

/// [`lanczos_fiedler`] recording an `eigen` event (solver `"lanczos"`,
/// matvec count, final residual) and an `eigen_matvec` counter on `trace`.
pub fn lanczos_fiedler_traced<O: SymOp>(
    op: &O,
    opts: &LanczosOptions,
    trace: &Trace,
) -> LanczosResult {
    let r = lanczos_fiedler(op, opts);
    trace.record(|| Event::Eigen {
        solver: "lanczos",
        n: op.dim(),
        iters: r.matvecs,
        residual: r.residual,
    });
    trace.count("eigen_matvec", r.matvecs as u64);
    r
}

/// [`minres`] recording an `eigen` event (solver `"minres"`, Krylov steps,
/// final residual) and an `eigen_matvec` counter (one SpMV per step) on
/// `trace`.
pub fn minres_traced<O: SymOp>(
    op: &O,
    b: &[f64],
    opts: &MinresOptions,
    trace: &Trace,
) -> MinresResult {
    let r = minres(op, b, opts);
    trace.record(|| Event::Eigen {
        solver: "minres",
        n: op.dim(),
        iters: r.iters,
        residual: r.residual,
    });
    trace.count("eigen_matvec", r.iters as u64);
    r
}

/// [`rqi_refine`] recording an `eigen` event (solver `"rqi"`, outer
/// iterations, final eigen-residual) on `trace`, plus the operator-level
/// `spmv_calls`/`spmv_rows` deltas (RQI's matvecs hide inside the inner
/// MINRES solves, so the Laplacian's own tally is the honest count).
pub fn rqi_refine_traced(
    lap: &Laplacian<'_>,
    x0: &[f64],
    opts: &RqiOptions,
    trace: &Trace,
) -> RqiResult {
    let (calls0, rows0) = (lap.spmv_calls(), lap.spmv_rows());
    let r = rqi_refine(lap, x0, opts);
    trace.record(|| Event::Eigen {
        solver: "rqi",
        n: lap.dim(),
        iters: r.outer_iters,
        residual: r.residual,
    });
    trace.count("eigen_matvec", lap.spmv_calls() - calls0);
    trace.count("spmv_calls", lap.spmv_calls() - calls0);
    trace.count("spmv_rows", lap.spmv_rows() - rows0);
    r
}

/// Size threshold below which the dense Jacobi path is used for Fiedler
/// vectors; above it, Lanczos.
pub const DENSE_FIEDLER_LIMIT: usize = 320;

/// Compute `(λ₂, fiedler vector)` of a connected graph, dispatching between
/// the dense and iterative solvers by size.
pub fn fiedler_vector(g: &CsrGraph, seed: u64) -> (f64, Vec<f64>) {
    fiedler_vector_traced(g, seed, &Trace::disabled())
}

/// [`fiedler_vector`] recording an `eigen` event per solve (the dense path
/// reports solver `"dense-jacobi"` with zero iterations and residual — it
/// is direct to machine precision; the Lanczos path additionally records
/// `spmv_calls` / `spmv_rows` counters from the Laplacian's SpMV tally).
pub fn fiedler_vector_traced(g: &CsrGraph, seed: u64, trace: &Trace) -> (f64, Vec<f64>) {
    assert!(g.n() >= 2);
    if g.n() <= DENSE_FIEDLER_LIMIT {
        let (lambda, vector) = fiedler_dense(g);
        trace.record(|| Event::Eigen {
            solver: "dense-jacobi",
            n: g.n(),
            iters: 0,
            residual: 0.0,
        });
        (lambda, vector)
    } else {
        let lap = Laplacian::new(g);
        let r = lanczos_fiedler_traced(
            &lap,
            &LanczosOptions {
                seed,
                ..LanczosOptions::default()
            },
            trace,
        );
        trace.count("spmv_calls", lap.spmv_calls());
        trace.count("spmv_rows", lap.spmv_rows());
        (r.lambda, r.vector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgp_graph::generators::grid2d;

    #[test]
    fn dispatch_agrees_across_threshold() {
        // 18x18 = 324 > limit forces Lanczos; 17x17 = 289 uses dense.
        let small = grid2d(17, 17);
        let large = grid2d(18, 18);
        let (l_small, _) = fiedler_vector(&small, 1);
        let (l_large, _) = fiedler_vector(&large, 1);
        // λ₂ of an n×n grid is 2(1 − cos(π/n)).
        let expect = |n: f64| 2.0 * (1.0 - (std::f64::consts::PI / n).cos());
        assert!((l_small - expect(17.0)).abs() < 1e-5, "{l_small}");
        assert!((l_large - expect(18.0)).abs() < 1e-4, "{l_large}");
    }
}
