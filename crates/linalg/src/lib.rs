//! # mlgp-linalg
//!
//! Numerical substrate for the spectral partitioning methods in the ICPP'95
//! reproduction: matrix-free graph Laplacians, a dense Jacobi eigensolver,
//! Lanczos with full reorthogonalization, MINRES for symmetric indefinite
//! solves, and Rayleigh-quotient iteration (multilevel Fiedler refinement
//! à la Barnard-Simon).
//!
//! [`fiedler_vector`] is the one place that picks a solver for a graph's
//! Fiedler pair: dense Jacobi up to [`DENSE_FIEDLER_LIMIT`] vertices,
//! Lanczos above.
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

/// Size threshold below which the dense Jacobi path is used for Fiedler
/// vectors; above it, Lanczos.
pub const DENSE_FIEDLER_LIMIT: usize = 320;

/// Compute `(λ₂, fiedler vector)` of a connected graph, dispatching between
/// the dense and iterative solvers by size.
pub fn fiedler_vector(g: &CsrGraph, seed: u64) -> (f64, Vec<f64>) {
    fiedler_vector_traced(g, seed, &Trace::disabled())
}

/// [`fiedler_vector`] recording one `eigen` event per solve. The dense
/// path reports solver `"dense-jacobi"` with zero iterations and residual
/// (it is direct to machine precision). The Lanczos path reports its
/// matvecs and final residual, and counts them as `eigen_matvec`,
/// `spmv_calls` and `spmv_rows` (one SpMV over all `n` rows per matvec).
pub fn fiedler_vector_traced(g: &CsrGraph, seed: u64, trace: &Trace) -> (f64, Vec<f64>) {
    let n = g.n();
    assert!(n >= 2);
    if n <= DENSE_FIEDLER_LIMIT {
        trace.record(|| Event::Eigen {
            solver: "dense-jacobi",
            n,
            iters: 0,
            residual: 0.0,
        });
        return fiedler_dense(g);
    }
    let opts = LanczosOptions {
        seed,
        ..LanczosOptions::default()
    };
    let r = lanczos_fiedler(&Laplacian::new(g), &opts);
    trace.record(|| Event::Eigen {
        solver: "lanczos",
        n,
        iters: r.matvecs,
        residual: r.residual,
    });
    let matvecs = r.matvecs as u64;
    trace.count("eigen_matvec", matvecs);
    trace.count("spmv_calls", matvecs);
    trace.count("spmv_rows", matvecs * n as u64);
    (r.lambda, r.vector)
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

    #[test]
    fn traced_solve_records_one_eigen_event_and_matching_spmv_counters() {
        for (g, solver) in [(grid2d(5, 4), "dense-jacobi"), (grid2d(18, 18), "lanczos")] {
            let trace = Trace::enabled();
            fiedler_vector_traced(&g, 3, &trace);
            let events = trace.events();
            assert_eq!(events.len(), 1, "{events:?}");
            let Event::Eigen {
                solver: s,
                n,
                iters,
                ..
            } = events[0]
            else {
                panic!("not an eigen event: {events:?}");
            };
            assert_eq!((s, n), (solver, g.n()));
            let matvecs = trace.counter("eigen_matvec");
            assert_eq!(matvecs, iters as u64);
            assert_eq!(trace.counter("spmv_calls"), matvecs);
            assert_eq!(trace.counter("spmv_rows"), matvecs * g.n() as u64);
            assert_eq!(matvecs > 0, solver == "lanczos");
        }
    }
}
