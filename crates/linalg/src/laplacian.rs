//! The graph Laplacian as a matrix-free symmetric operator.
//!
//! Spectral bisection works with `L = D - A` where `A` is the weighted
//! adjacency matrix and `D` the diagonal of weighted degrees. The Fiedler
//! vector is the eigenvector of the second-smallest eigenvalue of `L`.

use mlgp_graph::{CsrGraph, Vid};

/// A symmetric linear operator `y = A x` on `R^n`.
pub trait SymOp {
    /// Dimension of the operator.
    fn dim(&self) -> usize;
    /// Compute `y = A x`. `y` is fully overwritten.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

/// Matrix-free weighted graph Laplacian. The SpMV is one serial pass over
/// the vertex rows.
#[derive(Debug)]
pub struct Laplacian<'a> {
    g: &'a CsrGraph,
    /// Cached weighted degrees (diagonal of `L`).
    deg: Vec<f64>,
}

impl<'a> Laplacian<'a> {
    /// Wrap a graph; precomputes the degree diagonal.
    pub fn new(g: &'a CsrGraph) -> Self {
        let deg = (0..g.n() as Vid)
            .map(|v| g.weighted_degree(v) as f64)
            .collect();
        Self { g, deg }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        self.g
    }

    /// Weighted degree of vertex `v` (the diagonal entry `L[v][v]`).
    pub fn degree(&self, v: Vid) -> f64 {
        self.deg[v as usize]
    }

    /// Upper bound on the spectrum: `max_v 2 * deg(v)` (Gershgorin).
    pub fn spectral_upper_bound(&self) -> f64 {
        2.0 * self.deg.iter().cloned().fold(0.0, f64::max)
    }

    /// Rayleigh quotient `x' L x / x' x`, computed edge-wise for stability:
    /// `x' L x = Σ_{(u,v) ∈ E} w_uv (x_u − x_v)²`. Both reductions use the
    /// deterministic chunked-pairwise tree (`vecops::chunked_reduce`).
    pub fn rayleigh(&self, x: &[f64]) -> f64 {
        let xx = crate::vecops::dot(x, x);
        if xx == 0.0 {
            return 0.0;
        }
        let num = crate::vecops::chunked_reduce(self.g.n(), |lo, hi| {
            let mut acc = 0.0;
            for v in lo as Vid..hi as Vid {
                let xv = x[v as usize];
                for (u, w) in self.g.adj(v) {
                    if u > v {
                        let d = xv - x[u as usize];
                        acc += w as f64 * d * d;
                    }
                }
            }
            acc
        });
        num / xx
    }
}

impl SymOp for Laplacian<'_> {
    fn dim(&self) -> usize {
        self.g.n()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.dim());
        debug_assert_eq!(y.len(), self.dim());
        for v in 0..self.g.n() as Vid {
            let mut acc = self.deg[v as usize] * x[v as usize];
            for (u, w) in self.g.adj(v) {
                acc -= w as f64 * x[u as usize];
            }
            y[v as usize] = acc;
        }
    }
}

/// `A - sigma I` as an operator (for shift-and-invert style iterations).
#[derive(Debug)]
pub struct Shifted<'a, O: SymOp> {
    /// Base operator.
    pub op: &'a O,
    /// Shift subtracted from the diagonal.
    pub sigma: f64,
}

impl<O: SymOp> SymOp for Shifted<'_, O> {
    fn dim(&self) -> usize {
        self.op.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.op.apply(x, y);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi -= self.sigma * xi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgp_graph::GraphBuilder;

    fn path3() -> CsrGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        b.build()
    }

    #[test]
    fn laplacian_annihilates_constants() {
        let g = path3();
        let lap = Laplacian::new(&g);
        let x = vec![1.0; 3];
        let mut y = vec![9.0; 3];
        lap.apply(&x, &mut y);
        assert!(y.iter().all(|v| v.abs() < 1e-15));
    }

    #[test]
    fn laplacian_matches_matrix() {
        // L(path3) = [[1,-1,0],[-1,2,-1],[0,-1,1]]
        let g = path3();
        let lap = Laplacian::new(&g);
        let x = vec![1.0, 2.0, 4.0];
        let mut y = vec![0.0; 3];
        lap.apply(&x, &mut y);
        assert_eq!(y, vec![-1.0, -1.0, 2.0]);
    }

    #[test]
    fn rayleigh_consistent_with_apply() {
        let g = path3();
        let lap = Laplacian::new(&g);
        let x = vec![1.0, -2.0, 0.5];
        let mut y = vec![0.0; 3];
        lap.apply(&x, &mut y);
        let via_apply = crate::vecops::dot(&x, &y) / crate::vecops::dot(&x, &x);
        assert!((lap.rayleigh(&x) - via_apply).abs() < 1e-12);
    }

    #[test]
    fn shifted_operator() {
        let g = path3();
        let lap = Laplacian::new(&g);
        let sh = Shifted {
            op: &lap,
            sigma: 1.0,
        };
        let x = vec![1.0, 0.0, 0.0];
        let mut y = vec![0.0; 3];
        sh.apply(&x, &mut y);
        assert_eq!(y, vec![0.0, -1.0, 0.0]); // (L - I) e0
    }

    #[test]
    fn weighted_degrees() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 5);
        let g = b.build();
        let lap = Laplacian::new(&g);
        assert_eq!(lap.degree(0), 5.0);
        assert_eq!(lap.spectral_upper_bound(), 10.0);
    }
}
