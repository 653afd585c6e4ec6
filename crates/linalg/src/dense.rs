//! Dense symmetric eigensolver (cyclic Jacobi).
//!
//! The multilevel schemes only ever need dense eigendecompositions of tiny
//! matrices: the coarsest graph (|V| < 100 by §3.2 of the paper) and the
//! Lanczos tridiagonal projections (a few hundred at most). Cyclic Jacobi is
//! simple, unconditionally stable, and plenty fast at those sizes.

/// Row-major dense symmetric matrix.
#[derive(Clone, Debug)]
pub struct DenseSym {
    n: usize,
    a: Vec<f64>,
}

impl DenseSym {
    /// Zero matrix of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            a: vec![0.0; n * n],
        }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }

    /// Set `a[i][j]` and `a[j][i]`.
    #[inline]
    pub fn set_sym(&mut self, i: usize, j: usize, v: f64) {
        self.a[i * self.n + j] = v;
        self.a[j * self.n + i] = v;
    }

    /// Build the dense Laplacian of a graph.
    pub fn laplacian(g: &mlgp_graph::CsrGraph) -> Self {
        let n = g.n();
        let mut m = Self::zeros(n);
        for v in 0..n as mlgp_graph::Vid {
            let mut deg = 0.0;
            for (u, w) in g.adj(v) {
                deg += w as f64;
                m.a[v as usize * n + u as usize] = -(w as f64);
            }
            m.a[v as usize * n + v as usize] = deg;
        }
        m
    }
}

/// Full eigendecomposition of a dense symmetric matrix.
///
/// Returns eigenvalues in ascending order with matching eigenvectors:
/// `vectors[k]` is the unit eigenvector of `values[k]`.
#[derive(Debug)]
pub struct EigenDecomposition {
    /// Eigenvalues, ascending.
    pub values: Vec<f64>,
    /// `vectors[k][i]` = i-th component of the k-th eigenvector.
    pub vectors: Vec<Vec<f64>>,
}

/// Cyclic Jacobi eigendecomposition. Converges quadratically; the sweep
/// count is bounded defensively.
pub fn jacobi_eigen(m: &DenseSym) -> EigenDecomposition {
    let n = m.n;
    let mut a = m.a.clone();
    // v starts as identity; columns accumulate the eigenvectors.
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    let idx = |i: usize, j: usize| i * n + j;
    for _sweep in 0..100 {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a[idx(i, j)] * a[idx(i, j)];
            }
        }
        if off.sqrt() < 1e-12 * (1.0 + frobenius(&a, n)) {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[idx(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a[idx(p, p)];
                let aqq = a[idx(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // A <- J' A J on rows/cols p and q.
                for k in 0..n {
                    let akp = a[idx(k, p)];
                    let akq = a[idx(k, q)];
                    a[idx(k, p)] = c * akp - s * akq;
                    a[idx(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[idx(p, k)];
                    let aqk = a[idx(q, k)];
                    a[idx(p, k)] = c * apk - s * aqk;
                    a[idx(q, k)] = s * apk + c * aqk;
                }
                // Accumulate rotations into v (columns are eigenvectors).
                for k in 0..n {
                    let vkp = v[idx(k, p)];
                    let vkq = v[idx(k, q)];
                    v[idx(k, p)] = c * vkp - s * vkq;
                    v[idx(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| a[idx(i, i)].total_cmp(&a[idx(j, j)]));
    let values: Vec<f64> = order.iter().map(|&i| a[idx(i, i)]).collect();
    let vectors: Vec<Vec<f64>> = order
        .iter()
        .map(|&col| (0..n).map(|row| v[idx(row, col)]).collect())
        .collect();
    EigenDecomposition { values, vectors }
}

fn frobenius(a: &[f64], n: usize) -> f64 {
    a[..n * n].iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Fiedler vector of a small graph via dense Jacobi: the eigenvector of the
/// second-smallest Laplacian eigenvalue. Returns `(lambda2, vector)`.
///
/// The graph should be connected; for a disconnected graph the returned
/// eigenvalue is ~0 and the vector separates components, which is still a
/// usable bisection direction.
///
/// Cyclic Jacobi costs `O(n³)` per sweep on the dense Laplacian; callers
/// that do not know the graph is small call [`crate::fiedler_vector`].
pub fn fiedler_dense(g: &mlgp_graph::CsrGraph) -> (f64, Vec<f64>) {
    assert!(g.n() >= 2, "fiedler needs at least 2 vertices");
    let m = DenseSym::laplacian(g);
    let e = jacobi_eigen(&m);
    (e.values[1], e.vectors[1].clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops::{dot, norm};
    use mlgp_graph::GraphBuilder;

    #[test]
    fn diagonal_matrix() {
        let mut m = DenseSym::zeros(3);
        m.set_sym(0, 0, 3.0);
        m.set_sym(1, 1, 1.0);
        m.set_sym(2, 2, 2.0);
        let e = jacobi_eigen(&m);
        assert!((e.values[0] - 1.0).abs() < 1e-10);
        assert!((e.values[1] - 2.0).abs() < 1e-10);
        assert!((e.values[2] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn two_by_two() {
        let mut m = DenseSym::zeros(2);
        m.set_sym(0, 0, 2.0);
        m.set_sym(1, 1, 2.0);
        m.set_sym(0, 1, 1.0);
        let e = jacobi_eigen(&m);
        assert!((e.values[0] - 1.0).abs() < 1e-10);
        assert!((e.values[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn eigenpairs_satisfy_definition() {
        // Laplacian of the 4-cycle: eigenvalues 0, 2, 2, 4.
        let mut b = GraphBuilder::new(4);
        for i in 0..4 {
            b.add_edge(i, (i + 1) % 4);
        }
        let g = b.build();
        let m = DenseSym::laplacian(&g);
        let e = jacobi_eigen(&m);
        let expect = [0.0, 2.0, 2.0, 4.0];
        for (val, exp) in e.values.iter().zip(expect) {
            assert!((val - exp).abs() < 1e-9, "{val} vs {exp}");
        }
        // Check A v = lambda v for each pair.
        for k in 0..4 {
            let v = &e.vectors[k];
            assert!((norm(v) - 1.0).abs() < 1e-9);
            for i in 0..4 {
                let av: f64 = (0..4).map(|j| m.get(i, j) * v[j]).sum();
                assert!((av - e.values[k] * v[i]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn fiedler_of_path_splits_in_middle() {
        // Path 0-1-2-3: Fiedler vector is monotone, sign change in middle.
        let mut b = GraphBuilder::new(4);
        for i in 0..3 {
            b.add_edge(i, i + 1);
        }
        let g = b.build();
        let (l2, f) = fiedler_dense(&g);
        // lambda2 of path P4 = 2 - sqrt(2) ≈ 0.5858
        assert!((l2 - (2.0 - 2.0_f64.sqrt())).abs() < 1e-9, "{l2}");
        // Components are monotone (up to global sign).
        let s = if f[0] < f[3] { 1.0 } else { -1.0 };
        for w in f.windows(2) {
            assert!(s * (w[1] - w[0]) > 0.0);
        }
        // Orthogonal to constants.
        assert!(f.iter().sum::<f64>().abs() < 1e-9);
        let _ = dot(&f, &f);
    }

    #[test]
    fn fiedler_separates_weak_link() {
        // Two triangles joined by one edge: Fiedler signs split them.
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
        b.add_edge(3, 4).add_edge(4, 5).add_edge(5, 3);
        b.add_edge(2, 3);
        let g = b.build();
        let (_, f) = fiedler_dense(&g);
        let sa = f[0].signum();
        assert_eq!(f[1].signum(), sa);
        assert_eq!(f[2].signum(), sa);
        assert_eq!(f[3].signum(), -sa);
        assert_eq!(f[4].signum(), -sa);
        assert_eq!(f[5].signum(), -sa);
    }
}
