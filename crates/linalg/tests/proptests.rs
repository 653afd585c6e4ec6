//! Property tests for the eigensolver substrate.

use mlgp_linalg::{
    fiedler_dense, jacobi_eigen, lanczos_fiedler, minres, DenseSym, LanczosOptions, Laplacian,
    MinresOptions, SymOp,
};
use proptest::prelude::*;

/// Strategy: a random symmetric matrix of dimension 2..=8 with entries in
/// [-5, 5].
fn sym_matrix() -> impl Strategy<Value = DenseSym> {
    (2usize..=8).prop_flat_map(|n| {
        prop::collection::vec(-5.0f64..5.0, n * (n + 1) / 2).prop_map(move |vals| {
            let mut m = DenseSym::zeros(n);
            let mut it = vals.into_iter();
            for i in 0..n {
                for j in i..n {
                    m.set_sym(i, j, it.next().unwrap());
                }
            }
            m
        })
    })
}

struct DenseOp(DenseSym);
impl SymOp for DenseOp {
    fn dim(&self) -> usize {
        self.0.n()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = (0..self.0.n()).map(|j| self.0.get(i, j) * x[j]).sum();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jacobi_eigenpairs_satisfy_definition(m in sym_matrix()) {
        let n = m.n();
        let e = jacobi_eigen(&m);
        // Eigenvalues ascending.
        for w in e.values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9);
        }
        // Trace is preserved.
        let trace: f64 = (0..n).map(|i| m.get(i, i)).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-7 * (1.0 + trace.abs()), "{trace} vs {sum}");
        // A v = lambda v.
        let scale: f64 = 1.0 + e.values.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        for k in 0..n {
            let v = &e.vectors[k];
            for i in 0..n {
                let av: f64 = (0..n).map(|j| m.get(i, j) * v[j]).sum();
                prop_assert!((av - e.values[k] * v[i]).abs() < 1e-7 * scale);
            }
        }
        // Eigenvectors orthonormal.
        for a in 0..n {
            for b in a..n {
                let dot: f64 = e.vectors[a].iter().zip(&e.vectors[b]).map(|(x, y)| x * y).sum();
                let expect = if a == b { 1.0 } else { 0.0 };
                prop_assert!((dot - expect).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn minres_solves_nonsingular_symmetric(m in sym_matrix(), bseed in 0u64..100) {
        // Shift well away from singularity: A + (1 + |trace|) I ... instead
        // make it diagonally dominant to guarantee nonsingularity.
        let n = m.n();
        let mut a = m.clone();
        for i in 0..n {
            let row: f64 = (0..n).map(|j| a.get(i, j).abs()).sum();
            a.set_sym(i, i, a.get(i, i) + row + 1.0);
        }
        let b: Vec<f64> = (0..n).map(|i| ((i as u64 * 37 + bseed) % 11) as f64 - 5.0).collect();
        let op = DenseOp(a);
        let r = minres(&op, &b, &MinresOptions { max_iters: 200, tol: 1e-12, ..Default::default() });
        let mut ax = vec![0.0; n];
        op.apply(&r.x, &mut ax);
        let res: f64 = ax.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
        let bnorm: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!(res <= 1e-6 * (1.0 + bnorm), "residual {res}");
    }

    #[test]
    fn lanczos_matches_dense_on_random_connected_graphs(
        n in 6usize..24,
        extra in 0usize..40,
        seed in 0u64..200,
    ) {
        use mlgp_graph::rng::seeded;
        use rand::RngExt;
        let mut rng = seeded(seed);
        let mut b = mlgp_graph::GraphBuilder::new(n);
        for v in 1..n {
            b.add_edge(v as u32, rng.random_range(0..v) as u32);
        }
        for _ in 0..extra {
            let u = rng.random_range(0..n) as u32;
            let v = rng.random_range(0..n) as u32;
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let lap = Laplacian::new(&g);
        let r = lanczos_fiedler(&lap, &LanczosOptions::default());
        let (l2, _) = fiedler_dense(&g);
        prop_assert!(
            (r.lambda - l2).abs() <= 1e-5 * (1.0 + l2),
            "lanczos {} vs dense {}", r.lambda, l2
        );
    }

    #[test]
    fn chunked_pairwise_dot_matches_serial(
        // Span several REDUCTION_CHUNK boundaries so the pairwise tree has
        // real depth; proptest shrinks toward the small end.
        n in 1usize..(3 * mlgp_linalg::REDUCTION_CHUNK + 500),
        seed in 0u64..1000,
    ) {
        use mlgp_graph::rng::seeded;
        use rand::RngExt;
        let mut rng = seeded(seed);
        let a: Vec<f64> = (0..n).map(|_| rng.random_range(-10.0..10.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.random_range(-10.0..10.0)).collect();
        let serial: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let chunked = mlgp_linalg::vecops::dot(&a, &b);
        // The pairwise tree differs from left-to-right summation only in
        // rounding; 1e-12 relative is generous for these magnitudes.
        let scale = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum::<f64>().max(1.0);
        prop_assert!(
            (chunked - serial).abs() <= 1e-12 * scale,
            "chunked {chunked} vs serial {serial} (n = {n})"
        );
    }

    #[test]
    fn chunked_pairwise_dot_bit_identical_across_threads(
        n in 1usize..(2 * mlgp_linalg::REDUCTION_CHUNK + 500),
        seed in 0u64..1000,
    ) {
        use mlgp_graph::rng::seeded;
        use rand::RngExt;
        let mut rng = seeded(seed);
        let a: Vec<f64> = (0..n).map(|_| rng.random_range(-10.0..10.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.random_range(-10.0..10.0)).collect();
        use mlgp_linalg::{vecops, with_fanout};
        let reference = with_fanout(1, || vecops::dot(&a, &b));
        for threads in [2usize, 3, 8] {
            let t = with_fanout(threads, || vecops::dot(&a, &b));
            prop_assert_eq!(
                t.to_bits(), reference.to_bits(),
                "dot differs at {} threads: {} vs {}", threads, t, reference
            );
        }
        // norm rides on dot; check it too.
        let nref = with_fanout(1, || vecops::norm(&a));
        for threads in [2usize, 8] {
            prop_assert_eq!(with_fanout(threads, || vecops::norm(&a)).to_bits(), nref.to_bits());
        }
    }

    #[test]
    fn laplacian_rayleigh_nonnegative(
        n in 4usize..30,
        seed in 0u64..100,
    ) {
        use mlgp_graph::rng::seeded;
        use rand::RngExt;
        let mut rng = seeded(seed);
        let mut b = mlgp_graph::GraphBuilder::new(n);
        for v in 1..n {
            b.add_weighted_edge(v as u32, rng.random_range(0..v) as u32, 1 + rng.random_range(0..5));
        }
        let g = b.build();
        let lap = Laplacian::new(&g);
        let x: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
        // L is PSD: Rayleigh quotient >= 0, bounded by Gershgorin.
        let rho = lap.rayleigh(&x);
        prop_assert!(rho >= -1e-12);
        prop_assert!(rho <= lap.spectral_upper_bound() + 1e-9);
    }
}
