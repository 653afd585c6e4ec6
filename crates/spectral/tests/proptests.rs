//! Property tests for the spectral baselines.

use mlgp_graph::rng::seeded;
use mlgp_graph::{CsrGraph, GraphBuilder};
use mlgp_part::{edge_cut_bisection, edge_cut_kway, part_weights, BalanceTargets};
use mlgp_spectral::{
    chaco_ml_bisect_targets, chaco_ml_kway, msb_bisect_targets, msb_fiedler, msb_kl_bisect_targets,
};
use proptest::prelude::*;
use rand::RngExt;

fn random_connected(n: usize, extra: usize, seed: u64) -> CsrGraph {
    let mut rng = seeded(seed);
    let mut b = GraphBuilder::new(n);
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
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn msb_bisection_is_balanced(
        n in 16usize..200,
        extra in 10usize..250,
        seed in 0u64..200,
    ) {
        let g = random_connected(n, extra, seed);
        let total = g.total_vwgt();
        let targets = [total / 2, total - total / 2];
        let part = msb_bisect_targets(&g, seed, targets);
        let pw = {
            let p32: Vec<u32> = part.iter().map(|&x| x as u32).collect();
            part_weights(&g, &p32, 2)
        };
        let bt = BalanceTargets::new(targets, 1.05);
        prop_assert!(bt.balanced([pw[0], pw[1]]), "{pw:?}");
    }

    #[test]
    fn msb_kl_never_worse_than_msb(
        n in 24usize..150,
        extra in 20usize..200,
        seed in 0u64..200,
    ) {
        let g = random_connected(n, extra, seed);
        let total = g.total_vwgt();
        let targets = [total / 2, total - total / 2];
        let plain = edge_cut_bisection(&g, &msb_bisect_targets(&g, seed, targets));
        let kl = edge_cut_bisection(&g, &msb_kl_bisect_targets(&g, seed, targets));
        prop_assert!(kl <= plain, "KL {} vs {}", kl, plain);
    }

    #[test]
    fn chaco_ml_bisection_is_balanced_and_deterministic(
        n in 16usize..150,
        extra in 10usize..200,
        seed in 0u64..200,
    ) {
        let g = random_connected(n, extra, seed);
        let total = g.total_vwgt();
        let targets = [total / 2, total - total / 2];
        let a = chaco_ml_bisect_targets(&g, seed, targets);
        let b = chaco_ml_bisect_targets(&g, seed, targets);
        prop_assert_eq!(&a, &b);
        let p32: Vec<u32> = a.iter().map(|&x| x as u32).collect();
        let pw = part_weights(&g, &p32, 2);
        let bt = BalanceTargets::new(targets, 1.05);
        prop_assert!(bt.balanced([pw[0], pw[1]]), "{pw:?}");
    }

    #[test]
    fn msb_fiedler_is_deflated(
        n in 8usize..120,
        extra in 5usize..150,
        seed in 0u64..200,
    ) {
        let g = random_connected(n, extra, seed);
        let f = msb_fiedler(&g, seed);
        prop_assert_eq!(f.len(), n);
        // Orthogonal to constants and not the zero vector.
        let sum: f64 = f.iter().sum();
        let norm: f64 = f.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!(norm > 1e-8);
        prop_assert!(sum.abs() < 1e-6 * n as f64, "mean leak {sum}");
    }

    #[test]
    fn chaco_kway_covers_all_parts(
        n in 64usize..220,
        extra in 60usize..260,
        k in 2usize..6,
        seed in 0u64..100,
    ) {
        let g = random_connected(n, extra, seed);
        let part = chaco_ml_kway(&g, k, seed);
        let mut present = vec![false; k];
        for &p in &part {
            prop_assert!((p as usize) < k);
            present[p as usize] = true;
        }
        prop_assert!(present.iter().all(|&x| x));
        prop_assert!(edge_cut_kway(&g, &part) >= 0);
    }
}
