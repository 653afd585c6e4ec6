//! Property tests for the multilevel partitioning engine's internal
//! invariants (the cross-crate end-to-end properties live in the workspace
//! root `tests/proptests.rs`).

use mlgp_graph::rng::seeded;
use mlgp_graph::{CsrGraph, GraphBuilder};
use mlgp_linalg::with_fanout;
use mlgp_part::refine::{fm_pass, refine_level, BalanceTargets, BisectState, GainQueue};
use mlgp_part::{coarsen, MatchingScheme, MlConfig, RefinementPolicy};
use proptest::prelude::*;
use rand::RngExt;

fn random_graph(n: usize, extra: usize, seed: u64) -> CsrGraph {
    let mut rng = seeded(seed);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_weighted_edge(
            v as u32,
            rng.random_range(0..v) as u32,
            1 + rng.random_range(0..6),
        );
    }
    for _ in 0..extra {
        let u = rng.random_range(0..n) as u32;
        let v = rng.random_range(0..n) as u32;
        if u != v {
            b.add_weighted_edge(u, v, 1 + rng.random_range(0..6));
        }
    }
    b.build()
}

fn random_bipartition(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = seeded(seed);
    (0..n).map(|_| rng.random_range(0..2u8)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn state_stays_consistent_through_any_policy(
        n in 8usize..120,
        extra in 0usize..200,
        seed in 0u64..500,
    ) {
        let g = random_graph(n, extra, seed);
        let bt = BalanceTargets::even(g.total_vwgt(), 1.05);
        let cfg = MlConfig::default();
        for policy in RefinementPolicy::evaluated() {
            let mut s = BisectState::new(&g, random_bipartition(n, seed ^ 7));
            refine_level(&mut s, &bt, policy, &cfg, n);
            prop_assert!(s.consistent(), "{policy:?} corrupted the state");
        }
    }

    #[test]
    fn single_pass_never_increases_cut(
        n in 8usize..120,
        extra in 0usize..200,
        seed in 0u64..500,
    ) {
        let g = random_graph(n, extra, seed);
        let bt = BalanceTargets::even(g.total_vwgt(), 1.05);
        let mut s = BisectState::new(&g, random_bipartition(n, seed ^ 13));
        let start_balanced = bt.balanced(s.pwgts);
        let before = s.cut;
        fm_pass(&mut s, &bt, false, 50);
        if start_balanced {
            // From a balanced start, the rollback guarantees the cut never
            // worsens. (From an imbalanced start the pass may trade cut for
            // balance.)
            prop_assert!(s.cut <= before, "{} -> {}", before, s.cut);
        } else {
            prop_assert!(bt.balanced(s.pwgts) || s.cut <= before);
        }
    }

    #[test]
    fn coarsening_preserves_cut_semantics(
        n in 16usize..150,
        extra in 10usize..200,
        seed in 0u64..500,
    ) {
        // For any coarse bisection, the projected fine cut equals the
        // coarse cut — level by level through a full hierarchy.
        let g = random_graph(n, extra, seed);
        let cfg = MlConfig { coarsen_to: 8, seed, ..MlConfig::default() };
        let h = coarsen(&g, &cfg, &mut seeded(seed));
        let nc = h.coarsest().n();
        let mut part: Vec<u8> = (0..nc).map(|i| (i % 2) as u8).collect();
        let mut cut = mlgp_part::edge_cut_bisection(h.coarsest(), &part);
        for level in (0..h.levels() - 1).rev() {
            part = h.project(level, &part);
            let fine_cut = mlgp_part::edge_cut_bisection(&h.graphs[level], &part);
            prop_assert_eq!(fine_cut, cut);
            cut = fine_cut;
        }
    }

    #[test]
    fn matching_partner_weights_exist(
        n in 4usize..100,
        extra in 0usize..150,
        seed in 0u64..500,
    ) {
        // Every matched pair must correspond to a real edge whose weight the
        // contraction will remove from the total — checked via the partner
        // edge lookup (panics inside if missing).
        let g = random_graph(n, extra, seed);
        let cewgt = vec![0; g.n()];
        for scheme in MatchingScheme::all() {
            let m = mlgp_part::compute_matching(&g, scheme, &cewgt, &mut seeded(seed ^ 3));
            for v in 0..g.n() as u32 {
                let p = m.partner[v as usize];
                if p != v {
                    prop_assert!(g.neighbors(v).contains(&p), "{scheme:?}");
                }
            }
        }
    }

    #[test]
    fn matching_is_symmetric_disjoint_and_thread_independent(
        n in 4usize..120,
        extra in 0usize..180,
        seed in 0u64..500,
        threads in 1usize..9,
    ) {
        // The kernel's core contract: a valid (symmetric, vertex-disjoint,
        // edges-only) maximal matching whose partner array does not depend
        // on the installed pool.
        let g = random_graph(n, extra, seed);
        let cewgt = vec![0; g.n()];
        for scheme in MatchingScheme::all() {
            let reference = with_fanout(1, || mlgp_part::compute_matching(
                &g, scheme, &cewgt, &mut seeded(seed ^ 21)));
            prop_assert!(reference.validate(&g).is_ok(), "{scheme:?}");
            prop_assert!(reference.is_maximal(&g), "{scheme:?} not maximal");
            let m = with_fanout(threads, || mlgp_part::compute_matching(
                &g, scheme, &cewgt, &mut seeded(seed ^ 21)));
            prop_assert_eq!(&m.partner, &reference.partner,
                "{:?} differs at {} threads", scheme, threads);
        }
    }

    #[test]
    fn contraction_invariants_hold_under_any_pool(
        n in 4usize..120,
        extra in 0usize..180,
        seed in 0u64..500,
        threads in 1usize..9,
    ) {
        // Contraction preserves total vertex weight; removes exactly the
        // matched weight from the edge total (W(E_{i+1}) = W(E_i) − W(M_i),
        // with the collapsed weight accounted in cewgt); and emits a valid
        // CSR with sorted, self-loop-free, symmetric rows — independent of
        // the installed pool. (`contract.rs`'s unit tests also check the
        // kernel against a `GraphBuilder` oracle on random graphs.)
        let g = random_graph(n, extra, seed);
        let cewgt = vec![0; g.n()];
        let m = mlgp_part::compute_matching(
            &g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(seed ^ 5));
        let matched_weight: i64 = (0..g.n() as u32)
            .filter_map(|v| {
                let p = m.partner[v as usize];
                (p > v).then(|| g.adj(v).find(|&(u, _)| u == p).unwrap().1)
            })
            .sum();
        let (cmap, nc) = m.to_cmap();
        let reference = with_fanout(1, || mlgp_part::contract(&g, &cmap, nc, &cewgt));
        let c = with_fanout(threads, || mlgp_part::contract(&g, &cmap, nc, &cewgt));
        prop_assert_eq!(&c.graph, &reference.graph, "graph differs at {} threads", threads);
        prop_assert_eq!(&c.cewgt, &reference.cewgt);
        prop_assert_eq!(c.graph.total_vwgt(), g.total_vwgt());
        prop_assert_eq!(c.graph.total_adjwgt(), g.total_adjwgt() - matched_weight);
        prop_assert_eq!(c.cewgt.iter().sum::<i64>(), matched_weight);
        // validate() covers symmetry, positive weights, no self-loops, no
        // duplicates; sortedness is the kernel's canonical-form promise.
        prop_assert!(c.graph.validate().is_ok());
        for v in 0..c.graph.n() as u32 {
            let nb = c.graph.neighbors(v);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "row {} unsorted", v);
        }
    }

    #[test]
    fn gain_queue_pops_in_monotone_order(entries in prop::collection::vec((0u32..50, -20i64..20), 1..60)) {
        let mut q = GainQueue::new();
        for &(v, g) in &entries {
            q.push(v, g);
        }
        let mut last = i64::MAX;
        while let Some((_, g)) = q.pop_valid(|_, _| true) {
            prop_assert!(g <= last);
            last = g;
        }
    }

    #[test]
    fn kway_refine_never_worsens(
        n in 32usize..160,
        extra in 20usize..250,
        k in 2usize..6,
        seed in 0u64..300,
    ) {
        let g = random_graph(n, extra, seed);
        let base = mlgp_part::kway_partition(&g, k, &MlConfig { seed, ..MlConfig::default() });
        let mut part = base.part.clone();
        let refined = mlgp_part::kway_refine_greedy(
            &g,
            &mut part,
            k,
            &mlgp_part::KwayRefineOptions::default(),
        );
        prop_assert!(refined <= base.edge_cut);
        prop_assert_eq!(refined, mlgp_part::edge_cut_kway(&g, &part));
    }
}
