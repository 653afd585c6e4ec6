//! Property tests for the ordering substrate: bipartite matching / König
//! covers, elimination trees, and ordering validity.

use mlgp_graph::rng::seeded;
use mlgp_graph::{CsrGraph, GraphBuilder, Permutation};
use mlgp_order::{
    analyze_ordering, column_counts, elimination_tree, hopcroft_karp, konig_cover, mmd_order,
};
use proptest::prelude::*;
use rand::RngExt;
use std::collections::BTreeSet;

/// Strategy: a random bipartite graph as adjacency lists.
fn bipartite() -> impl Strategy<Value = (usize, usize, Vec<Vec<u32>>)> {
    (1usize..12, 1usize..12).prop_flat_map(|(nl, nr)| {
        let adj =
            prop::collection::vec(prop::collection::btree_set(0..nr as u32, 0..nr.min(6)), nl)
                .prop_map(|rows| rows.into_iter().map(|s| s.into_iter().collect()).collect());
        (Just(nl), Just(nr), adj)
    })
}

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

/// Random graph with `n` vertices and up to `edges` random edges: often
/// disconnected, so its elimination tree is a forest with several roots.
fn random_sparse(n: usize, edges: usize, seed: u64) -> CsrGraph {
    let mut rng = seeded(seed);
    let mut b = GraphBuilder::new(n);
    for _ in 0..edges {
        let u = rng.random_range(0..n) as u32;
        let v = rng.random_range(0..n) as u32;
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Off-diagonal column counts of L by explicit symbolic elimination: each
/// eliminated vertex joins its later neighbors into a clique.
fn brute_column_counts(g: &CsrGraph, p: &Permutation) -> Vec<u64> {
    let n = g.n();
    let mut adj: Vec<BTreeSet<u32>> = (0..n)
        .map(|j| {
            let v = p.iperm()[j];
            g.neighbors(v)
                .iter()
                .map(|&u| p.perm()[u as usize])
                .collect()
        })
        .collect();
    let mut counts = vec![0u64; n];
    for j in 0..n {
        let later: Vec<u32> = adj[j].range(j as u32 + 1..).copied().collect();
        counts[j] = later.len() as u64;
        for (a, &x) in later.iter().enumerate() {
            for &y in &later[a + 1..] {
                adj[x as usize].insert(y);
                adj[y as usize].insert(x);
            }
        }
    }
    counts
}

/// Brute-force maximum matching size by augmenting-path search.
fn brute_matching(nl: usize, nr: usize, adj: &[Vec<u32>]) -> usize {
    fn try_kuhn(l: usize, adj: &[Vec<u32>], seen: &mut [bool], mr: &mut [i64]) -> bool {
        for &r in &adj[l] {
            if !seen[r as usize] {
                seen[r as usize] = true;
                if mr[r as usize] < 0 || try_kuhn(mr[r as usize] as usize, adj, seen, mr) {
                    mr[r as usize] = l as i64;
                    return true;
                }
            }
        }
        false
    }
    let mut mr = vec![-1i64; nr];
    let mut count = 0;
    for l in 0..nl {
        let mut seen = vec![false; nr];
        if try_kuhn(l, adj, &mut seen, &mut mr) {
            count += 1;
        }
    }
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hopcroft_karp_finds_maximum_matching((nl, nr, adj) in bipartite()) {
        let (ml, mr) = hopcroft_karp(nl, nr, &adj);
        let size = ml.iter().filter(|&&m| m != u32::MAX).count();
        // Matching consistency.
        for (l, &r) in ml.iter().enumerate() {
            if r != u32::MAX {
                prop_assert_eq!(mr[r as usize], l as u32);
                prop_assert!(adj[l].contains(&r));
            }
        }
        // Maximum size (vs brute force).
        prop_assert_eq!(size, brute_matching(nl, nr, &adj));
    }

    #[test]
    fn konig_cover_is_minimum_and_covers((nl, nr, adj) in bipartite()) {
        let (cl, cr) = konig_cover(nl, nr, &adj);
        for (l, row) in adj.iter().enumerate() {
            for &r in row {
                prop_assert!(cl[l] || cr[r as usize], "edge ({l},{r}) uncovered");
            }
        }
        let cover = cl.iter().filter(|&&c| c).count() + cr.iter().filter(|&&c| c).count();
        prop_assert_eq!(cover, brute_matching(nl, nr, &adj), "König equality violated");
    }

    #[test]
    fn etree_parents_point_forward(
        n in 4usize..60,
        extra in 0usize..100,
        seed in 0u64..300,
    ) {
        let g = random_connected(n, extra, seed);
        let p = Permutation::random(n, &mut seeded(seed ^ 5));
        let parent = elimination_tree(&g, &p);
        for (j, &pj) in parent.iter().enumerate() {
            if pj != u32::MAX {
                prop_assert!(pj as usize > j, "parent {pj} <= child {j}");
            }
        }
        // Column counts are consistent: nnz(L) bounded by the dense
        // triangle and at least the original structure.
        let counts = column_counts(&g, &p, &parent);
        let nnz: u64 = n as u64 + counts.iter().sum::<u64>();
        prop_assert!(nnz >= (n + g.m()) as u64);
        prop_assert!(nnz <= (n * (n + 1) / 2) as u64);
    }

    #[test]
    fn column_counts_equal_symbolic_elimination(
        n in 1usize..50,
        edges in 0usize..120,
        connected in 0u8..2,
        seed in 0u64..1000,
    ) {
        let g = if connected == 1 {
            random_connected(n, edges, seed)
        } else {
            random_sparse(n, edges / 2, seed)
        };
        let p = Permutation::random(n, &mut seeded(seed ^ 0x3c));
        let parent = elimination_tree(&g, &p);
        prop_assert_eq!(column_counts(&g, &p, &parent), brute_column_counts(&g, &p));
    }

    #[test]
    fn fill_is_ordering_dependent_but_bounded_below(
        n in 6usize..50,
        extra in 5usize..80,
        seed in 0u64..300,
    ) {
        // MMD's fill never beats the structural lower bound and never
        // exceeds a random ordering by more than noise (it should usually
        // be far better; here we assert the weak direction robustly).
        let g = random_connected(n, extra, seed);
        let mmd = analyze_ordering(&g, &mmd_order(&g));
        prop_assert!(mmd.nnz_l >= (n + g.m()) as u64);
        let rnd = analyze_ordering(&g, &Permutation::random(n, &mut seeded(seed ^ 9)));
        prop_assert!(mmd.nnz_l <= rnd.nnz_l, "MMD {} vs random {}", mmd.nnz_l, rnd.nnz_l);
    }

    #[test]
    fn height_bounds(
        n in 4usize..50,
        extra in 0usize..80,
        seed in 0u64..300,
    ) {
        let g = random_connected(n, extra, seed);
        let s = analyze_ordering(&g, &mmd_order(&g));
        prop_assert!(s.height >= 1 && s.height <= n);
    }
}
