//! Property tests for the graph substrate.

use mlgp_graph::generators::suite;
use mlgp_graph::io::{read_chaco, write_chaco};
use mlgp_graph::rng::seeded;
use mlgp_graph::{
    connect_components, connected_components, induced_subgraph, is_connected, permute_graph,
    split_by_part, CsrGraph, GraphBuilder, Permutation, Vid,
};
use proptest::prelude::*;

/// Strategy: an arbitrary weighted edge list over `n` vertices.
fn edge_list(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32, i64)>)> {
    (2usize..max_n).prop_flat_map(|n| {
        let edges =
            prop::collection::vec((0..n as u32, 0..n as u32, 1i64..10), 0..(4 * n).min(400));
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn builder_always_produces_valid_graphs((n, edges) in edge_list(60)) {
        let mut b = GraphBuilder::new(n);
        let mut distinct = std::collections::BTreeSet::new();
        for &(u, v, w) in &edges {
            b.add_weighted_edge(u, v, w);
            if u != v {
                distinct.insert((u.min(v), u.max(v)));
            }
        }
        let g = b.build();
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.n(), n);
        prop_assert_eq!(g.m(), distinct.len());
        // Total edge weight equals the sum of inserted non-loop weights.
        let inserted: i64 = edges.iter().filter(|&&(u, v, _)| u != v).map(|&(_, _, w)| w).sum();
        prop_assert_eq!(g.total_adjwgt(), inserted);
    }

    #[test]
    fn builder_rows_are_sorted_and_loop_free((n, edges) in edge_list(60)) {
        // Canonical CSR form: every adjacency row strictly increasing (so
        // no duplicates) with no self-loops. The parallel contraction
        // kernel emits the same form, which is what makes coarse graphs
        // comparable with `==` across thread counts.
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &edges {
            b.add_weighted_edge(u, v, w);
        }
        let g = b.build();
        for v in 0..n as u32 {
            let nb = g.neighbors(v);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "row {} not sorted", v);
            prop_assert!(!nb.contains(&v), "self-loop at {}", v);
        }
    }

    #[test]
    fn chaco_io_round_trips((n, edges) in edge_list(40)) {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &edges {
            b.add_weighted_edge(u, v, w);
        }
        let g = b.build();
        let mut buf = Vec::new();
        write_chaco(&g, &mut buf).unwrap();
        let g2 = read_chaco(&buf[..]).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn permutation_round_trips((n, edges) in edge_list(40), seed in 0u64..500) {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &edges {
            b.add_weighted_edge(u, v, w);
        }
        let g = b.build();
        let p = Permutation::random(n, &mut seeded(seed));
        let h = permute_graph(&g, &p);
        prop_assert!(h.validate().is_ok());
        prop_assert_eq!(h.total_adjwgt(), g.total_adjwgt());
        prop_assert_eq!(permute_graph(&h, &p.inverse()), g);
    }

    #[test]
    fn split_partitions_vertices_and_edges((n, edges) in edge_list(50), k in 2usize..5) {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &edges {
            b.add_weighted_edge(u, v, w);
        }
        let g = b.build();
        let part: Vec<u32> = (0..n).map(|v| (v % k) as u32).collect();
        let subs = split_by_part(&g, &part, k);
        let total_n: usize = subs.iter().map(|s| s.graph.n()).sum();
        prop_assert_eq!(total_n, n);
        // Edges inside subgraphs + cut edges == all edges.
        let inside: usize = subs.iter().map(|s| s.graph.m()).sum();
        let cut = {
            let mut c = 0;
            for v in 0..n as Vid {
                for &u in g.neighbors(v) {
                    if u > v && part[u as usize] != part[v as usize] {
                        c += 1;
                    }
                }
            }
            c
        };
        prop_assert_eq!(inside + cut, g.m());
        // Each subgraph's orig ids map back to the right part.
        for (pi, s) in subs.iter().enumerate() {
            for &o in &s.orig {
                prop_assert_eq!(part[o as usize] as usize, pi);
            }
        }
    }

    #[test]
    fn split_equals_per_part_induced_subgraphs(
        (n, edges, part) in edge_list(50).prop_flat_map(|(n, edges)| {
            (Just(n), Just(edges), prop::collection::vec(0u32..5, n))
        }),
    ) {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &edges {
            b.add_weighted_edge(u, v, w);
        }
        b.set_vertex_weights((1..=n as i64).collect());
        let g = b.build();
        // Labels may leave parts empty; one part past the largest label
        // must come out empty too.
        let nparts = *part.iter().max().unwrap() as usize + 2;
        let subs = split_by_part(&g, &part, nparts);
        prop_assert_eq!(subs.len(), nparts);
        for (p, s) in subs.iter().enumerate() {
            let select: Vec<bool> = part.iter().map(|&x| x as usize == p).collect();
            let want = induced_subgraph(&g, &select);
            prop_assert_eq!(&s.graph, &want.graph);
            prop_assert_eq!(&s.orig, &want.orig);
        }
    }

    #[test]
    fn connect_components_always_connects((n, edges) in edge_list(50)) {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &edges {
            b.add_weighted_edge(u, v, w);
        }
        let g = connect_components(&b.build());
        prop_assert!(is_connected(&g));
        let (count, comp) = connected_components(&g);
        prop_assert_eq!(count, 1);
        prop_assert!(comp.iter().all(|&c| c == 0));
    }

    #[test]
    fn induced_subgraph_degree_bound((n, edges) in edge_list(40), mask_seed in 0u64..100) {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &edges {
            b.add_weighted_edge(u, v, w);
        }
        let g = b.build();
        let select: Vec<bool> = (0..n).map(|v| !(v as u64 * 31 + mask_seed).is_multiple_of(3)).collect();
        let s = induced_subgraph(&g, &select);
        prop_assert!(s.graph.validate().is_ok());
        for (i, &orig) in s.orig.iter().enumerate() {
            prop_assert!(s.graph.degree(i as Vid) <= g.degree(orig));
        }
    }
}

#[test]
fn suite_entries_are_stable_across_calls() {
    // The full suite must resolve and stay deterministic (not proptest, but
    // lives here to keep the expensive generator checks out of unit tests).
    for e in suite().iter().take(6) {
        let a: CsrGraph = e.generate_scaled(0.03);
        let b: CsrGraph = e.generate_scaled(0.03);
        assert_eq!(a, b, "{}", e.key);
    }
}
