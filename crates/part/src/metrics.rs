//! Partition quality metrics: edge-cut, balance, boundary size.
//!
//! The hot metrics (`edge_cut_*`, [`part_weights`], [`boundary_count`])
//! reduce in parallel over contiguous vertex ranges. Every reduction sums
//! integers — an associative, commutative fold — and the shim combines
//! chunk partials in chunk order, so the results are exact and identical
//! for any thread count. Signatures are unchanged from the sequential
//! versions; parallelism is an internal detail governed by the ambient
//! rayon thread cap (`ThreadPool::install`).

use crate::shards::MIN_PARALLEL_N;
use mlgp_graph::{CsrGraph, Vid, Wgt};
use rayon::prelude::*;

/// Edge-cut of a 2-way partition given as 0/1 labels.
pub fn edge_cut_bisection(g: &CsrGraph, part: &[u8]) -> Wgt {
    assert_eq!(part.len(), g.n());
    let cut_from = |v: Vid| -> Wgt {
        g.adj(v)
            .filter(|&(u, _)| u > v && part[u as usize] != part[v as usize])
            .map(|(_, w)| w)
            .sum()
    };
    (0..g.n())
        .into_par_iter()
        .with_min_len(MIN_PARALLEL_N)
        .map(|v| cut_from(v as Vid))
        .sum()
}

/// Edge-cut of a k-way partition given as arbitrary labels.
pub fn edge_cut_kway(g: &CsrGraph, part: &[u32]) -> Wgt {
    assert_eq!(part.len(), g.n());
    let cut_from = |v: Vid| -> Wgt {
        g.adj(v)
            .filter(|&(u, _)| u > v && part[u as usize] != part[v as usize])
            .map(|(_, w)| w)
            .sum()
    };
    (0..g.n())
        .into_par_iter()
        .with_min_len(MIN_PARALLEL_N)
        .map(|v| cut_from(v as Vid))
        .sum()
}

/// Per-part vertex weights of a k-way partition.
pub fn part_weights(g: &CsrGraph, part: &[u32], nparts: usize) -> Vec<Wgt> {
    assert_eq!(part.len(), g.n());
    (0..g.n())
        .into_par_iter()
        .with_min_len(MIN_PARALLEL_N)
        .fold(
            || vec![0 as Wgt; nparts],
            |mut acc, v| {
                acc[part[v] as usize] += g.vwgt()[v];
                acc
            },
        )
        .reduce(
            || vec![0 as Wgt; nparts],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        )
}

/// Load imbalance of a k-way partition: `max_i w_i / (W/k)`; 1.0 is perfect.
pub fn imbalance(g: &CsrGraph, part: &[u32], nparts: usize) -> f64 {
    let w = part_weights(g, part, nparts);
    let total: Wgt = w.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let avg = total as f64 / nparts as f64;
    w.iter().map(|&x| x as f64 / avg).fold(0.0, f64::max)
}

/// Number of boundary vertices (vertices with at least one cut edge).
pub fn boundary_count(g: &CsrGraph, part: &[u32]) -> usize {
    (0..g.n())
        .into_par_iter()
        .with_min_len(MIN_PARALLEL_N)
        .map(|v| {
            g.neighbors(v as Vid)
                .iter()
                .any(|&u| part[u as usize] != part[v]) as usize
        })
        .sum()
}

/// Total communication volume of a k-way partition: for each vertex, the
/// number of distinct foreign parts among its neighbors (the quantity a
/// parallel SpMV actually communicates).
pub fn communication_volume(g: &CsrGraph, part: &[u32]) -> usize {
    let mut vol = 0usize;
    let mut seen: Vec<u32> = Vec::new();
    for v in 0..g.n() as Vid {
        seen.clear();
        let pv = part[v as usize];
        for &u in g.neighbors(v) {
            let pu = part[u as usize];
            if pu != pv && !seen.contains(&pu) {
                seen.push(pu);
            }
        }
        vol += seen.len();
    }
    vol
}

/// Number of connected fragments summed over all parts, minus the part
/// count: 0 means every part is internally connected (desirable for the
/// subdomain solvers the paper's applications run per part).
pub fn fragmentation(g: &CsrGraph, part: &[u32], nparts: usize) -> usize {
    assert_eq!(part.len(), g.n());
    let n = g.n();
    let mut comp = vec![false; n]; // visited
    let mut fragments = 0usize;
    let mut stack: Vec<Vid> = Vec::new();
    let mut nonempty = vec![false; nparts];
    for s in 0..n as Vid {
        if comp[s as usize] {
            continue;
        }
        let p = part[s as usize];
        nonempty[p as usize] = true;
        fragments += 1;
        comp[s as usize] = true;
        stack.push(s);
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(v) {
                if !comp[u as usize] && part[u as usize] == p {
                    comp[u as usize] = true;
                    stack.push(u);
                }
            }
        }
    }
    fragments - nonempty.iter().filter(|&&x| x).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgp_graph::GraphBuilder;

    fn square() -> CsrGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(3, 0);
        b.build()
    }

    #[test]
    fn cut_of_square_halves() {
        let g = square();
        assert_eq!(edge_cut_bisection(&g, &[0, 0, 1, 1]), 2);
        assert_eq!(edge_cut_bisection(&g, &[0, 1, 0, 1]), 4);
        assert_eq!(edge_cut_bisection(&g, &[0, 0, 0, 0]), 0);
    }

    #[test]
    fn kway_cut_matches_bisection() {
        let g = square();
        assert_eq!(edge_cut_kway(&g, &[0, 0, 1, 1]), 2);
        assert_eq!(edge_cut_kway(&g, &[0, 1, 2, 3]), 4);
    }

    #[test]
    fn weighted_cut() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 7);
        let g = b.build();
        assert_eq!(edge_cut_bisection(&g, &[0, 1]), 7);
    }

    #[test]
    fn balance_metrics() {
        let g = square();
        assert_eq!(part_weights(&g, &[0, 0, 1, 1], 2), vec![2, 2]);
        assert!((imbalance(&g, &[0, 0, 1, 1], 2) - 1.0).abs() < 1e-12);
        assert!((imbalance(&g, &[0, 0, 0, 1], 2) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn fragmentation_counts_disconnected_parts() {
        let g = square();
        // Opposite corners in the same part: both parts split in two.
        assert_eq!(fragmentation(&g, &[0, 1, 0, 1], 2), 2);
        // Contiguous halves: fully connected parts.
        assert_eq!(fragmentation(&g, &[0, 0, 1, 1], 2), 0);
        // Everything in one part: connected.
        assert_eq!(fragmentation(&g, &[0, 0, 0, 0], 1), 0);
    }

    #[test]
    fn boundary_and_volume() {
        let g = square();
        let part = [0u32, 0, 1, 1];
        assert_eq!(boundary_count(&g, &part), 4);
        assert_eq!(communication_volume(&g, &part), 4);
        let one = [0u32, 0, 0, 0];
        assert_eq!(boundary_count(&g, &one), 0);
        assert_eq!(communication_volume(&g, &one), 0);
    }
}
