//! Partition quality metrics: edge-cut, balance, boundary size.
//!
//! Every metric is one serial pass over the vertices. The partitioner's
//! only parallelism is at the recursion forks (`kway.rs`, and `nested.rs`
//! in `mlgp-order`), so a metric runs on whichever thread asked for it.

use mlgp_graph::{CsrGraph, Vid, Wgt};

/// Edge-cut of a 2-way partition given as 0/1 labels.
pub fn edge_cut_bisection(g: &CsrGraph, part: &[u8]) -> Wgt {
    edge_cut(g, part)
}

/// Edge-cut of a k-way partition given as arbitrary labels.
pub fn edge_cut_kway(g: &CsrGraph, part: &[u32]) -> Wgt {
    edge_cut(g, part)
}

/// Summed weight of the edges whose endpoints carry different labels.
fn edge_cut<L: PartialEq>(g: &CsrGraph, part: &[L]) -> Wgt {
    assert_eq!(part.len(), g.n());
    (0..g.n() as Vid)
        .map(|v| {
            g.adj(v)
                .filter(|&(u, _)| u > v && part[u as usize] != part[v as usize])
                .map(|(_, w)| w)
                .sum::<Wgt>()
        })
        .sum()
}

/// Per-part vertex weights of a k-way partition.
pub fn part_weights(g: &CsrGraph, part: &[u32], nparts: usize) -> Vec<Wgt> {
    assert_eq!(part.len(), g.n());
    let mut w = vec![0 as Wgt; nparts];
    for (&p, &vw) in part.iter().zip(g.vwgt()) {
        w[p as usize] += vw;
    }
    w
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
        .filter(|&v| {
            g.neighbors(v as Vid)
                .iter()
                .any(|&u| part[u as usize] != part[v])
        })
        .count()
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
