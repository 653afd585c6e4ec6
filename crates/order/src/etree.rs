//! Elimination trees and symbolic Cholesky statistics.
//!
//! Given a graph (the structure of a symmetric matrix) and an elimination
//! ordering, compute the elimination tree (Liu's algorithm with path
//! compression), the exact column counts of the Cholesky factor
//! (Gilbert-Ng-Peyton, near-linear in the graph and never touching the
//! fill), and from them the quantities §4.3 compares: factor nonzeros,
//! factorization operation count, and elimination tree height (the paper's
//! concurrency argument for nested dissection over MMD).

use mlgp_graph::{CsrGraph, Permutation};

/// Elimination tree in elimination order: `parent[j]` is the parent of the
/// j-th eliminated vertex (also in elimination order), or `u32::MAX` for
/// roots.
pub fn elimination_tree(g: &CsrGraph, p: &Permutation) -> Vec<u32> {
    const NONE: u32 = u32::MAX;
    let n = g.n();
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for j in 0..n as u32 {
        let v = p.iperm()[j as usize]; // original vertex eliminated at step j
        for &u in g.neighbors(v) {
            // Walk from each earlier-eliminated neighbor up to its root,
            // compressing paths onto j.
            let mut i = p.perm()[u as usize];
            if i >= j {
                continue;
            }
            while ancestor[i as usize] != NONE && ancestor[i as usize] != j {
                let next = ancestor[i as usize];
                ancestor[i as usize] = j;
                i = next;
            }
            if ancestor[i as usize] == NONE {
                ancestor[i as usize] = j;
                parent[i as usize] = j;
            }
        }
    }
    parent
}

/// Exact column counts of the Cholesky factor, **excluding** the diagonal,
/// indexed by elimination step.
///
/// Gilbert, Ng and Peyton's skeleton-matrix algorithm (as in CSparse's
/// `cs_counts`): a column's count is the number of row subtrees it lies in,
/// and each row subtree is the union of the tree paths from its leaves up
/// to the row. Numbering the tree in postorder makes those leaves the
/// entries whose column starts a new subtree past the row's previous leaf;
/// each leaf adds one to its column, and each leaf after the first takes
/// one off the least common ancestor it shares with the previous leaf,
/// where the two paths merge. Summing these deltas up the tree gives the
/// counts in `O(m α(m, n))` time, independent of the fill.
///
/// `parent` must be [`elimination_tree`]`(g, p)`.
pub fn column_counts(g: &CsrGraph, p: &Permutation, parent: &[u32]) -> Vec<u64> {
    const NONE: u32 = u32::MAX;
    let n = g.n();
    let post = postorder(parent);
    // first[j]: postorder index of j's first descendant. delta[j] starts at
    // 1 for a leaf, whose row subtree holds its diagonal alone.
    let mut first = vec![NONE; n];
    let mut delta = vec![0i64; n];
    for (k, &j) in post.iter().enumerate() {
        delta[j as usize] = i64::from(first[j as usize] == NONE);
        let mut a = j;
        while a != NONE && first[a as usize] == NONE {
            first[a as usize] = k as u32;
            a = parent[a as usize];
        }
    }
    // Per row i: the largest `first` among its leaves so far, its previous
    // leaf, and a path-compressed union-find over finished subtrees.
    let mut maxfirst = vec![NONE; n];
    let mut prevleaf = vec![NONE; n];
    let mut ancestor: Vec<u32> = (0..n as u32).collect();
    for &j in &post {
        let pj = parent[j as usize];
        if pj != NONE {
            delta[pj as usize] -= 1; // j is not a root
        }
        let fj = first[j as usize];
        for &u in g.neighbors(p.iperm()[j as usize]) {
            let i = p.perm()[u as usize];
            let iu = i as usize;
            // Only entries below the diagonal count, and A(i, j) is a
            // skeleton entry (j a leaf of row i's subtree) only if j's
            // subtree holds none of row i's earlier leaves.
            if i <= j || (maxfirst[iu] != NONE && fj <= maxfirst[iu]) {
                continue;
            }
            maxfirst[iu] = fj;
            let jprev = prevleaf[iu];
            prevleaf[iu] = j;
            delta[j as usize] += 1;
            if jprev != NONE {
                // Subsequent leaf: the paths from jprev and j overlap from
                // their least common ancestor q upward.
                let mut q = jprev;
                while ancestor[q as usize] != q {
                    q = ancestor[q as usize];
                }
                let mut s = jprev;
                while s != q {
                    let next = ancestor[s as usize];
                    ancestor[s as usize] = q;
                    s = next;
                }
                delta[q as usize] -= 1;
            }
        }
        if pj != NONE {
            ancestor[j as usize] = pj;
        }
    }
    // parent[j] > j, so one ascending sweep sums every subtree.
    for j in 0..n {
        let pj = parent[j];
        if pj != NONE {
            delta[pj as usize] += delta[j];
        }
    }
    // Each count includes the diagonal, which is at least 1.
    delta.into_iter().map(|c| c as u64 - 1).collect()
}

/// A postorder of the elimination forest `parent` (children before their
/// parent, each subtree contiguous), children visited in ascending order.
fn postorder(parent: &[u32]) -> Vec<u32> {
    const NONE: u32 = u32::MAX;
    let n = parent.len();
    // Child lists: head[p] is p's first child, next[c] its next sibling.
    let mut head = vec![NONE; n];
    let mut next = vec![NONE; n];
    for j in (0..n).rev() {
        let pj = parent[j];
        if pj != NONE {
            next[j] = head[pj as usize];
            head[pj as usize] = j as u32;
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack: Vec<u32> = Vec::new();
    for root in (0..n).filter(|&j| parent[j] == NONE) {
        stack.push(root as u32);
        while let Some(&top) = stack.last() {
            let child = head[top as usize];
            if child == NONE {
                stack.pop();
                post.push(top);
            } else {
                // Detach the child so `top` is finished once it runs out.
                head[top as usize] = next[child as usize];
                stack.push(child);
            }
        }
    }
    post
}

/// Height of the elimination tree (longest root-to-leaf path, in vertices).
/// Lower is better for parallel factorization.
pub fn etree_height(parent: &[u32]) -> usize {
    const NONE: u32 = u32::MAX;
    let n = parent.len();
    let mut depth = vec![0u32; n];
    let mut best = 0;
    // depth[j] is the longest chain of vertices ending at j from below.
    // Every child precedes its parent (parent[j] > j), so an ascending sweep
    // finishes each vertex before it pushes its depth to the parent.
    for j in 0..n {
        let d = depth[j] + 1;
        best = best.max(d);
        let pj = parent[j];
        if pj != NONE {
            depth[pj as usize] = depth[pj as usize].max(d);
        }
    }
    best as usize
}

/// Symbolic factorization summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SymbolicStats {
    /// Nonzeros of the Cholesky factor `L`, including the diagonal.
    pub nnz_l: u64,
    /// Factorization operation count `Σ_j ℓ_j (ℓ_j + 3) / 2` where `ℓ_j` is
    /// the off-diagonal count of column `j` (classic George-Liu opcount).
    pub opcount: f64,
    /// Elimination tree height (concurrency proxy; smaller = more
    /// parallelism).
    pub height: usize,
}

/// Analyze the fill-reducing quality of an ordering.
pub fn analyze_ordering(g: &CsrGraph, p: &Permutation) -> SymbolicStats {
    assert_eq!(g.n(), p.len());
    let parent = elimination_tree(g, p);
    let counts = column_counts(g, p, &parent);
    let nnz_l = g.n() as u64 + counts.iter().sum::<u64>();
    let opcount = counts
        .iter()
        .map(|&c| {
            let c = c as f64;
            c * (c + 3.0) / 2.0
        })
        .sum();
    SymbolicStats {
        nnz_l,
        opcount,
        height: etree_height(&parent),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgp_graph::generators::{grid2d, powerlaw, stiffness3d, tri_mesh2d};
    use mlgp_graph::rng::seeded;
    use mlgp_graph::GraphBuilder;
    use mlgp_graph::Vid;
    use rand::RngExt;

    /// The row-subtree kernel Gilbert-Ng-Peyton replaced: for every entry
    /// of row i, climb the elimination tree toward i and count each column
    /// met, `O(nnz(L))` in all. Kept as the oracle for [`column_counts`].
    fn row_subtree_counts(g: &CsrGraph, p: &Permutation, parent: &[u32]) -> Vec<u64> {
        const NONE: u32 = u32::MAX;
        let n = g.n();
        let mut counts = vec![0u64; n];
        // marker[j] == i means column j was already visited for row i.
        let mut marker = vec![NONE; n];
        for i in 0..n as u32 {
            let v = p.iperm()[i as usize];
            marker[i as usize] = i;
            for &u in g.neighbors(v) {
                let mut j = p.perm()[u as usize];
                if j >= i {
                    continue;
                }
                while marker[j as usize] != i {
                    marker[j as usize] = i;
                    counts[j as usize] += 1;
                    let pj = parent[j as usize];
                    if pj == NONE {
                        break;
                    }
                    j = pj;
                }
            }
        }
        counts
    }

    fn assert_counts_match_oracle(g: &CsrGraph, p: &Permutation, what: &str) {
        let parent = elimination_tree(g, p);
        assert_eq!(
            column_counts(g, p, &parent),
            row_subtree_counts(g, p, &parent),
            "{what}"
        );
    }

    /// Random graph on `n` vertices with `m` edge draws, possibly
    /// disconnected and with isolated vertices.
    fn random_graph(n: usize, m: usize, seed: u64) -> CsrGraph {
        let mut rng = seeded(seed);
        let mut b = GraphBuilder::new(n);
        for _ in 0..m {
            let u = rng.random_range(0..n) as Vid;
            let v = rng.random_range(0..n) as Vid;
            if u != v {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    #[test]
    fn gnp_counts_match_the_row_subtree_oracle() {
        let meshes = [
            ("grid2d", grid2d(13, 9)),
            ("tri_mesh2d", tri_mesh2d(12, 12, 4)),
            ("stiffness3d", stiffness3d(5, 5, 5)),
            ("powerlaw", powerlaw(300, 2, 8)),
        ];
        for (name, g) in &meshes {
            let n = g.n();
            assert_counts_match_oracle(g, &Permutation::identity(n), name);
            for seed in 0..4 {
                let p = Permutation::random(n, &mut seeded(seed));
                assert_counts_match_oracle(g, &p, &format!("{name} seed {seed}"));
            }
        }
        // Sparse random graphs fall apart into several components, so the
        // elimination tree is a forest.
        for seed in 0..40 {
            let n = 1 + (seed as usize * 7) % 60;
            let g = random_graph(n, n * (seed as usize % 4) / 2, seed);
            let p = Permutation::random(n, &mut seeded(seed ^ 0x55));
            assert_counts_match_oracle(&g, &p, &format!("random n {n} seed {seed}"));
        }
    }

    #[test]
    fn postorder_keeps_subtrees_contiguous() {
        // A forest whose natural order is not a postorder: 2's subtree is
        // {0, 2}, split by 1. The root 3 visits its children 1, 2 in order.
        let parent = [2, 3, 3, u32::MAX, u32::MAX];
        assert_eq!(postorder(&parent), vec![1, 0, 2, 3, 4]);
    }

    fn path(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as Vid, i as Vid + 1);
        }
        b.build()
    }

    #[test]
    fn path_natural_order_no_fill() {
        // Tridiagonal matrix in natural order: L is bidiagonal, zero fill.
        let g = path(6);
        let p = Permutation::identity(6);
        let s = analyze_ordering(&g, &p);
        assert_eq!(s.nnz_l, 6 + 5);
        assert_eq!(s.height, 6); // etree is a chain
        assert!((s.opcount - 5.0 * 2.0).abs() < 1e-12); // each ℓ_j = 1 => 2 ops
    }

    #[test]
    fn path_worst_order_fills() {
        // Eliminating the middle of a path first creates fill.
        let g = path(5);
        // Order: 2 first, then 0,1,3,4.
        let p = Permutation::from_inverse(vec![2, 0, 1, 3, 4]);
        let s = analyze_ordering(&g, &p);
        let natural = analyze_ordering(&g, &Permutation::identity(5));
        assert!(s.nnz_l > natural.nnz_l, "{} vs {}", s.nnz_l, natural.nnz_l);
    }

    #[test]
    fn star_center_last_is_optimal() {
        // Star K1,4: eliminating leaves first gives zero fill; center first
        // fills completely.
        let mut b = GraphBuilder::new(5);
        for i in 1..5 {
            b.add_edge(0, i);
        }
        let g = b.build();
        let center_last = Permutation::from_inverse(vec![1, 2, 3, 4, 0]);
        let center_first = Permutation::from_inverse(vec![0, 1, 2, 3, 4]);
        let good = analyze_ordering(&g, &center_last);
        let bad = analyze_ordering(&g, &center_first);
        assert_eq!(good.nnz_l, 5 + 4);
        // Center first: clique on remaining 4 => dense L.
        assert_eq!(bad.nnz_l, 5 + 4 + 3 + 2 + 1);
        assert!(good.opcount < bad.opcount);
        // Star ordered leaves-first has a flat etree.
        assert_eq!(good.height, 2);
    }

    #[test]
    fn etree_of_path_identity_is_chain() {
        let g = path(4);
        let parent = elimination_tree(&g, &Permutation::identity(4));
        assert_eq!(parent, vec![1, 2, 3, u32::MAX]);
    }

    #[test]
    fn counts_match_dense_simulation_on_grid() {
        // Brute-force symbolic elimination on a small grid must agree.
        let g = grid2d(4, 4);
        let p = Permutation::identity(16);
        let s = analyze_ordering(&g, &p);
        // Brute force: maintain adjacency sets, eliminate in order.
        let n = 16usize;
        let mut adj: Vec<std::collections::BTreeSet<usize>> = (0..n)
            .map(|v| g.neighbors(v as Vid).iter().map(|&u| u as usize).collect())
            .collect();
        let mut nnz = n as u64;
        let mut ops = 0.0;
        for v in 0..n {
            let higher: Vec<usize> = adj[v].iter().copied().filter(|&u| u > v).collect();
            nnz += higher.len() as u64;
            let l = higher.len() as f64;
            ops += l * (l + 3.0) / 2.0;
            for i in 0..higher.len() {
                for j in (i + 1)..higher.len() {
                    let (a, b) = (higher[i], higher[j]);
                    adj[a].insert(b);
                    adj[b].insert(a);
                }
            }
        }
        assert_eq!(s.nnz_l, nnz);
        assert!((s.opcount - ops).abs() < 1e-9, "{} vs {}", s.opcount, ops);
    }

    #[test]
    fn permutation_of_labels_does_not_change_natural_stats() {
        // Analyzing (g, p) must equal analyzing (permuted graph, identity).
        let g = grid2d(5, 3);
        let p = Permutation::from_forward((0..15u32).map(|i| (i * 7) % 15).collect());
        let s1 = analyze_ordering(&g, &p);
        let gp = mlgp_graph::permute_graph(&g, &p);
        let s2 = analyze_ordering(&gp, &Permutation::identity(15));
        assert_eq!(s1, s2);
    }
}
