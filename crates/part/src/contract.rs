//! Graph contraction: build `G_{i+1}` from `G_i` and a matching, with a
//! **deterministic parallel two-pass kernel**.
//!
//! Multinode weights are the sums of their constituents' weights, parallel
//! edges fold by summing weights, and internal (contracted) edges disappear
//! from the structure but are accounted in `cewgt` so that HCM can measure
//! edge density at deeper levels. This maintains the key identity the paper
//! uses: `W(E_{i+1}) = W(E_i) − W(M_i)`, and makes the coarse edge-cut of a
//! partition equal the fine edge-cut of its projection.
//!
//! # Parallel scheme (count/fill with prefix-sum merge)
//!
//! The coarse vertex range is split into contiguous shards. **Pass 1**:
//! each shard independently builds the CSR rows it owns into private
//! buffers — per-row dedupe through a shard-local `pos` scratch, rows
//! sorted by coarse neighbor id (the canonical form the [`mlgp_graph`]
//! builder also produces). **Pass 2**: shard buffer lengths are prefix-
//! summed into global offsets and every shard copies its rows into its
//! disjoint slice of the final arrays in parallel.
//!
//! Each coarse row is a pure function of `(g, cmap)` — no cross-shard
//! state — and rows are emitted sorted, so the output is bit-identical for
//! every shard count.
//!
//! # One shard: in-place rows and transpose
//!
//! With one shard there is nothing to merge, so the kernel folds every
//! row straight into the CSR arrays, in first-seen neighbor order: `pos`
//! holds each coarse neighbor's absolute offset in `adjncy`/`adjwgt`, and
//! a parallel edge adds its weight there. The arrays are reserved to the
//! fine level's `nnz`, which bounds the coarse one, so they never grow, and
//! shrunk to their length once the rows are in. One counting-sort
//! transpose then sorts every row at once: row `c`'s entry
//! `(u, w)` is scattered to row `u` as `(c, w)`, rows taken in ascending
//! `c`. The coarse graph is symmetric, so its transpose is the same graph,
//! now with every row ascending — the sharded kernel's exact output, with
//! no per-row sort and no row buffer to copy out of. Both kernels fold
//! rows with the same `fold_row`.
//!
//! # Which kernel runs
//!
//! The level's size and the installed pool choose (`shards.rs`): a coarse
//! level below `MIN_PARALLEL_N` vertices, or any level under a one-thread
//! pool, takes the one-shard kernel, and a larger level under a wider pool
//! takes the sharded one. Neither kernel wins clearly where both can run.
//! On a 2-vCPU x86-64 host, over 10 alternating 45 s pairs of the
//! two-thread `nd-order` benchmark, the one-shard kernel at every level
//! gave p50 latency 0.236 s and peak RSS 46.0 MiB against 0.229 s and
//! 45.6 MiB for this choice, which was faster in 6 of the 10 pairs; both
//! gaps are inside the runs' quartile spread.

use crate::shards::{shard_bounds, shard_count};
use mlgp_graph::{CsrGraph, Vid, Wgt};
use rayon::prelude::*;

/// Result of one contraction step.
#[derive(Clone, Debug)]
pub struct Contraction {
    /// The coarser graph.
    pub graph: CsrGraph,
    /// Per-coarse-vertex total weight of edges contracted inside it (input
    /// `cewgt` of both constituents plus the matched edge's weight).
    pub cewgt: Vec<Wgt>,
}

/// Telemetry from one run of the parallel contraction kernel.
#[derive(Clone, Debug, Default)]
pub struct ContractStats {
    /// Coarse-range shards the kernel fanned out to.
    pub shards: usize,
    /// Fine adjacency entries scanned, per shard.
    pub entries: Vec<u64>,
}

/// Contract `g` according to `cmap` (from [`crate::matching::Matching::to_cmap`]).
///
/// `cewgt` carries the contracted-edge weight of each fine vertex (zeros at
/// the finest level).
pub fn contract(g: &CsrGraph, cmap: &[Vid], ncoarse: usize, cewgt: &[Wgt]) -> Contraction {
    contract_threads(g, cmap, ncoarse, cewgt, 0).0
}

/// Per-shard pass-1 output: the CSR rows of one contiguous coarse range.
struct ShardRows {
    lo: usize,
    hi: usize,
    /// Row-end offsets relative to this shard's first entry (len `hi-lo`).
    xadj: Vec<u32>,
    adjncy: Vec<Vid>,
    adjwgt: Vec<Wgt>,
    cvwgt: Vec<Wgt>,
    ccewgt: Vec<Wgt>,
    entries: u64,
}

/// [`contract`] with kernel telemetry. The shard count follows the coarse
/// level's size and the installed pool; `_threads` is ignored, and kept
/// only for callers that still pass one.
pub fn contract_threads(
    g: &CsrGraph,
    cmap: &[Vid],
    ncoarse: usize,
    cewgt: &[Wgt],
    _threads: usize,
) -> (Contraction, ContractStats) {
    let n = g.n();
    assert_eq!(cmap.len(), n);
    assert_eq!(cewgt.len(), n);
    // Constituents of each coarse vertex, in coarse order: counting sort.
    // O(n) and shared read-only by every shard.
    let mut ccount = vec![0u32; ncoarse + 1];
    for &c in cmap {
        ccount[c as usize + 1] += 1;
    }
    for i in 0..ncoarse {
        ccount[i + 1] += ccount[i];
    }
    let mut members = vec![0 as Vid; n];
    {
        let mut cursor = ccount[..ncoarse.max(1)].to_vec();
        for v in 0..n as Vid {
            let c = cmap[v as usize] as usize;
            members[cursor[c] as usize] = v;
            cursor[c] += 1;
        }
    }

    let members_of = |c: usize| &members[ccount[c] as usize..ccount[c + 1] as usize];

    let nshards = shard_count(ncoarse);
    if nshards == 1 {
        return contract_serial(g, cmap, ncoarse, cewgt, members_of);
    }
    // Pass 1: every shard builds its rows privately.
    let mut shards: Vec<ShardRows> = shard_bounds(ncoarse, nshards)
        .into_iter()
        .map(|(lo, hi)| ShardRows {
            lo,
            hi,
            xadj: Vec::with_capacity(hi - lo),
            adjncy: Vec::new(),
            adjwgt: Vec::new(),
            cvwgt: vec![0; hi - lo],
            ccewgt: vec![0; hi - lo],
            entries: 0,
        })
        .collect();
    shards
        .par_iter_mut()
        .enumerate()
        .with_min_len(1)
        .for_each(|(_, sh)| {
            let mut pos = vec![u32::MAX; ncoarse];
            let mut row: Vec<(Vid, Wgt)> = Vec::new();
            for c in sh.lo..sh.hi {
                let start = sh.adjncy.len();
                let (vw, cw) = fold_row(
                    g,
                    cmap,
                    cewgt,
                    members_of(c),
                    c,
                    &mut pos,
                    &mut sh.adjncy,
                    &mut sh.adjwgt,
                );
                sh.cvwgt[c - sh.lo] = vw;
                sh.ccewgt[c - sh.lo] = cw;
                // Canonical (sorted) row order — shard-count independent.
                let (ids, wgts) = (&mut sh.adjncy[start..], &mut sh.adjwgt[start..]);
                row.clear();
                row.extend(ids.iter().copied().zip(wgts.iter().copied()));
                row.sort_unstable_by_key(|&(u, _)| u);
                for (i, &(u, w)) in row.iter().enumerate() {
                    (ids[i], wgts[i]) = (u, w);
                }
                sh.xadj.push(sh.adjncy.len() as u32);
            }
            sh.entries = members[ccount[sh.lo] as usize..ccount[sh.hi] as usize]
                .iter()
                .map(|&v| g.degree(v) as u64)
                .sum();
        });

    // Pass 2: prefix-sum shard lengths, then copy every shard's rows into
    // its disjoint destination slice in parallel.
    let total: usize = shards.iter().map(|sh| sh.adjncy.len()).sum();
    let mut xadj = vec![0u32; ncoarse + 1];
    let mut adjncy = vec![0 as Vid; total];
    let mut adjwgt = vec![0 as Wgt; total];
    let mut cvwgt = vec![0 as Wgt; ncoarse];
    let mut ccewgt = vec![0 as Wgt; ncoarse];
    {
        /// One shard's disjoint destination slices in the final arrays.
        struct Dest<'a> {
            xadj: &'a mut [u32],
            adjncy: &'a mut [Vid],
            adjwgt: &'a mut [Wgt],
            cvwgt: &'a mut [Wgt],
            ccewgt: &'a mut [Wgt],
            base: u32,
            src: &'a ShardRows,
        }
        let mut dests: Vec<Dest<'_>> = Vec::with_capacity(shards.len());
        let (mut xr, mut ar, mut wr, mut vr, mut cr) = (
            &mut xadj[1..],
            &mut adjncy[..],
            &mut adjwgt[..],
            &mut cvwgt[..],
            &mut ccewgt[..],
        );
        let mut base = 0u32;
        for sh in &shards {
            let rows = sh.hi - sh.lo;
            let len = sh.adjncy.len();
            let (xd, xrest) = xr.split_at_mut(rows);
            let (ad, arest) = ar.split_at_mut(len);
            let (wd, wrest) = wr.split_at_mut(len);
            let (vd, vrest) = vr.split_at_mut(rows);
            let (cd, crest) = cr.split_at_mut(rows);
            dests.push(Dest {
                xadj: xd,
                adjncy: ad,
                adjwgt: wd,
                cvwgt: vd,
                ccewgt: cd,
                base,
                src: sh,
            });
            xr = xrest;
            ar = arest;
            wr = wrest;
            vr = vrest;
            cr = crest;
            base += len as u32;
        }
        dests
            .par_iter_mut()
            .enumerate()
            .with_min_len(1)
            .for_each(|(_, d)| {
                for (i, &end) in d.src.xadj.iter().enumerate() {
                    d.xadj[i] = d.base + end;
                }
                d.adjncy.copy_from_slice(&d.src.adjncy);
                d.adjwgt.copy_from_slice(&d.src.adjwgt);
                d.cvwgt.copy_from_slice(&d.src.cvwgt);
                d.ccewgt.copy_from_slice(&d.src.ccewgt);
            });
    }
    let stats = ContractStats {
        shards: nshards,
        entries: shards.iter().map(|sh| sh.entries).collect(),
    };
    (
        Contraction {
            graph: CsrGraph::from_parts_unchecked(xadj, adjncy, cvwgt, adjwgt),
            cewgt: ccewgt,
        },
        stats,
    )
}

/// The one-shard kernel: rows are folded in place into the CSR arrays in
/// first-seen order, then one counting-sort transpose sorts them all. The
/// coarse graph is symmetric, so its transpose is the same graph, and
/// scattering rows in ascending order leaves every transposed row
/// ascending: the sharded kernel's canonical form, without a per-row sort
/// or a row buffer.
fn contract_serial<'a>(
    g: &CsrGraph,
    cmap: &[Vid],
    ncoarse: usize,
    cewgt: &[Wgt],
    members_of: impl Fn(usize) -> &'a [Vid],
) -> (Contraction, ContractStats) {
    let mut xadj = Vec::with_capacity(ncoarse + 1);
    xadj.push(0u32);
    // The coarse level has at most the fine level's entries.
    let mut adjncy: Vec<Vid> = Vec::with_capacity(g.nnz());
    let mut adjwgt: Vec<Wgt> = Vec::with_capacity(g.nnz());
    let mut cvwgt = vec![0 as Wgt; ncoarse];
    let mut ccewgt = vec![0 as Wgt; ncoarse];
    let mut pos = vec![u32::MAX; ncoarse];
    for c in 0..ncoarse {
        (cvwgt[c], ccewgt[c]) = fold_row(
            g,
            cmap,
            cewgt,
            members_of(c),
            c,
            &mut pos,
            &mut adjncy,
            &mut adjwgt,
        );
        xadj.push(adjncy.len() as u32);
    }
    // Hand the unused tail back before the transpose allocates: with it
    // kept, the two-thread `nd-order` benchmark's peak RSS read about
    // 1.5 MiB (3 %) higher.
    adjncy.shrink_to_fit();
    adjwgt.shrink_to_fit();
    // Transpose: row `c`'s entry `(u, w)` lands in row `u` as `(c, w)`.
    // Row lengths carry over unchanged, since the graph is symmetric.
    let mut cursor = xadj[..ncoarse].to_vec();
    let mut sorted_adjncy = vec![0 as Vid; adjncy.len()];
    let mut sorted_adjwgt = vec![0 as Wgt; adjwgt.len()];
    for c in 0..ncoarse {
        let row = xadj[c] as usize..xadj[c + 1] as usize;
        for (&u, &w) in adjncy[row.clone()].iter().zip(&adjwgt[row]) {
            let slot = &mut cursor[u as usize];
            sorted_adjncy[*slot as usize] = c as Vid;
            sorted_adjwgt[*slot as usize] = w;
            *slot += 1;
        }
    }
    debug_assert!(cursor.iter().zip(&xadj[1..]).all(|(a, b)| a == b));
    (
        Contraction {
            graph: CsrGraph::from_parts_unchecked(xadj, sorted_adjncy, cvwgt, sorted_adjwgt),
            cewgt: ccewgt,
        },
        ContractStats {
            shards: 1,
            entries: vec![g.nnz() as u64],
        },
    )
}

/// Fold coarse vertex `c`'s row from its constituents `members` onto the
/// ends of `adjncy`/`adjwgt`: edges to other coarse vertices in first-seen
/// order, parallel edges summed. Returns `c`'s vertex weight and
/// contracted-edge weight. `pos` maps a coarse neighbor to its absolute
/// offset in the arrays; it must be all `u32::MAX` on entry and is again
/// on return.
#[inline]
#[allow(clippy::too_many_arguments)]
fn fold_row(
    g: &CsrGraph,
    cmap: &[Vid],
    cewgt: &[Wgt],
    members: &[Vid],
    c: usize,
    pos: &mut [u32],
    adjncy: &mut Vec<Vid>,
    adjwgt: &mut Vec<Wgt>,
) -> (Wgt, Wgt) {
    let start = adjncy.len();
    let (mut vwgt, mut cw, mut internal) = (0 as Wgt, 0 as Wgt, 0 as Wgt);
    for &v in members {
        vwgt += g.vwgt()[v as usize];
        cw += cewgt[v as usize];
        for (u, w) in g.adj(v) {
            let cu = cmap[u as usize];
            if cu as usize == c {
                internal += w; // counted from both endpoints => 2w total
                continue;
            }
            let p = pos[cu as usize];
            if p == u32::MAX {
                pos[cu as usize] = adjncy.len() as u32;
                adjncy.push(cu);
                adjwgt.push(w);
            } else {
                adjwgt[p as usize] += w;
            }
        }
    }
    for &u in &adjncy[start..] {
        pos[u as usize] = u32::MAX;
    }
    // Each internal edge was seen from both endpoints.
    debug_assert_eq!(internal % 2, 0);
    (vwgt, cw + internal / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatchingScheme;
    use crate::matching::compute_matching;
    use crate::shards::{shard_counts, with_shards};
    use mlgp_graph::generators::{grid2d, powerlaw, tri_mesh2d};
    use mlgp_graph::rng::seeded;
    use mlgp_graph::GraphBuilder;
    use rand::RngExt;

    #[test]
    fn contract_square_pairwise() {
        // Square 0-1-2-3-0; match (0,1) and (2,3).
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(3, 0);
        let g = b.build();
        let cmap = vec![0, 0, 1, 1];
        let c = contract(&g, &cmap, 2, &[0; 4]);
        assert_eq!(c.graph.n(), 2);
        assert_eq!(c.graph.m(), 1);
        // Two parallel fine edges (1-2 and 3-0) fold to weight 2.
        assert_eq!(c.graph.edge_weights(0), &[2]);
        assert_eq!(c.graph.vwgt(), &[2, 2]);
        // One unit edge contracted inside each multinode.
        assert_eq!(c.cewgt, vec![1, 1]);
        assert!(c.graph.validate().is_ok());
    }

    #[test]
    fn weight_conservation_identity() {
        // W(E_{i+1}) = W(E_i) − W(M_i) for any matching-based contraction.
        let g = tri_mesh2d(10, 8, 5);
        let cewgt = vec![0; g.n()];
        for scheme in MatchingScheme::all() {
            let m = compute_matching(&g, scheme, &cewgt, &mut seeded(3));
            let matched_weight: Wgt = (0..g.n() as Vid)
                .map(|v| {
                    let p = m.partner[v as usize];
                    if p > v {
                        g.adj(v).find(|&(u, _)| u == p).unwrap().1
                    } else {
                        0
                    }
                })
                .sum();
            let (cmap, nc) = m.to_cmap();
            let c = contract(&g, &cmap, nc, &cewgt);
            assert_eq!(
                c.graph.total_adjwgt(),
                g.total_adjwgt() - matched_weight,
                "{scheme:?}"
            );
            assert_eq!(c.graph.total_vwgt(), g.total_vwgt());
            assert!(c.graph.validate().is_ok());
            // cewgt sums to the total contracted weight.
            assert_eq!(c.cewgt.iter().sum::<Wgt>(), matched_weight);
        }
    }

    #[test]
    fn projected_cut_is_preserved() {
        // A coarse partition's cut equals the projected fine partition's cut.
        let g = grid2d(8, 6);
        let cewgt = vec![0; g.n()];
        let m = compute_matching(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(11));
        let (cmap, nc) = m.to_cmap();
        let c = contract(&g, &cmap, nc, &cewgt);
        // Arbitrary coarse bisection.
        let cpart: Vec<u8> = (0..nc).map(|i| (i % 2) as u8).collect();
        let fpart: Vec<u8> = (0..g.n()).map(|v| cpart[cmap[v] as usize]).collect();
        assert_eq!(
            crate::metrics::edge_cut_bisection(&c.graph, &cpart),
            crate::metrics::edge_cut_bisection(&g, &fpart)
        );
    }

    #[test]
    fn identity_contraction() {
        // Empty matching: coarse graph == fine graph.
        let g = grid2d(4, 4);
        let cmap: Vec<Vid> = (0..g.n() as Vid).collect();
        let c = contract(&g, &cmap, g.n(), &vec![0; g.n()]);
        assert_eq!(c.graph, g);
        assert_eq!(c.cewgt, vec![0; g.n()]);
    }

    /// Contract at a forced shard count, whatever the level size.
    fn contract_at(
        shards: usize,
        g: &CsrGraph,
        cmap: &[Vid],
        nc: usize,
        cewgt: &[Wgt],
    ) -> (Contraction, ContractStats) {
        with_shards(shards, || contract_threads(g, cmap, nc, cewgt, 0))
    }

    #[test]
    fn shard_count_does_not_change_the_graph() {
        let g = tri_mesh2d(20, 16, 9);
        let cewgt = vec![0; g.n()];
        let m = compute_matching(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(7));
        let (cmap, nc) = m.to_cmap();
        let (reference, s1) = contract_at(1, &g, &cmap, nc, &cewgt);
        assert_eq!(s1.shards, 1);
        for shards in shard_counts() {
            let (c, st) = contract_at(shards, &g, &cmap, nc, &cewgt);
            assert_eq!(st.shards, shards);
            assert_eq!(c.graph, reference.graph, "{shards} shards");
            assert_eq!(c.cewgt, reference.cewgt);
            // Every fine adjacency entry is scanned exactly once.
            assert_eq!(st.entries.iter().sum::<u64>(), g.nnz() as u64);
        }
    }

    #[test]
    fn level_size_and_pool_pick_the_shard_count() {
        // An identity map keeps every vertex, so the coarse level is as
        // large as the fine one: below the floor on the small grid, above
        // it on the large one. The thread count passed in is ignored.
        mlgp_linalg::with_fanout(2, || {
            for (side, want) in [(40, 1), (100, 2)] {
                let g = grid2d(side, side);
                let cmap: Vec<Vid> = (0..g.n() as Vid).collect();
                let (c, st) = contract_threads(&g, &cmap, g.n(), &vec![0; g.n()], 2);
                assert_eq!(st.shards, want, "{} coarse vertices", g.n());
                assert_eq!(c.graph, g);
            }
        });
    }

    #[test]
    fn one_shard_direct_build_matches_three_shards() {
        // Hub rows fold many fine edges into few coarse neighbors, so
        // first-seen order is far from sorted; two levels give nonzero
        // `cewgt` and weighted edges and vertices.
        let mut g = powerlaw(3000, 3, 21);
        assert!(g.max_degree() > 100, "expected hub rows");
        let mut cewgt = vec![0; g.n()];
        for level in 0..3 {
            let m = compute_matching(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(level));
            let (cmap, nc) = m.to_cmap();
            let (one, s1) = contract_at(1, &g, &cmap, nc, &cewgt);
            let (three, s3) = contract_at(3, &g, &cmap, nc, &cewgt);
            assert_eq!((s1.shards, s3.shards), (1, 3));
            assert_eq!(one.graph, three.graph, "level {level}");
            assert_eq!(one.cewgt, three.cewgt, "level {level}");
            assert_eq!(s1.entries, vec![g.nnz() as u64]);
            assert_eq!(s3.entries.iter().sum::<u64>(), g.nnz() as u64);
            assert!(one.graph.validate().is_ok());
            g = one.graph;
            cewgt = one.cewgt;
        }
        assert!(cewgt.iter().any(|&w| w > 0));
        assert!(g.adjwgt().iter().any(|&w| w > 1));
        // Any map works, not only a matching's: scattered five-way merges.
        let nc = g.n() / 5;
        let cmap: Vec<Vid> = (0..g.n() as Vid).map(|v| v % nc as Vid).collect();
        let (one, _) = contract_at(1, &g, &cmap, nc, &cewgt);
        let (three, _) = contract_at(3, &g, &cmap, nc, &cewgt);
        assert_eq!(one.graph, three.graph);
        assert_eq!(one.cewgt, three.cewgt);
    }

    #[test]
    fn sharded_kernel_matches_one_shard_on_random_graphs() {
        // Small random graphs with weighted edges, every scheme, shard
        // counts up to more than some levels have coarse vertices.
        for seed in 0..24u64 {
            let mut rng = seeded(seed);
            let n = 4 + rng.random_range(0..120usize);
            let mut b = GraphBuilder::new(n);
            for v in 1..n {
                let u = rng.random_range(0..v);
                b.add_weighted_edge(v as Vid, u as Vid, 1 + rng.random_range(0..6));
            }
            for _ in 0..rng.random_range(0..180usize) {
                let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                if u != v {
                    b.add_weighted_edge(u as Vid, v as Vid, 1 + rng.random_range(0..6));
                }
            }
            let g = b.build();
            let cewgt = vec![0; g.n()];
            for scheme in MatchingScheme::all() {
                let m = compute_matching(&g, scheme, &cewgt, &mut seeded(seed ^ 5));
                let (cmap, nc) = m.to_cmap();
                let (one, _) = contract_at(1, &g, &cmap, nc, &cewgt);
                for shards in [2, 5, 8] {
                    let (c, _) = contract_at(shards, &g, &cmap, nc, &cewgt);
                    assert_eq!(c.graph, one.graph, "seed {seed} {scheme:?} {shards} shards");
                    assert_eq!(c.cewgt, one.cewgt);
                }
            }
        }
    }

    #[test]
    fn rows_are_sorted() {
        let g = tri_mesh2d(14, 11, 2);
        let cewgt = vec![0; g.n()];
        let m = compute_matching(&g, MatchingScheme::Random, &cewgt, &mut seeded(4));
        let (cmap, nc) = m.to_cmap();
        let c = contract(&g, &cmap, nc, &cewgt);
        for v in 0..c.graph.n() as Vid {
            let nb = c.graph.neighbors(v);
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "row {v} not sorted");
        }
    }
}
