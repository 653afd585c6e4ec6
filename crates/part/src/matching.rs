//! Maximal matchings for coarsening (§3.1 of the paper), computed by a
//! **deterministic serial kernel**.
//!
//! All four schemes pick, for each vertex, the unmatched neighbor that
//! maximizes a scheme-specific edge score:
//!
//! * **RM** scores edges by a seeded hash (a random maximal matching);
//! * **HEM** scores by edge weight (maximizing the matched weight `W(M)`
//!   and hence, since `W(E_{i+1}) = W(E_i) − W(M_i)`, minimizing the coarse
//!   graph's edge weight);
//! * **LEM** scores by negated weight (the contrast scheme);
//! * **HCM** scores by the *edge density* of the merged multinode,
//!   `(cewgt(u) + cewgt(v) + w(u,v)) / (s(s−1)/2)` with
//!   `s = vwgt(u) + vwgt(v)`, approximating the clique-finding coarseners.
//!
//! # The matching (determinism contract)
//!
//! Edges compare by the total order `(score, rmin, rmax)`, where
//! `rmin`/`rmax` are the smaller/larger of the two endpoints' ranks in a
//! seeded random permutation. The key is *symmetric* (both endpoints
//! compute the same key for the same edge) and *strict* (ranks are
//! distinct). The matching is the **greedy matching** under that key: take
//! edges in descending key order while both ends are free. There are no
//! rounds and no bound; the result is a pure function of
//! `(graph, scheme, seed)`, whatever pool it runs in.
//!
//! # Chain following
//!
//! The general kernel finds the greedy matching without sorting the edges.
//! It follows `v → best(v)` on a stack until two vertices are each other's
//! best, matches them and backs up one step. Keys rise strictly along the
//! walk, so it always ends at such a mutual pair, and a mutual pair is the
//! best edge left at both its ends: greedy takes it too, whatever else is
//! matched around it (DESIGN §10).
//!
//! # Equal-weight levels: the rank sweep
//!
//! When every edge of a level has the same weight, HEM and LEM give every
//! edge the same score, so keys compare by `(rmin, rmax)` alone and greedy
//! takes edges in descending rank of their lower endpoint. The rank sweep
//! visits vertices in descending rank and matches each unmatched vertex to
//! its highest-ranked unmatched neighbor ranked above it. When the sweep
//! reaches `v`, greedy has decided exactly the edges whose lower endpoint
//! ranks above `v` (the vertices already swept), and `v`'s own edges as
//! the lower endpoint come next, best `rmax` first: the sweep takes the
//! same edge greedy does. It reads each unmatched vertex's row once and
//! needs neither the memo nor any keys. Level 0 of a unit-weight input
//! always takes it; RM, HCM and weighted levels take the chain walk.
//!
//! # Cost: the candidate memo
//!
//! Each vertex keeps a memo of the `MEMO_K` = 4 best unmatched neighbors
//! found by its last full scan, in key order. Within one call every edge
//! key is fixed and the set of unmatched vertices only shrinks, so the
//! first memo entry that is still unmatched *is* the vertex's current
//! best: a neighbor left out of the memo ranked below every entry, or was
//! already matched. A vertex rescans its adjacency only when every
//! remembered candidate has been matched, and has no best without a
//! rescan when its last scan saw no unmatched neighbor beyond the memo.
//! The chain walk reads about 1× nnz in rescans.

use crate::config::MatchingScheme;
use mlgp_graph::rng::random_order;
use mlgp_graph::{CsrGraph, Vid, Wgt};
use rand::Rng;

/// A matching: `partner[v] == v` iff `v` is unmatched.
#[derive(Clone, Debug)]
pub struct Matching {
    /// Matched partner of each vertex (self if unmatched).
    pub partner: Vec<Vid>,
    /// Number of matched pairs.
    pub pairs: usize,
}

/// Telemetry from one run of the matching kernel.
#[derive(Clone, Debug, Default)]
pub struct MatchStats {
    /// Unmeasured, always 0: the kernel runs no handshake rounds. Kept only
    /// while the benchmark's traced run still reads it.
    pub rounds: usize,
    /// Unmeasured, always `false`: there is no round bound to fall back
    /// from. Kept for the same reason as `rounds`.
    pub fallback: bool,
    /// Adjacency entries read: the chain walk's full rescans, or the rows
    /// the rank sweep reads. Candidates answered from a vertex's memo read
    /// no adjacency and are not counted.
    pub edges_scanned: u64,
}

impl Matching {
    /// Validate matching invariants: symmetry and no double-matching.
    pub fn validate(&self, g: &CsrGraph) -> Result<(), String> {
        if self.partner.len() != g.n() {
            return Err("partner length mismatch".into());
        }
        let mut pairs = 0;
        for v in 0..g.n() as Vid {
            let p = self.partner[v as usize];
            if p as usize >= g.n() {
                return Err(format!("partner of {v} out of range"));
            }
            if self.partner[p as usize] != v {
                return Err(format!("matching not symmetric at {v}"));
            }
            if p != v {
                if !g.neighbors(v).contains(&p) {
                    return Err(format!("matched pair ({v},{p}) is not an edge"));
                }
                if p > v {
                    pairs += 1;
                }
            }
        }
        if pairs != self.pairs {
            return Err(format!("pair count {} != recorded {}", pairs, self.pairs));
        }
        Ok(())
    }

    /// Check maximality: no edge with both endpoints unmatched.
    pub fn is_maximal(&self, g: &CsrGraph) -> bool {
        for v in 0..g.n() as Vid {
            if self.partner[v as usize] == v {
                for &u in g.neighbors(v) {
                    if self.partner[u as usize] == u {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Derive the coarse-vertex map: `(cmap, ncoarse)` where matched pairs
    /// share a coarse id. Coarse ids are assigned in fine-vertex order.
    pub fn to_cmap(&self) -> (Vec<Vid>, usize) {
        let n = self.partner.len();
        let mut cmap = vec![Vid::MAX; n];
        let mut next = 0 as Vid;
        for v in 0..n as Vid {
            if cmap[v as usize] == Vid::MAX {
                cmap[v as usize] = next;
                let p = self.partner[v as usize];
                if p != v {
                    cmap[p as usize] = next;
                }
                next += 1;
            }
        }
        (cmap, next as usize)
    }
}

/// Sentinel for "no candidate" and for an empty memo slot.
const NONE: u32 = u32::MAX;

/// Candidates remembered per vertex.
const MEMO_K: usize = 4;

/// Compute a maximal matching with the given scheme.
///
/// `cewgt[v]` is the total weight of edges already contracted inside
/// multinode `v` (zeros at the finest level); only HCM consults it.
pub fn compute_matching<R: Rng>(
    g: &CsrGraph,
    scheme: MatchingScheme,
    cewgt: &[Wgt],
    rng: &mut R,
) -> Matching {
    compute_matching_threads(g, scheme, cewgt, rng, 0).0
}

/// [`compute_matching`] with kernel telemetry. The kernel is serial and
/// `_threads` is ignored, kept only for callers that still pass one.
pub fn compute_matching_threads<R: Rng>(
    g: &CsrGraph,
    scheme: MatchingScheme,
    cewgt: &[Wgt],
    rng: &mut R,
    _threads: usize,
) -> (Matching, MatchStats) {
    greedy_matching(g, scheme, cewgt, rng, true)
}

/// The greedy matching under the edge key. Equal-score levels take the
/// rank sweep when `rank_sweep` is set, every other level the chain walk;
/// both give the same matching (module docs).
fn greedy_matching<R: Rng>(
    g: &CsrGraph,
    scheme: MatchingScheme,
    cewgt: &[Wgt],
    rng: &mut R,
    rank_sweep: bool,
) -> (Matching, MatchStats) {
    let n = g.n();
    assert_eq!(cewgt.len(), n);
    // Seeded inputs: a rank permutation (tie-breaking) and a salt (RM's
    // edge hashing).
    let order = random_order(rng, n);
    let salt = rng.next_u64();
    let mut rank = vec![0u32; n];
    for (i, &v) in order.iter().enumerate() {
        rank[v as usize] = i as u32;
    }
    let mut partner: Vec<Vid> = (0..n as Vid).collect();
    let edges_scanned = if rank_sweep && equal_scores(g, scheme) {
        sweep_by_rank(g, &order, &mut partner, &mut rank)
    } else {
        let score = Scorer {
            scheme,
            salt,
            g,
            cewgt,
        };
        chain_matching(g, &mut partner, &rank, &score)
    };
    let pairs = (0..n as Vid).filter(|&v| partner[v as usize] > v).count();
    let stats = MatchStats {
        edges_scanned,
        ..MatchStats::default()
    };
    (Matching { partner, pairs }, stats)
}

/// Whether every edge of `g` scores the same under `scheme`: HEM or LEM on
/// a level whose edge weights are all equal.
fn equal_scores(g: &CsrGraph, scheme: MatchingScheme) -> bool {
    matches!(
        scheme,
        MatchingScheme::HeavyEdge | MatchingScheme::LightEdge
    ) && g
        .adjwgt()
        .split_first()
        .is_none_or(|(w0, rest)| rest.iter().all(|w| w == w0))
}

/// The rank sweep (module docs, "Equal-weight levels"): vertices in
/// descending rank, each unmatched one matched to its highest-ranked
/// unmatched neighbor ranked above it. `rank` is consumed as scratch: a
/// matched vertex's entry drops to 0, below every vertex that can still
/// look for it, so one read per entry tests both rank and availability.
/// Returns the adjacency entries read.
fn sweep_by_rank(g: &CsrGraph, order: &[Vid], partner: &mut [Vid], rank: &mut [u32]) -> u64 {
    let mut scanned = 0u64;
    for &v in order.iter().rev() {
        if partner[v as usize] != v {
            continue;
        }
        let (mut best, mut best_rank) = (v, rank[v as usize]);
        for &u in g.neighbors(v) {
            let ru = rank[u as usize];
            if ru > best_rank {
                (best, best_rank) = (u, ru);
            }
        }
        scanned += g.degree(v) as u64;
        if best != v {
            partner[v as usize] = best;
            partner[best as usize] = v;
            rank[v as usize] = 0;
            rank[best as usize] = 0;
        }
    }
    scanned
}

/// The chain walk (module docs, "Chain following"). From each unmatched
/// vertex it walks `v → best(v)` on a stack; keys rise strictly along the
/// walk, so it ends at two vertices that are each other's best, which
/// greedy matches too. That pair commits, the walk backs up one step and
/// the vertex below re-reads its memo. Returns the adjacency entries read
/// by full rescans.
fn chain_matching(g: &CsrGraph, partner: &mut [Vid], rank: &[u32], score: &Scorer<'_>) -> u64 {
    let n = g.n();
    let mut memo = vec![Memo::UNSCANNED; n];
    let mut stack: Vec<Vid> = Vec::new();
    let mut scanned = 0u64;
    for s in 0..n as Vid {
        if partner[s as usize] != s {
            continue;
        }
        stack.push(s);
        while let Some(&v) = stack.last() {
            let b = memo[v as usize].best(g, v, partner, rank, score, &mut scanned);
            let below = stack.len().checked_sub(2).map(|i| stack[i]);
            if b == NONE {
                stack.pop();
            } else if below == Some(b) {
                // `b` pushed `v` as its best, and nothing has been matched
                // since, so the two are mutual.
                stack.truncate(stack.len() - 2);
                partner[v as usize] = b;
                partner[b as usize] = v;
            } else {
                stack.push(b);
            }
        }
    }
    scanned
}

/// One vertex's best unmatched neighbors as of its last full scan, in
/// descending key order, `NONE`-padded (20 bytes).
#[derive(Clone, Copy)]
struct Memo {
    cand: [Vid; MEMO_K],
    /// Low bits: index of the first entry not yet seen matched. `MORE`:
    /// the scan saw more unmatched neighbors than the memo holds.
    cursor: u8,
}

const _: () = assert!(std::mem::size_of::<Memo>() <= 20);

/// [`Memo::cursor`] flag: entries past the memo exist, so an exhausted
/// memo calls for a rescan rather than retirement.
const MORE: u8 = 0x80;

impl Memo {
    /// Never scanned: the first proposal rescans.
    const UNSCANNED: Memo = Memo {
        cand: [NONE; MEMO_K],
        cursor: MORE,
    };

    /// `v`'s best unmatched neighbor (`NONE` if it has none): the first
    /// remembered candidate still unmatched, else the result of a full
    /// rescan, which refills the memo and adds `v`'s degree to `scanned`.
    #[inline]
    fn best(
        &mut self,
        g: &CsrGraph,
        v: Vid,
        partner: &[Vid],
        rank: &[u32],
        score: &Scorer<'_>,
        scanned: &mut u64,
    ) -> Vid {
        let start = (self.cursor & !MORE) as usize;
        for (i, &u) in self.cand.iter().enumerate().skip(start) {
            if u == NONE {
                break;
            }
            if partner[u as usize] == u {
                self.cursor = (self.cursor & MORE) | i as u8;
                return u;
            }
        }
        if self.cursor & MORE == 0 {
            return NONE;
        }
        *scanned += g.degree(v) as u64;
        let (cand, more) = top_candidates(g, v, partner, rank, score);
        self.cand = cand;
        self.cursor = if more { MORE } else { 0 };
        cand[0]
    }
}

/// Scheme-specific edge scoring. Scores are pure functions of the edge and
/// the seed — never of thread count or visit order.
struct Scorer<'a> {
    scheme: MatchingScheme,
    salt: u64,
    g: &'a CsrGraph,
    cewgt: &'a [Wgt],
}

impl Scorer<'_> {
    #[inline]
    fn score(&self, v: Vid, u: Vid, w: Wgt) -> f64 {
        match self.scheme {
            MatchingScheme::Random => {
                // Symmetric seeded hash → uniform in [0, 1).
                let (a, b) = (v.min(u) as u64, v.max(u) as u64);
                let h = splitmix64(self.salt ^ (a << 32 | b));
                (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
            }
            MatchingScheme::HeavyEdge => w as f64,
            MatchingScheme::LightEdge => -(w as f64),
            MatchingScheme::HeavyClique => {
                let s = (self.g.vwgt()[v as usize] + self.g.vwgt()[u as usize]) as f64;
                let max_internal = s * (s - 1.0) / 2.0;
                let internal = (self.cewgt[v as usize] + self.cewgt[u as usize] + w) as f64;
                if max_internal > 0.0 {
                    internal / max_internal
                } else {
                    0.0
                }
            }
        }
    }
}

/// SplitMix64 — the same mixer the vendored rand shim seeds with.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The symmetric total-order key of edge `(v, u)`: `(score, rmin, rmax)`
/// packed into one integer that compares like the tuple compared
/// lexicographically. Distinct ranks make the order strict, which is what
/// rules out proposal cycles (the globally maximal available edge is always
/// mutual).
#[inline]
fn edge_key(rank: &[u32], score: f64, v: Vid, u: Vid) -> u128 {
    let (rv, ru) = (rank[v as usize], rank[u as usize]);
    // `-0.0 == 0.0` as scores (LEM scores a zero-weight edge `-0.0`), so
    // both must map to the same bits. Flipping the sign bit of
    // non-negative scores and every bit of negative ones then makes the
    // unsigned order of the bits the numeric order of the scores.
    let bits = if score == 0.0 { 0 } else { score.to_bits() };
    let ordered = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    (ordered as u128) << 64 | (rv.min(ru) as u128) << 32 | rv.max(ru) as u128
}

/// The up-to-`MEMO_K` best unmatched neighbors of `v` under the edge key, in
/// descending key order and `NONE`-padded, and whether `v` has more
/// unmatched neighbors than that.
#[inline]
fn top_candidates(
    g: &CsrGraph,
    v: Vid,
    partner: &[Vid],
    rank: &[u32],
    score: &Scorer<'_>,
) -> ([Vid; MEMO_K], bool) {
    // Every edge key is above 0 (its score half is nonzero), so 0 marks
    // an empty slot.
    let mut keys = [0u128; MEMO_K];
    let mut ids = [NONE; MEMO_K];
    let mut more = false;
    for (u, w) in g.adj(v) {
        if partner[u as usize] != u {
            continue;
        }
        let key = edge_key(rank, score.score(v, u, w), v, u);
        if key <= keys[MEMO_K - 1] {
            more = true;
            continue;
        }
        more |= keys[MEMO_K - 1] != 0;
        let mut j = MEMO_K - 1;
        while j > 0 && keys[j - 1] < key {
            keys[j] = keys[j - 1];
            ids[j] = ids[j - 1];
            j -= 1;
        }
        keys[j] = key;
        ids[j] = u;
    }
    (ids, more)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::contract;
    use mlgp_graph::generators::{
        grid2d, hierarchical_lp, powergrid, powerlaw, stiffness3d, tet_mesh3d, tri_mesh2d,
    };
    use mlgp_graph::rng::seeded;
    use mlgp_graph::GraphBuilder;
    use mlgp_linalg::with_fanout;

    /// The greedy matching by definition, as an oracle: every edge sorted
    /// by its `(score, rmin, rmax)` key, descending, and taken when both
    /// ends are free. The seeded inputs are drawn as the kernel draws them.
    fn greedy_oracle(g: &CsrGraph, scheme: MatchingScheme, cewgt: &[Wgt], seed: u64) -> Matching {
        let rng = &mut seeded(seed);
        let n = g.n();
        let order = random_order(rng, n);
        let salt = rng.next_u64();
        let mut rank = vec![0u32; n];
        for (i, &v) in order.iter().enumerate() {
            rank[v as usize] = i as u32;
        }
        let score = Scorer {
            scheme,
            salt,
            g,
            cewgt,
        };
        let mut edges: Vec<(u128, Vid, Vid)> = Vec::new();
        for v in 0..n as Vid {
            for (u, w) in g.adj(v).filter(|&(u, _)| u > v) {
                edges.push((edge_key(&rank, score.score(v, u, w), v, u), v, u));
            }
        }
        edges.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        let mut partner: Vec<Vid> = (0..n as Vid).collect();
        let mut pairs = 0;
        for (_, v, u) in edges {
            if partner[v as usize] == v && partner[u as usize] == u {
                partner[v as usize] = u;
                partner[u as usize] = v;
                pairs += 1;
            }
        }
        Matching { partner, pairs }
    }

    /// A monotone-weight path: every vertex's best neighbor lies toward
    /// the heavy end, so greedy matches it from that end down.
    fn monotone_chain(n: u32) -> CsrGraph {
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n - 1 {
            b.add_weighted_edge(v, v + 1, (v + 1) as i64);
        }
        b.build()
    }

    /// A coarse level with nonzero `cewgt` and varied edge and vertex
    /// weights: two rounds of HCM matching and contraction.
    fn hcm_coarse_level() -> (CsrGraph, Vec<Wgt>) {
        let mut g = tet_mesh3d(10, 10, 10, 4);
        let mut cewgt = vec![0; g.n()];
        for seed in 0..2 {
            let m = compute_matching(&g, MatchingScheme::HeavyClique, &cewgt, &mut seeded(seed));
            let (cmap, nc) = m.to_cmap();
            let c = contract(&g, &cmap, nc, &cewgt);
            g = c.graph;
            cewgt = c.cewgt;
        }
        assert!(cewgt.iter().any(|&w| w > 0));
        (g, cewgt)
    }

    /// The kernel must return the sorted-greedy oracle's matching on one
    /// graph of every request class, a coarse HCM level and monotone
    /// chains, for every scheme and several seeds. The unit-weight classes
    /// send HEM and LEM through the rank sweep, the rest through the chain
    /// walk.
    #[test]
    fn kernel_equals_sorted_greedy_oracle() {
        let hubs = powerlaw(1500, 3, 11);
        assert!(hubs.max_degree() > 4 * MEMO_K);
        let mut cases: Vec<(&str, CsrGraph, Vec<Wgt>)> = vec![
            ("tri_mesh2d", tri_mesh2d(30, 30, 5), Vec::new()),
            ("stiffness3d", stiffness3d(9, 8, 7), Vec::new()),
            ("powergrid", powergrid(1200, 6), Vec::new()),
            ("powerlaw", hubs, Vec::new()),
            ("hierarchical_lp", hierarchical_lp(8, 146, 8), Vec::new()),
            ("monotone chain", monotone_chain(600), Vec::new()),
            ("chain of 41", monotone_chain(41), Vec::new()),
        ];
        let (coarse, cewgt) = hcm_coarse_level();
        cases.push(("hcm coarse level", coarse, cewgt));
        for (name, g, cewgt) in &mut cases {
            if cewgt.is_empty() {
                *cewgt = vec![0; g.n()];
            }
            for scheme in MatchingScheme::all() {
                for seed in [1, 7, 40] {
                    let want = greedy_oracle(g, scheme, cewgt, seed);
                    let ctx = format!("{name} {scheme:?} seed {seed}");
                    let (got, st) =
                        compute_matching_threads(g, scheme, cewgt, &mut seeded(seed), 0);
                    assert_eq!(got.partner, want.partner, "{ctx}");
                    assert_eq!(got.pairs, want.pairs, "{ctx}");
                    assert_eq!((st.rounds, st.fallback), (0, false), "{ctx}");
                    assert!(got.is_maximal(g), "{ctx}");
                }
            }
        }
    }

    /// On unit-weight levels the rank sweep and the chain walk must return
    /// the same partner array for HEM and LEM.
    #[test]
    fn rank_sweep_equals_chain_walk_on_unit_weight_levels() {
        let cases = [
            ("grid2d", grid2d(41, 37)),
            ("tri_mesh2d", tri_mesh2d(30, 26, 3)),
            ("tet_mesh3d", tet_mesh3d(9, 8, 7, 2)),
            ("stiffness3d", stiffness3d(10, 9, 8)),
            ("powerlaw", powerlaw(2500, 3, 9)),
        ];
        for (name, g) in &cases {
            let cewgt = vec![0; g.n()];
            for scheme in [MatchingScheme::HeavyEdge, MatchingScheme::LightEdge] {
                assert!(equal_scores(g, scheme), "{name} is not unit-weight");
                for seed in 0..4 {
                    let ctx = format!("{name} {scheme:?} seed {seed}");
                    let (sweep, ss) = greedy_matching(g, scheme, &cewgt, &mut seeded(seed), true);
                    let (chain, cs) = greedy_matching(g, scheme, &cewgt, &mut seeded(seed), false);
                    assert_eq!(sweep.partner, chain.partner, "{ctx}");
                    assert_eq!(sweep.pairs, chain.pairs, "{ctx}");
                    // The sweep reads each row at most once.
                    assert!(ss.edges_scanned <= g.nnz() as u64, "{ctx}");
                    assert!(cs.edges_scanned >= ss.edges_scanned, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn memo_bounds_scan_work_on_stiffness_grids() {
        // Handshake rounds that rescanned every active vertex each round
        // read ≈ 13× nnz here (30+ rounds with a slowly shrinking active
        // set); the chain walk's memo must keep it under 4×.
        let g = stiffness3d(20, 20, 20);
        let cewgt = vec![0; g.n()];
        let (_, st) = greedy_matching(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(3), false);
        let scanned = st.edges_scanned;
        assert!(
            scanned <= 4 * g.nnz() as u64,
            "scanned {scanned} > 4 × nnz {}",
            g.nnz()
        );
    }

    #[test]
    fn edge_key_folds_negative_zero() {
        let rank = [0, 1, 2];
        assert_eq!(edge_key(&rank, -0.0, 0, 1), edge_key(&rank, 0.0, 0, 1));
        assert!(edge_key(&rank, -1.0, 0, 1) < edge_key(&rank, -0.0, 0, 1));
        assert!(edge_key(&rank, 0.0, 0, 1) < edge_key(&rank, 0.5, 0, 1));
        assert!(edge_key(&rank, 1.0, 0, 1) < edge_key(&rank, 1.0, 0, 2));
        assert!(edge_key(&rank, 1.0, 0, 2) < edge_key(&rank, 1.0, 1, 2));
    }

    fn check_all_schemes(g: &CsrGraph) {
        let cewgt = vec![0; g.n()];
        for scheme in MatchingScheme::all() {
            let mut rng = seeded(17);
            let m = compute_matching(g, scheme, &cewgt, &mut rng);
            m.validate(g).unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
            assert!(m.is_maximal(g), "{scheme:?} not maximal");
        }
    }

    #[test]
    fn valid_and_maximal_on_grid() {
        check_all_schemes(&grid2d(9, 7));
    }

    #[test]
    fn valid_and_maximal_on_mesh() {
        check_all_schemes(&tri_mesh2d(12, 9, 3));
    }

    #[test]
    fn hem_prefers_heavy_edges() {
        // Star: center 0 with edges of weight 1,1,10 to 1,2,3. HEM must
        // take the weight-10 edge whatever the seed.
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 1)
            .add_weighted_edge(0, 2, 1)
            .add_weighted_edge(0, 3, 10);
        let g = b.build();
        for seed in 0..8 {
            let m = compute_matching(&g, MatchingScheme::HeavyEdge, &[0; 4], &mut seeded(seed));
            assert_eq!(m.partner[0], 3, "seed {seed}");
            let l = compute_matching(&g, MatchingScheme::LightEdge, &[0; 4], &mut seeded(seed));
            assert!(l.partner[0] == 1 || l.partner[0] == 2, "seed {seed}");
        }
    }

    #[test]
    fn matched_weight_hem_ge_lem() {
        // On a weighted mesh, HEM's matched weight should (statistically)
        // dominate LEM's; with a fixed seed this is deterministic.
        let mut b = GraphBuilder::new(36);
        let g0 = grid2d(6, 6);
        for v in 0..36u32 {
            for (u, _) in g0.adj(v) {
                if u > v {
                    b.add_weighted_edge(v, u, 1 + ((v * 7 + u * 13) % 9) as i64);
                }
            }
        }
        let g = b.build();
        let cewgt = vec![0; g.n()];
        let weight_of = |m: &Matching| -> Wgt {
            (0..g.n() as Vid)
                .map(|v| {
                    let p = m.partner[v as usize];
                    if p > v {
                        g.adj(v).find(|&(u, _)| u == p).map(|(_, w)| w).unwrap_or(0)
                    } else {
                        0
                    }
                })
                .sum()
        };
        let hem = compute_matching(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(5));
        let lem = compute_matching(&g, MatchingScheme::LightEdge, &cewgt, &mut seeded(5));
        assert!(weight_of(&hem) > weight_of(&lem));
    }

    #[test]
    fn cmap_assigns_shared_ids() {
        let m = Matching {
            partner: vec![1, 0, 2, 4, 3],
            pairs: 2,
        };
        let (cmap, nc) = m.to_cmap();
        assert_eq!(nc, 3);
        assert_eq!(cmap[0], cmap[1]);
        assert_eq!(cmap[3], cmap[4]);
        assert_ne!(cmap[0], cmap[2]);
        assert!(cmap.iter().all(|&c| (c as usize) < nc));
    }

    #[test]
    fn empty_and_single_vertex() {
        let g = GraphBuilder::new(1).build();
        let m = compute_matching(&g, MatchingScheme::HeavyEdge, &[0], &mut seeded(1));
        assert_eq!(m.pairs, 0);
        let (cmap, nc) = m.to_cmap();
        assert_eq!((cmap, nc), (vec![0], 1));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid2d(8, 8);
        let cewgt = vec![0; g.n()];
        let a = compute_matching(&g, MatchingScheme::Random, &cewgt, &mut seeded(9));
        let b = compute_matching(&g, MatchingScheme::Random, &cewgt, &mut seeded(9));
        assert_eq!(a.partner, b.partner);
    }

    #[test]
    fn pool_size_does_not_change_the_matching() {
        let g = tri_mesh2d(24, 18, 7);
        let cewgt = vec![0; g.n()];
        let run = |threads: usize, scheme| {
            with_fanout(threads, || {
                compute_matching(&g, scheme, &cewgt, &mut seeded(33)).partner
            })
        };
        for scheme in MatchingScheme::all() {
            let reference = run(1, scheme);
            for threads in [2, 3, 8] {
                assert_eq!(
                    run(threads, scheme),
                    reference,
                    "{scheme:?} @ {threads} threads"
                );
            }
        }
    }

    #[test]
    fn monotone_chain_matches_greedily_from_the_heavy_end() {
        // Every vertex prefers its heavier edge, so greedy takes the
        // heaviest edge, then the heaviest one left, and so on: the pairs
        // (2i, 2i+1) of an even-length chain, at every pool size.
        let g = monotone_chain(600);
        let cewgt = vec![0; g.n()];
        let run = |threads: usize| {
            with_fanout(threads, || {
                compute_matching_threads(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(2), 0)
            })
        };
        let ((m1, s1), (m4, _)) = (run(1), run(4));
        let want: Vec<Vid> = (0..600).map(|v| v ^ 1).collect();
        assert_eq!(m1.partner, want);
        assert_eq!(m4.partner, want);
        assert_eq!((s1.rounds, s1.fallback), (0, false));
        m1.validate(&g).unwrap();
        assert!(m1.is_maximal(&g));
    }

    #[test]
    fn stats_report_scanning_work() {
        // The chain walk scans every row at least once on a grid; the rank
        // sweep reads only the rows of vertices still unmatched at their
        // turn, at least one of every pair.
        let g = grid2d(40, 40);
        let cewgt = vec![0; g.n()];
        let scheme = MatchingScheme::HeavyEdge;
        let (_, chain) = greedy_matching(&g, scheme, &cewgt, &mut seeded(1), false);
        assert!(chain.edges_scanned >= g.nnz() as u64);
        let (m, sweep) = compute_matching_threads(&g, scheme, &cewgt, &mut seeded(1), 0);
        assert!(sweep.edges_scanned <= g.nnz() as u64);
        assert!(sweep.edges_scanned >= 2 * m.pairs as u64);
    }
}
