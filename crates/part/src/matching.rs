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
//! distinct). The matching is the one that *local-max handshake rounds*
//! produce: each round, every unmatched vertex proposes to its best
//! unmatched neighbor and mutual proposals match. Under a strict key that
//! is exactly the greedy matching (take edges in descending key order
//! while both ends are free): a mutual pair is the best edge left at both
//! its ends, so greedy takes it too, whatever else is matched around it.
//!
//! The handshake's round count is part of the definition. A round bound
//! guards pathological inputs (monotone weight chains match one pair a
//! round); pairs the handshake would match after the bound are left to a
//! sequential rank-order sweep that finishes the matching. The result is a
//! pure function of `(graph, scheme, seed)`; the `threads` argument of
//! [`compute_matching_threads`] changes nothing.
//!
//! # Chain following
//!
//! The kernel finds the handshake's matching without running its rounds.
//! It follows `v → best(v)` on a stack until two vertices are each other's
//! best, matches them and backs up one step. To keep the round count, and
//! the fallback, exact, it records each pair's handshake round
//! `R(u, v) = 1 + max R` over the pairs of the neighbors `u` or `v`
//! prefers to each other — the handshake proposes `u → v` exactly once all
//! of those are matched. If the largest `R` reaches the bound, the pairs
//! with `R` past it are undone and the sweep runs.
//!
//! The kernel is serial at every thread count because sharding the
//! handshake rounds (propose/claim with compare-and-swap partner slots)
//! does not pay: on a 2-vCPU x86-64 host they were only about 10 % faster
//! on two threads than the chain walk on a 202k-vertex mesh, and the chain
//! walk cut the two-thread `nd-order` benchmark's p50 latency by about a
//! fifth (DESIGN §10).
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
//! The kernel reads about 1× nnz in rescans, plus one pass over each
//! matched pair's two adjacency lists to find its round.

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
    /// Handshake rounds the matching corresponds to (0 for the empty
    /// graph), capped at the round bound.
    pub rounds: usize,
    /// Shards the kernel ran on: always 1, since the kernel is serial.
    pub shards: usize,
    /// Whether the round bound tripped and the sequential sweep finished
    /// the matching.
    pub fallback: bool,
    /// Adjacency entries read by full rescans, one entry per shard.
    /// Candidates answered from a vertex's memo read no adjacency and are
    /// not counted, nor is the pass that recovers each pair's round.
    pub edges_scanned: Vec<u64>,
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

/// Hard bound on handshake rounds before the sequential sweep takes over.
fn max_rounds(n: usize) -> usize {
    2 * usize::BITS.saturating_sub(n.leading_zeros()) as usize + 8
}

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

/// [`compute_matching`] with kernel telemetry. The kernel is serial:
/// `threads` is accepted for callers that pass one through and changes
/// neither the matching nor the work.
pub fn compute_matching_threads<R: Rng>(
    g: &CsrGraph,
    scheme: MatchingScheme,
    cewgt: &[Wgt],
    rng: &mut R,
    _threads: usize,
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
    let score = Scorer {
        scheme,
        salt,
        g,
        cewgt,
    };
    let mut partner: Vec<Vid> = (0..n as Vid).collect();
    let stats = chain_matching(g, &order, &mut partner, &rank, &score);
    let pairs = (0..n as Vid).filter(|&v| partner[v as usize] > v).count();
    (Matching { partner, pairs }, stats)
}

/// The kernel: the handshake's matching, found by following
/// best-candidate chains (module docs, "Chain following").
///
/// From each unmatched vertex it walks `v → best(v)` on a stack; keys rise
/// strictly along the walk, so it ends at two vertices that are each
/// other's best, which the handshake would match too. That pair commits,
/// the walk backs up one step and the vertex below re-reads its memo. Each
/// pair records the handshake round that would have matched it; if that
/// reaches the round bound, the pairs past it are undone and the
/// sequential sweep finishes, exactly as the handshake would.
fn chain_matching(
    g: &CsrGraph,
    order: &[Vid],
    partner: &mut [Vid],
    rank: &[u32],
    score: &Scorer<'_>,
) -> MatchStats {
    let n = g.n();
    let mut memo = vec![Memo::UNSCANNED; n];
    // Handshake round of each matched vertex's pair; 0 while unmatched.
    let mut round = vec![0u32; n];
    let mut max_round = 0u32;
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
                let r = handshake_round(g, v, b, &round, rank, score);
                round[v as usize] = r;
                round[b as usize] = r;
                max_round = max_round.max(r);
                partner[v as usize] = b;
                partner[b as usize] = v;
            } else {
                stack.push(b);
            }
        }
    }
    let mut stats = MatchStats {
        rounds: max_round as usize,
        shards: 1,
        fallback: false,
        edges_scanned: vec![scanned],
    };
    let bound = max_rounds(n);
    if stats.rounds >= bound {
        // The handshake stops after round `bound`: keep only the pairs it
        // had matched by then and let the sweep finish.
        for v in 0..n as Vid {
            if round[v as usize] as usize > bound {
                partner[v as usize] = v;
            }
        }
        sequential_sweep(g, order, partner, rank, score);
        stats.rounds = bound;
        stats.fallback = true;
    }
    stats
}

/// The handshake round that matches `(u, v)`, given the rounds of every
/// pair matched before it: one past the latest round among the pairs of
/// the neighbors that `u` or `v` prefers to each other. Those neighbors are
/// all matched already (else `(u, v)` would not be mutual), and until each
/// one is, `u` or `v` proposes elsewhere.
fn handshake_round(
    g: &CsrGraph,
    u: Vid,
    v: Vid,
    round: &[u32],
    rank: &[u32],
    score: &Scorer<'_>,
) -> u32 {
    let (a, b) = if g.degree(u) <= g.degree(v) {
        (u, v)
    } else {
        (v, u)
    };
    let w = g
        .adj(a)
        .find_map(|(x, w)| (x == b).then_some(w))
        .unwrap_or_default();
    let key = edge_key(rank, score.score(a, b, w), a, b);
    let mut r = 0;
    for x in [a, b] {
        for (z, w) in g.adj(x) {
            // Unmatched vertices, `a` and `b` included, hold round 0 and
            // never pass the first test.
            let rz = round[z as usize];
            if rz > r && edge_key(rank, score.score(x, z, w), x, z) > key {
                r = rz;
            }
        }
    }
    r + 1
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
        let (cand, more) = top_candidates::<MEMO_K>(g, v, partner, rank, score);
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

/// The up-to-`K` best unmatched neighbors of `v` under the edge key, in
/// descending key order and `NONE`-padded, and whether `v` has more
/// unmatched neighbors than that.
#[inline]
fn top_candidates<const K: usize>(
    g: &CsrGraph,
    v: Vid,
    partner: &[Vid],
    rank: &[u32],
    score: &Scorer<'_>,
) -> ([Vid; K], bool) {
    // Every edge key is above 0 (its score half is nonzero), so 0 marks
    // an empty slot.
    let mut keys = [0u128; K];
    let mut ids = [NONE; K];
    let mut more = false;
    for (u, w) in g.adj(v) {
        if partner[u as usize] != u {
            continue;
        }
        let key = edge_key(rank, score.score(v, u, w), v, u);
        if key <= keys[K - 1] {
            more = true;
            continue;
        }
        more |= keys[K - 1] != 0;
        let mut j = K - 1;
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

/// Deterministic sequential finisher: greedy sweep in rank order, matching
/// each still-unmatched vertex with its best available neighbor. It
/// restores maximality when the round bound cuts the handshake short.
fn sequential_sweep(
    g: &CsrGraph,
    order: &[Vid],
    partner: &mut [Vid],
    rank: &[u32],
    score: &Scorer<'_>,
) {
    for &v in order {
        if partner[v as usize] != v {
            continue;
        }
        let u = top_candidates::<1>(g, v, partner, rank, score).0[0];
        if u != NONE {
            partner[v as usize] = u;
            partner[u as usize] = v;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::contract::contract;
    use mlgp_graph::generators::{
        grid2d, hierarchical_lp, powergrid, powerlaw, stiffness3d, tet_mesh3d, tri_mesh2d,
    };
    use mlgp_graph::rng::seeded;
    use mlgp_graph::GraphBuilder;

    /// Local-max handshake rounds, run serially as an oracle: every round
    /// re-reads every active vertex's whole adjacency and compares edges
    /// by the `(score, rmin, rmax)` tuple. Returns the
    /// matching, the round count and whether the sweep ran.
    fn reference_matching(
        g: &CsrGraph,
        scheme: MatchingScheme,
        cewgt: &[Wgt],
        seed: u64,
    ) -> (Matching, usize, bool) {
        fn key_gt(a: (f64, u32, u32), b: (f64, u32, u32)) -> bool {
            a.0 > b.0 || (a.0 == b.0 && (a.1 > b.1 || (a.1 == b.1 && a.2 > b.2)))
        }
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
        let best = |partner: &[Vid], v: Vid| -> Vid {
            let mut best: Option<((f64, u32, u32), Vid)> = None;
            for (u, w) in g.adj(v) {
                if partner[u as usize] != u {
                    continue;
                }
                let (rv, ru) = (rank[v as usize], rank[u as usize]);
                let key = (score.score(v, u, w), rv.min(ru), rv.max(ru));
                if best.is_none_or(|(bk, _)| key_gt(key, bk)) {
                    best = Some((key, u));
                }
            }
            best.map_or(NONE, |(_, u)| u)
        };
        let mut partner: Vec<Vid> = (0..n as Vid).collect();
        let mut proposal = vec![NONE; n];
        let mut active: Vec<Vid> = (0..n as Vid).collect();
        let (mut rounds, mut fallback) = (0, false);
        loop {
            active.retain(|&v| {
                let u = if partner[v as usize] != v {
                    NONE
                } else {
                    best(&partner, v)
                };
                proposal[v as usize] = u;
                u != NONE
            });
            if active.is_empty() {
                break;
            }
            let mut pairs = 0;
            for &v in &active {
                let u = proposal[v as usize];
                if u != NONE && u > v && proposal[u as usize] == v {
                    partner[v as usize] = u;
                    partner[u as usize] = v;
                    pairs += 1;
                }
            }
            rounds += 1;
            if rounds >= max_rounds(n) || pairs == 0 {
                for &v in &order {
                    if partner[v as usize] == v {
                        let u = best(&partner, v);
                        if u != NONE {
                            partner[v as usize] = u;
                            partner[u as usize] = v;
                        }
                    }
                }
                fallback = true;
                break;
            }
        }
        let pairs = (0..n as Vid).filter(|&v| partner[v as usize] > v).count();
        (Matching { partner, pairs }, rounds, fallback)
    }

    /// Thread counts for the differential tests, plus `MLGP_THREADS` when
    /// it is set.
    pub(crate) fn thread_counts() -> Vec<usize> {
        let mut counts = vec![1usize, 2, 3, 4, 8];
        if let Some(t) = std::env::var("MLGP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            if t > 0 && !counts.contains(&t) {
                counts.push(t);
            }
        }
        counts
    }

    /// A monotone-weight path: every vertex proposes toward the heavy end,
    /// so each handshake round matches exactly one pair.
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

    /// The chain-following kernel must reproduce the oracle's matching,
    /// round count and fallback on one graph of every request class, a
    /// coarse HCM level, and chains at and around the round bound.
    #[test]
    fn kernels_match_full_rescan_oracle() {
        let zero = |g: &CsrGraph| vec![0; g.n()];
        let hubs = powerlaw(1500, 3, 11);
        assert!(hubs.max_degree() > 4 * MEMO_K);
        let mut cases: Vec<(&str, CsrGraph, Vec<Wgt>)> = vec![
            ("tri_mesh2d", tri_mesh2d(30, 30, 5), Vec::new()),
            ("stiffness3d", stiffness3d(9, 8, 7), Vec::new()),
            ("powergrid", powergrid(1200, 6), Vec::new()),
            ("powerlaw", hubs, Vec::new()),
            ("hierarchical_lp", hierarchical_lp(8, 146, 8), Vec::new()),
            ("monotone chain", monotone_chain(600), Vec::new()),
            // HEM matches these one pair a round, for n/2 rounds against a
            // bound of 20: one short of it, exactly at it, one past it.
            ("chain of 38", monotone_chain(38), Vec::new()),
            ("chain of 40", monotone_chain(40), Vec::new()),
            ("chain of 42", monotone_chain(42), Vec::new()),
        ];
        let (coarse, cewgt) = hcm_coarse_level();
        cases.push(("hcm coarse level", coarse, cewgt));
        for (name, g, cewgt) in &mut cases {
            if cewgt.is_empty() {
                *cewgt = zero(g);
            }
            for scheme in MatchingScheme::all() {
                for seed in [1, 7, 40] {
                    let (want, rounds, fallback) = reference_matching(g, scheme, cewgt, seed);
                    if scheme == MatchingScheme::HeavyEdge {
                        let at_bound = match *name {
                            "monotone chain" => Some((28, true)),
                            "chain of 38" => Some((19, false)),
                            "chain of 40" | "chain of 42" => Some((20, true)),
                            _ => None,
                        };
                        if let Some(want_stats) = at_bound {
                            assert_eq!((rounds, fallback), want_stats, "{name}");
                        }
                    }
                    let ctx = format!("{name} {scheme:?} seed {seed}");
                    let (got, st) =
                        compute_matching_threads(g, scheme, cewgt, &mut seeded(seed), 1);
                    assert_eq!(got.partner, want.partner, "{ctx}");
                    assert_eq!(got.pairs, want.pairs, "{ctx}");
                    assert_eq!(st.rounds, rounds, "{ctx}");
                    assert_eq!(st.fallback, fallback, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn memo_bounds_scan_work_on_stiffness_grids() {
        // Handshake rounds that rescanned every active vertex each round
        // read ≈ 13× nnz here (30+ rounds with a slowly shrinking active
        // set); the memo must keep the kernel under 4×.
        let g = stiffness3d(20, 20, 20);
        let cewgt = vec![0; g.n()];
        let (_, st) =
            compute_matching_threads(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(3), 1);
        let scanned: u64 = st.edges_scanned.iter().sum();
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
    fn thread_count_does_not_change_the_matching() {
        let g = tri_mesh2d(24, 18, 7);
        let cewgt = vec![0; g.n()];
        for scheme in MatchingScheme::all() {
            let (reference, s1) = compute_matching_threads(&g, scheme, &cewgt, &mut seeded(33), 1);
            assert_eq!(s1.shards, 1);
            for threads in [2, 3, 8] {
                let (m, st) =
                    compute_matching_threads(&g, scheme, &cewgt, &mut seeded(33), threads);
                assert_eq!(st.shards, 1);
                assert_eq!(
                    m.partner, reference.partner,
                    "{scheme:?} @ {threads} threads"
                );
                assert_eq!(m.pairs, reference.pairs);
            }
        }
    }

    #[test]
    fn round_bound_fallback_still_maximal_and_deterministic() {
        // Monotone-weight path: every vertex proposes toward the heavy end,
        // so each handshake round matches exactly one pair — the worst case
        // that trips the round bound and exercises the sequential sweep.
        let g = monotone_chain(600);
        let cewgt = vec![0; g.n()];
        let (m1, s1) =
            compute_matching_threads(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(2), 1);
        let (m4, s4) =
            compute_matching_threads(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(2), 4);
        assert!(
            s1.fallback && s4.fallback,
            "expected the round bound to trip"
        );
        assert_eq!(m1.partner, m4.partner);
        m1.validate(&g).unwrap();
        assert!(m1.is_maximal(&g));
    }

    #[test]
    fn stats_report_scanning_work() {
        let g = grid2d(40, 40);
        let cewgt = vec![0; g.n()];
        let (_, st) =
            compute_matching_threads(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(1), 4);
        assert_eq!(st.shards, 1);
        assert_eq!(st.edges_scanned.len(), 1);
        assert!(st.rounds >= 1);
        assert!(st.edges_scanned.iter().sum::<u64>() >= g.nnz() as u64);
    }
}
