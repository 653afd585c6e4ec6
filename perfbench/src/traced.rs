//! The traced run: every pipeline rebuilt here from the layers' public
//! functions, with a span around each call into a layer.
//!
//! The rebuilds mirror `kway_partition_refined` (recursive multilevel
//! bisection, then the k-way sweep) and `nested_dissection` (bisection,
//! vertex cover, separator refinement, MMD leaves) step by step, with the
//! same configuration seeds, thread counts and recursion forks, so their
//! outputs are bit-identical to the entry points'. The run checks that by
//! fingerprint; a request whose rebuild drifts is counted as unattributed.
//!
//! Spans stay in memory until the run ends; [`self_times`] turns them into
//! self time per span name.

use crate::workload::{parse, Inputs, Output, Request, Served, Workload};
use mlgp_graph::rng::seeded;
use mlgp_graph::{induced_subgraph, split_by_part, CsrGraph, Permutation, Vid, Wgt};
use mlgp_order::{
    analyze_ordering, mmd_order, refine_separator, vertex_separator, NdBisector, NdConfig,
    SepRefineOptions, SEPARATOR, SIDE_A, SIDE_B,
};
use mlgp_part::{
    compute_matching_threads, contract_threads, edge_cut_kway, initial_partition_traced,
    kway_refine_stats, refine_level_stats, BalanceTargets, BisectState, Hierarchy,
    KwayRefineOptions, MlConfig,
};
use mlgp_trace::Trace;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Size from which `kway_partition` forks its two recursive halves
/// (`PARALLEL_THRESHOLD` in `mlgp_part::kway`).
const KWAY_FORK_N: usize = 4096;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the enclosing span; 0 for a request's root span.
    pub parent: u64,
    /// Request index within the pass.
    pub request: u32,
    /// What ran (see [`LAYER_TIMES`]).
    pub name: &'static str,
    /// Start, seconds since the tracer was made.
    pub start_s: f64,
    /// End, seconds since the tracer was made.
    pub end_s: f64,
}

/// Work counts recorded at the layer boundaries.
#[derive(Debug, Default)]
pub struct Counts {
    matching_rounds: AtomicU64,
    matching_fallbacks: AtomicU64,
    matching_vertices: AtomicU64,
    matched_vertices: AtomicU64,
    coarsen_levels: AtomicU64,
    contract_entries: AtomicU64,
    refine_passes: AtomicU64,
    refine_moves: AtomicU64,
    refine_rollbacks: AtomicU64,
    kway_rounds: AtomicU64,
    kway_proposals: AtomicU64,
    kway_moves: AtomicU64,
    io_bytes: AtomicU64,
    separator_vertices: AtomicU64,
}

/// Add to a statistics counter.
fn add(counter: &AtomicU64, v: u64) {
    // RELAXED: a pure statistic; it is read only after every worker thread
    // of the pass has been joined.
    counter.fetch_add(v, Ordering::Relaxed);
}

fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

impl Counts {
    /// Every count, by its per-layer metric name.
    fn values(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("part.matching.rounds", get(&self.matching_rounds)),
            ("part.matching.fallbacks", get(&self.matching_fallbacks)),
            ("part.coarsen.levels", get(&self.coarsen_levels)),
            ("part.contract.entries", get(&self.contract_entries)),
            ("part.refine.passes", get(&self.refine_passes)),
            ("part.refine.moves", get(&self.refine_moves)),
            ("part.refine.rollbacks", get(&self.refine_rollbacks)),
            ("part.kwayrefine.rounds", get(&self.kway_rounds)),
            ("part.kwayrefine.proposals", get(&self.kway_proposals)),
            ("part.kwayrefine.moves", get(&self.kway_moves)),
            ("graph.io.bytes", get(&self.io_bytes)),
            ("order.separator_vertices", get(&self.separator_vertices)),
        ]
    }

    /// The useful-outcome ratios, by per-layer metric name.
    fn ratios(&self) -> Vec<(&'static str, f64)> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let moves = get(&self.refine_moves);
        vec![
            (
                "part.matching.matched_frac",
                ratio(get(&self.matched_vertices), get(&self.matching_vertices)),
            ),
            (
                "part.refine.kept_frac",
                ratio(moves, moves + get(&self.refine_rollbacks)),
            ),
            (
                "part.kwayrefine.commit_frac",
                ratio(get(&self.kway_moves), get(&self.kway_proposals)),
            ),
        ]
    }
}

/// Span names whose self time is a per-layer metric, with that metric.
pub const LAYER_TIMES: [(&str, &str); 13] = [
    ("matching", "part.matching.s"),
    ("contract", "part.contract.s"),
    ("initpart", "part.initpart.s"),
    ("refine", "part.refine.s"),
    ("project", "part.project.s"),
    ("kwayrefine", "part.kwayrefine.s"),
    ("metrics", "part.metrics.s"),
    ("io", "graph.io.s"),
    ("subgraph", "graph.subgraph.s"),
    ("vcover", "order.vcover.s"),
    ("seprefine", "order.seprefine.s"),
    ("mmd", "order.mmd.s"),
    ("etree", "order.etree.s"),
];

/// Span names whose serial-over-parallel self-time ratio is a per-layer
/// metric, with that metric.
pub const SPEEDUPS: [(&str, &str); 5] = [
    ("matching", "part.matching.speedup"),
    ("contract", "part.contract.speedup"),
    ("refine", "part.refine.speedup"),
    ("project", "part.project.speedup"),
    ("kwayrefine", "part.kwayrefine.speedup"),
];

/// The module each span name belongs to, for the self-time-per-layer
/// summary. `request` spans are the benchmark's own glue.
pub fn module_of(name: &str) -> &'static str {
    match name {
        "io" | "subgraph" => "graph",
        "vcover" | "seprefine" | "mmd" | "etree" | "nested" => "order",
        "request" => "bench",
        _ => "part",
    }
}

/// In-memory span and count recorder for one traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Counts,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counts: Counts::default(),
        }
    }
}

impl Tracer {
    /// The recorded spans, in the order they ended.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Self seconds summed per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        self_times(&self.spans())
    }

    /// Work counts by per-layer metric name.
    pub fn count_values(&self) -> Vec<(&'static str, u64)> {
        self.counts.values()
    }

    /// Useful-outcome ratios by per-layer metric name.
    pub fn ratios(&self) -> Vec<(&'static str, f64)> {
        self.counts.ratios()
    }
}

/// Self seconds per span name, as shares of wall-clock time.
///
/// A span is *innermost* while it runs and none of its children does; its
/// self time is that part of its interval. When recursion forks run
/// several spans at once (the shim gives every fork its own thread, far
/// more than there are cores), each wall-clock instant is split equally
/// among the innermost spans running then. The self times of a pass thus
/// add up to the wall time its spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_s, s.end_s));
    }
    // Every innermost segment as (time, +1/-1, name) events.
    let names: Vec<&'static str> = {
        let set: std::collections::BTreeSet<&'static str> = spans.iter().map(|s| s.name).collect();
        set.into_iter().collect()
    };
    let mut events: Vec<(f64, i32, usize)> = Vec::new();
    for s in spans {
        let ix = names.binary_search(&s.name).expect("name collected above");
        let mut kids = children.get(&s.id).cloned().unwrap_or_default();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut at = s.start_s;
        for (a, b) in kids {
            if a > at {
                events.push((at, 1, ix));
                events.push((a.min(s.end_s), -1, ix));
            }
            at = at.max(b);
        }
        if s.end_s > at {
            events.push((at, 1, ix));
            events.push((s.end_s, -1, ix));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    // Sweep: between consecutive events, share the elapsed time among the
    // innermost segments open then.
    let mut open = vec![0i64; names.len()];
    let mut total_open = 0i64;
    let mut share = vec![0.0f64; names.len()];
    let mut last = 0.0;
    for (t, delta, ix) in events {
        if total_open > 0 && t > last {
            let per = (t - last) / total_open as f64;
            for (s, &o) in share.iter_mut().zip(&open) {
                *s += per * o as f64;
            }
        }
        last = t;
        open[ix] += delta as i64;
        total_open += delta as i64;
    }
    names.into_iter().zip(share).collect()
}

/// Span context: the tracer, the enclosing span and the request.
#[derive(Clone, Copy, Debug)]
struct Cx<'a> {
    tracer: &'a Tracer,
    parent: u64,
    request: u32,
}

impl<'a> Cx<'a> {
    /// Run `f` inside a span named `name`.
    fn span<R>(self, name: &'static str, f: impl FnOnce(Cx<'a>) -> R) -> R {
        let t = self.tracer;
        // RELAXED: ids only need to be unique, which the atomic add gives.
        let id = t.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let start_s = t.origin.elapsed().as_secs_f64();
        let r = f(Cx { parent: id, ..self });
        let end_s = t.origin.elapsed().as_secs_f64();
        t.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent: self.parent,
            request: self.request,
            name,
            start_s,
            end_s,
        });
        r
    }

    fn counts(self) -> &'a Counts {
        &self.tracer.counts
    }
}

/// Serve one request through the rebuilt pipeline, recording spans and
/// counts into `tracer`. Run it inside a thread pool capped at `threads`,
/// as [`crate::workload::serve`] is.
pub fn serve_traced(
    tracer: &Tracer,
    inputs: &Inputs,
    req: &Request,
    request: u32,
    threads: usize,
) -> Result<Served, String> {
    let root = Cx {
        tracer,
        parent: 0,
        request,
    };
    root.span("request", |cx| {
        let parsed = match inputs.workload {
            Workload::RequestMix => {
                let payload = &inputs.payloads[req.graph];
                add(&cx.counts().io_bytes, payload.bytes.len() as u64);
                Some(cx.span("io", |_| parse(payload))?)
            }
            _ => None,
        };
        let g = parsed.as_ref().unwrap_or(&inputs.graphs[req.graph]);
        let output = if inputs.workload.partitions() {
            let cfg = crate::workload::ml_config(threads);
            let (part, cut) = kway_partition_refined(cx, g, req.k, &cfg);
            Output::Partition { part, cut }
        } else {
            let perm = nested_dissection(cx, g, &crate::workload::nd_config(threads));
            let stats = cx.span("etree", |_| analyze_ordering(g, &perm));
            Output::Ordering { perm, stats }
        };
        Ok(Served { parsed, output })
    })
}

/// `kway_partition_refined`: recursive bisection, the cut of the result,
/// then the round-based k-way sweep.
fn kway_partition_refined(cx: Cx, g: &CsrGraph, k: usize, cfg: &MlConfig) -> (Vec<u32>, Wgt) {
    let mut part = vec![0u32; g.n()];
    cx.span("kway", |cx| kway_rec(cx, g, k, cfg, 1, &mut part));
    cx.span("metrics", |_| edge_cut_kway(g, &part));
    let opts = KwayRefineOptions {
        imbalance: cfg.imbalance,
        seed: cfg.seed ^ 0x5eed,
        threads: cfg.threads,
        ..KwayRefineOptions::default()
    };
    let (cut, stats) = cx.span("kwayrefine", |_| {
        kway_refine_stats(g, &mut part, k, &opts, &Trace::disabled())
    });
    let c = cx.counts();
    add(&c.kway_rounds, stats.rounds as u64);
    add(&c.kway_proposals, stats.proposals as u64);
    add(&c.kway_moves, stats.moves as u64);
    (part, cut)
}

/// The recursion of `kway_partition`: bisect with proportional targets,
/// split, and recurse on both halves (forked above [`KWAY_FORK_N`]).
fn kway_rec(cx: Cx, g: &CsrGraph, k: usize, cfg: &MlConfig, salt: u64, part: &mut [u32]) {
    if k <= 1 || g.n() == 0 {
        part.fill(0);
        return;
    }
    let k0 = k.div_ceil(2);
    let k1 = k - k0;
    let total = g.total_vwgt();
    let t0 = ((total as i128 * k0 as i128) / k as i128) as Wgt;
    let side = bisect(cx, g, &cfg.reseed(salt), [t0, total - t0]);
    if k == 2 {
        for (p, &s) in part.iter_mut().zip(&side) {
            *p = s as u32;
        }
        return;
    }
    let bpart: Vec<u32> = side.iter().map(|&s| s as u32).collect();
    let subs = cx.span("subgraph", |_| split_by_part(g, &bpart, 2));
    let (s0, s1) = (&subs[0], &subs[1]);
    let mut part0 = vec![0u32; s0.graph.n()];
    let mut part1 = vec![0u32; s1.graph.n()];
    if g.n() >= KWAY_FORK_N {
        rayon::join(
            || kway_rec(cx, &s0.graph, k0, cfg, salt * 2, &mut part0),
            || kway_rec(cx, &s1.graph, k1, cfg, salt * 2 + 1, &mut part1),
        );
    } else {
        kway_rec(cx, &s0.graph, k0, cfg, salt * 2, &mut part0);
        kway_rec(cx, &s1.graph, k1, cfg, salt * 2 + 1, &mut part1);
    }
    for (i, &orig) in s0.orig.iter().enumerate() {
        part[orig as usize] = part0[i];
    }
    for (i, &orig) in s1.orig.iter().enumerate() {
        part[orig as usize] = k0 as u32 + part1[i];
    }
}

/// One multilevel bisection (`bisect_targets`): coarsen by matching and
/// contraction, partition the coarsest graph, then project and refine
/// level by level. Returns the 0/1 side of every vertex.
fn bisect(cx: Cx, g: &CsrGraph, cfg: &MlConfig, target: [Wgt; 2]) -> Vec<u8> {
    cx.span("bisect", |cx| {
        let n = g.n();
        if n == 0 {
            return Vec::new();
        }
        let c = cx.counts();
        let mut rng = seeded(cfg.seed);
        let bt = BalanceTargets::new(target, cfg.imbalance);
        let mut graphs = vec![g.clone()];
        let mut cmaps: Vec<Vec<Vid>> = Vec::new();
        let mut cewgt = vec![0; n];
        loop {
            let cur = graphs.last().expect("the hierarchy holds the input level");
            let cn = cur.n();
            if cn <= cfg.coarsen_to.max(2) || cur.m() == 0 {
                break;
            }
            let (cmap, nc) = cx.span("matching", |_| {
                let (m, stats) =
                    compute_matching_threads(cur, cfg.matching, &cewgt, &mut rng, cfg.threads);
                add(&c.matching_rounds, stats.rounds as u64);
                add(&c.matching_fallbacks, stats.fallback as u64);
                add(&c.matching_vertices, cn as u64);
                add(&c.matched_vertices, 2 * m.pairs as u64);
                m.to_cmap()
            });
            if nc as f64 > cfg.min_coarsen_shrink * cn as f64 {
                break;
            }
            let (coarse, stats) = cx.span("contract", |_| {
                contract_threads(cur, &cmap, nc, &cewgt, cfg.threads)
            });
            add(&c.contract_entries, stats.entries.iter().sum());
            cewgt = coarse.cewgt;
            graphs.push(coarse.graph);
            cmaps.push(cmap);
        }
        let h = Hierarchy { graphs, cmaps };
        add(&c.coarsen_levels, h.levels() as u64);
        let coarse_part = cx.span("initpart", |_| {
            initial_partition_traced(
                h.coarsest(),
                &bt,
                cfg.initial,
                cfg.trials(),
                &mut rng,
                cfg.threads,
                &Trace::disabled(),
            )
        });
        let refine = |level_graph: &CsrGraph, part: Vec<u8>| {
            cx.span("refine", |_| {
                let mut state = BisectState::with_threads(level_graph, part, cfg.threads);
                let s = refine_level_stats(&mut state, &bt, cfg.refinement, cfg, n);
                add(&c.refine_passes, s.passes as u64);
                add(&c.refine_moves, s.moves as u64);
                add(&c.refine_rollbacks, s.rollbacks as u64);
                std::mem::take(&mut state.part)
            })
        };
        let mut part = refine(h.coarsest(), coarse_part);
        for level in (0..h.levels() - 1).rev() {
            let fine = cx.span("project", |_| h.project(level, &part));
            part = refine(&h.graphs[level], fine);
        }
        // The entry point ends by building the finest state once more for
        // the returned cut and side weights.
        cx.span("refine", |_| {
            BisectState::with_threads(g, part, cfg.threads).part
        })
    })
}

/// `nested_dissection` with the multilevel bisector.
fn nested_dissection(cx: Cx, g: &CsrGraph, cfg: &NdConfig) -> Permutation {
    let NdBisector::Multilevel(mut ml) = cfg.bisector else {
        panic!("the benchmark orders with multilevel nested dissection");
    };
    if cfg.threads != 0 {
        ml.threads = cfg.threads;
    }
    cx.span("nested", |cx| {
        let mut seq = Vec::with_capacity(g.n());
        let all: Vec<Vid> = (0..g.n() as Vid).collect();
        order_rec(cx, g, &all, cfg, &ml, 1, &mut seq);
        Permutation::from_inverse(seq)
    })
}

/// The recursion of `nested_dissection`: order `sub` (whose vertices are
/// `orig` in the input) and append its elimination sequence to `seq`.
fn order_rec(
    cx: Cx,
    sub: &CsrGraph,
    orig: &[Vid],
    cfg: &NdConfig,
    ml: &MlConfig,
    salt: u64,
    seq: &mut Vec<Vid>,
) {
    let n = sub.n();
    if n == 0 {
        return;
    }
    let leaf = |seq: &mut Vec<Vid>| {
        let p = cx.span("mmd", |_| mmd_order(sub));
        seq.extend(p.iperm().iter().map(|&v| orig[v as usize]));
    };
    if n <= cfg.leaf_size {
        leaf(seq);
        return;
    }
    let total = sub.total_vwgt();
    let part = bisect(cx, sub, &ml.reseed(salt), [total / 2, total - total / 2]);
    let mut labels = cx.span("vcover", |_| vertex_separator(sub, &part));
    if cfg.refine_separator {
        cx.span("seprefine", |_| {
            refine_separator(sub, &mut labels, &SepRefineOptions::default())
        });
    }
    let sep_count = labels.iter().filter(|&&l| l == SEPARATOR).count();
    add(&cx.counts().separator_vertices, sep_count as u64);
    if sep_count == 0 || sep_count == n {
        leaf(seq);
        return;
    }
    let (sub_a, sub_b) = cx.span("subgraph", |_| {
        let sel_a: Vec<bool> = labels.iter().map(|&l| l == SIDE_A).collect();
        let sel_b: Vec<bool> = labels.iter().map(|&l| l == SIDE_B).collect();
        (induced_subgraph(sub, &sel_a), induced_subgraph(sub, &sel_b))
    });
    let orig_a: Vec<Vid> = sub_a.orig.iter().map(|&v| orig[v as usize]).collect();
    let orig_b: Vec<Vid> = sub_b.orig.iter().map(|&v| orig[v as usize]).collect();
    let mut seq_a = Vec::with_capacity(sub_a.graph.n());
    let mut seq_b = Vec::with_capacity(sub_b.graph.n());
    if n >= cfg.parallel_threshold {
        rayon::join(
            || order_rec(cx, &sub_a.graph, &orig_a, cfg, ml, salt * 2, &mut seq_a),
            || order_rec(cx, &sub_b.graph, &orig_b, cfg, ml, salt * 2 + 1, &mut seq_b),
        );
    } else {
        order_rec(cx, &sub_a.graph, &orig_a, cfg, ml, salt * 2, &mut seq_a);
        order_rec(cx, &sub_b.graph, &orig_b, cfg, ml, salt * 2 + 1, &mut seq_b);
    }
    seq.append(&mut seq_a);
    seq.append(&mut seq_b);
    seq.extend((0..n).filter(|&v| labels[v] == SEPARATOR).map(|v| orig[v]));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_s: f64, end_s: f64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_shares_parallel_instants() {
        // Two forks run at once over [2, 3]: that second is split between
        // them, so the self times add up to the 5 s of wall time.
        let spans = [
            span(1, 0, "request", 0.0, 5.0),
            span(2, 1, "matching", 1.0, 3.0),
            span(3, 1, "refine", 2.0, 4.0),
        ];
        let t = self_times(&spans);
        assert!((t["request"] - 2.0).abs() < 1e-12);
        assert!((t["matching"] - 1.5).abs() < 1e-12);
        assert!((t["refine"] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_leave_the_parent_only_its_gaps() {
        let spans = [
            span(1, 0, "bisect", 0.0, 4.0),
            span(2, 1, "matching", 0.5, 1.0),
            span(3, 1, "contract", 1.0, 3.0),
        ];
        let t = self_times(&spans);
        assert!((t["bisect"] - 1.5).abs() < 1e-12);
        assert!((t["matching"] - 0.5).abs() < 1e-12);
        assert!((t["contract"] - 2.0).abs() < 1e-12);
    }
}
