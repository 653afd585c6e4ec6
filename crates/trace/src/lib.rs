//! # mlgp-trace
//!
//! Zero-dependency observability layer for the multilevel pipeline.
//!
//! The paper's whole evaluation is an argument about *where time goes*
//! (CTime vs UTime, §4.1) and *how quality evolves across levels* (the
//! coarsening trajectories behind Figures 1–3, the cut trajectory during
//! uncoarsening). This crate provides the measurement substrate: a cheap
//! [`Trace`] handle threaded through the pipeline that collects
//!
//! * **spans** — wall-clock time accumulated under `/`-separated paths
//!   (`"coarsen"`, `"uncoarsen/init"`, …), preserving the paper's
//!   CTime / UTime = ITime + RTime + PTime vocabulary;
//! * **events** — typed per-level records ([`Event::CoarsenLevel`],
//!   [`Event::RefineLevel`], [`Event::Eigen`], …);
//! * **counters** — named monotone totals (FM passes, moves, rollbacks,
//!   early-exit triggers, …);
//! * **metadata** — free-form key/value context (graph, k, method, seed).
//!
//! A disabled handle ([`Trace::disabled`]) is a `None` and every recording
//! method is an early-returning no-op — no timestamps are taken, no locks
//! touched — so instrumented hot paths cost nothing when tracing is off.
//! An enabled handle is a cheap clone (`Arc`) that is `Send + Sync`, so it
//! crosses the rayon forks of recursive bisection and nested dissection.
//!
//! Output formats: [`Trace::summary_tree`] (human-readable tree, the
//! `--stats` flag) and [`Trace::to_jsonl`] (one JSON object per line, the
//! `--trace FILE` flag; schema documented in DESIGN.md §7).

pub mod json;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Lock a collector mutex, recovering from poisoning: a panic in traced
/// user code must not cascade into the observability layer, and every
/// critical section below is a short field update that cannot leave the
/// collector in a torn state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Span path for the coarsening phase — the paper's **CTime**.
pub const SPAN_COARSEN: &str = "coarsen";
/// Span path for coarsest-graph partitioning — the paper's **ITime**.
pub const SPAN_INIT: &str = "uncoarsen/init";
/// Span path for refinement during uncoarsening — the paper's **RTime**.
pub const SPAN_REFINE: &str = "uncoarsen/refine";
/// Span path for partition projection — the paper's **PTime**.
pub const SPAN_PROJECT: &str = "uncoarsen/project";
/// Span path of the whole uncoarsening phase — the paper's **UTime**
/// (never recorded directly; it is the sum of its children).
pub const SPAN_UNCOARSEN: &str = "uncoarsen";

/// A typed telemetry record. Each variant becomes one JSONL object with a
/// `"type"` discriminator.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// One level of the coarsening hierarchy (one record per level,
    /// including the coarsest, whose `matched_fraction` is 0).
    CoarsenLevel {
        /// Recursion-branch id (the deterministic reseed salt; 1 for a
        /// plain bisection, the recursion path for k-way).
        branch: u64,
        /// Level index (0 = finest / input graph).
        level: usize,
        /// Vertices of this level's graph.
        vertices: usize,
        /// Edges of this level's graph.
        edges: usize,
        /// Total vertex weight (conserved across levels).
        total_vwgt: i64,
        /// Total (exposed) edge weight `W(E_i)` of this level.
        edge_wgt: i64,
        /// Edge weight contracted *inside* multinodes so far (the paper's
        /// identity: `W(E_{i+1}) = W(E_i) − W(M_i)`).
        contracted_wgt: i64,
        /// Fraction of this level's vertices matched to form the next
        /// level (0 for the coarsest level).
        matched_fraction: f64,
        /// Matching scheme abbreviation (RM/HEM/LEM/HCM).
        scheme: &'static str,
    },
    /// One uncoarsening level's refinement outcome.
    RefineLevel {
        /// Recursion-branch id (matches the coarsening records).
        branch: u64,
        /// Level index being refined (hierarchy depth; coarsest first).
        level: usize,
        /// Vertices at this level.
        vertices: usize,
        /// Boundary vertices after refinement.
        boundary: usize,
        /// KL/FM passes executed.
        passes: usize,
        /// Vertex moves committed (kept after rollback).
        moves: usize,
        /// Vertex moves rolled back.
        rollbacks: usize,
        /// Passes ended by the `early_exit_moves` counter (see
        /// `MlConfig::early_exit_moves`).
        early_exit_triggers: usize,
        /// Edge-cut entering this level (for the coarsest level: the cut
        /// after initial partitioning, the paper's "cut after coarsest
        /// partition").
        cut_before: i64,
        /// Edge-cut after refinement at this level.
        cut_after: i64,
        /// Refinement policy abbreviation.
        policy: &'static str,
    },
    /// One Fiedler solve (`mlgp_linalg::fiedler_vector_traced`).
    Eigen {
        /// Solver name: `"lanczos"` or `"dense-jacobi"`.
        solver: &'static str,
        /// Operator dimension.
        n: usize,
        /// Matvecs for Lanczos; 0 for the direct dense solve.
        iters: usize,
        /// Final residual norm.
        residual: f64,
    },
    /// One nested-dissection separator split.
    Separator {
        /// Dissection depth (root = 0).
        depth: usize,
        /// Vertices of the dissected subgraph.
        vertices: usize,
        /// Vertex-separator size.
        separator: usize,
    },
    /// One direct k-way greedy sweep.
    KwaySweep {
        /// Passes over the vertices.
        passes: usize,
        /// Vertex moves applied.
        moves: usize,
        /// Edge-cut before the sweep.
        cut_before: i64,
        /// Edge-cut after the sweep.
        cut_after: i64,
    },
}

impl Event {
    /// The JSONL `"type"` discriminator of this event.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::CoarsenLevel { .. } => "coarsen_level",
            Event::RefineLevel { .. } => "refine_level",
            Event::Eigen { .. } => "eigen",
            Event::Separator { .. } => "separator",
            Event::KwaySweep { .. } => "kway_sweep",
        }
    }

    fn write_json(&self, o: &mut json::JsonObj) {
        o.field_str("type", self.kind());
        match *self {
            Event::CoarsenLevel {
                branch,
                level,
                vertices,
                edges,
                total_vwgt,
                edge_wgt,
                contracted_wgt,
                matched_fraction,
                scheme,
            } => {
                o.field_u64("branch", branch);
                o.field_usize("level", level);
                o.field_usize("vertices", vertices);
                o.field_usize("edges", edges);
                o.field_i64("total_vwgt", total_vwgt);
                o.field_i64("edge_wgt", edge_wgt);
                o.field_i64("contracted_wgt", contracted_wgt);
                o.field_f64("matched_fraction", matched_fraction);
                o.field_str("scheme", scheme);
            }
            Event::RefineLevel {
                branch,
                level,
                vertices,
                boundary,
                passes,
                moves,
                rollbacks,
                early_exit_triggers,
                cut_before,
                cut_after,
                policy,
            } => {
                o.field_u64("branch", branch);
                o.field_usize("level", level);
                o.field_usize("vertices", vertices);
                o.field_usize("boundary", boundary);
                o.field_usize("passes", passes);
                o.field_usize("moves", moves);
                o.field_usize("rollbacks", rollbacks);
                o.field_usize("early_exit_triggers", early_exit_triggers);
                o.field_i64("cut_before", cut_before);
                o.field_i64("cut_after", cut_after);
                o.field_str("policy", policy);
            }
            Event::Eigen {
                solver,
                n,
                iters,
                residual,
            } => {
                o.field_str("solver", solver);
                o.field_usize("n", n);
                o.field_usize("iters", iters);
                o.field_f64("residual", residual);
            }
            Event::Separator {
                depth,
                vertices,
                separator,
            } => {
                o.field_usize("depth", depth);
                o.field_usize("vertices", vertices);
                o.field_usize("separator", separator);
            }
            Event::KwaySweep {
                passes,
                moves,
                cut_before,
                cut_after,
            } => {
                o.field_usize("passes", passes);
                o.field_usize("moves", moves);
                o.field_i64("cut_before", cut_before);
                o.field_i64("cut_after", cut_after);
            }
        }
    }
}

/// Accumulated time under one span path.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanStat {
    /// Total accumulated wall-clock time.
    pub total: Duration,
    /// Number of recordings.
    pub calls: u64,
}

#[derive(Debug, Default)]
struct Inner {
    meta: Vec<(String, String)>,
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<String, u64>,
    events: Vec<Event>,
}

/// The shared collector behind an enabled [`Trace`].
#[derive(Debug, Default)]
pub struct Collector {
    inner: Mutex<Inner>,
}

/// A cheap, cloneable tracing handle. Disabled handles carry no collector
/// and make every method a no-op.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    sink: Option<Arc<Collector>>,
}

impl Trace {
    /// A no-op handle: nothing is recorded, no timestamps are taken.
    pub fn disabled() -> Self {
        Self { sink: None }
    }

    /// A recording handle backed by a fresh collector.
    pub fn enabled() -> Self {
        Self {
            sink: Some(Arc::new(Collector::default())),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Start a timer; returns a token that is `None` when disabled (so no
    /// `Instant::now()` is taken). Stop with [`Trace::stop`].
    ///
    /// This pair is the workspace's one doorway to the wall clock: lint rule
    /// `D3` bans `Instant` from the algorithm crates, so phase timings stay
    /// inside `crates/trace` and flow only into telemetry, never into a
    /// partitioning decision.
    #[inline]
    pub fn start(&self) -> Timer {
        Timer(self.sink.as_ref().map(|_| Instant::now()))
    }

    /// Stop `timer`, accumulating its elapsed time under `path`.
    #[inline]
    pub fn stop(&self, timer: Timer, path: &str) {
        if let (Some(t0), Some(_)) = (timer.0, self.sink.as_ref()) {
            self.add_time(path, t0.elapsed());
        }
    }

    /// Accumulate an externally measured duration under `path`
    /// (`/`-separated components form the summary tree).
    pub fn add_time(&self, path: &str, d: Duration) {
        if let Some(c) = &self.sink {
            let mut inner = lock(&c.inner);
            let s = inner.spans.entry(path.to_string()).or_default();
            s.total += d;
            s.calls += 1;
        }
    }

    /// Record a typed event.
    #[inline]
    pub fn record(&self, make: impl FnOnce() -> Event) {
        if let Some(c) = &self.sink {
            let ev = make();
            lock(&c.inner).events.push(ev);
        }
    }

    /// Add `delta` to the named counter.
    pub fn count(&self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        if let Some(c) = &self.sink {
            *lock(&c.inner).counters.entry(name.to_string()).or_default() += delta;
        }
    }

    /// Attach free-form metadata (duplicate keys keep the latest value).
    pub fn set_meta(&self, key: &str, value: impl std::fmt::Display) {
        if let Some(c) = &self.sink {
            let mut inner = lock(&c.inner);
            let value = value.to_string();
            if let Some(slot) = inner.meta.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                inner.meta.push((key.to_string(), value));
            }
        }
    }

    /// Total accumulated time under `path`, if any was recorded.
    pub fn span_total(&self, path: &str) -> Option<Duration> {
        let c = self.sink.as_ref()?;
        let inner = lock(&c.inner);
        inner.spans.get(path).map(|s| s.total)
    }

    /// Snapshot of all recorded events.
    pub fn events(&self) -> Vec<Event> {
        match &self.sink {
            Some(c) => lock(&c.inner).events.clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot of one counter (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.sink {
            Some(c) => lock(&c.inner).counters.get(name).copied().unwrap_or(0),
            None => 0,
        }
    }

    /// Human-readable summary: metadata header, the span tree (parents
    /// aggregate children), counters, and per-event-kind tallies. `None`
    /// when disabled.
    pub fn summary_tree(&self) -> Option<String> {
        let c = self.sink.as_ref()?;
        let inner = lock(&c.inner);
        let mut out = String::new();
        for (k, v) in &inner.meta {
            out.push_str(&format!("# {k} = {v}\n"));
        }
        let tree = SpanTree::build(&inner.spans);
        tree.render(&mut out);
        if !inner.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &inner.counters {
                out.push_str(&format!("  {name:<28} {value}\n"));
            }
        }
        if !inner.events.is_empty() {
            let mut kinds: BTreeMap<&'static str, usize> = BTreeMap::new();
            for e in &inner.events {
                *kinds.entry(e.kind()).or_default() += 1;
            }
            out.push_str("events:\n");
            for (kind, count) in kinds {
                out.push_str(&format!("  {kind:<28} {count}\n"));
            }
        }
        Some(out)
    }

    /// JSONL export: one `meta` record, one record per span / counter /
    /// event. `None` when disabled.
    pub fn to_jsonl(&self) -> Option<String> {
        let c = self.sink.as_ref()?;
        let inner = lock(&c.inner);
        let mut out = String::new();
        let mut meta = json::JsonObj::new();
        meta.field_str("type", "meta");
        for (k, v) in &inner.meta {
            meta.field_str(k, v);
        }
        out.push_str(&meta.finish());
        out.push('\n');
        for (path, stat) in &inner.spans {
            let mut o = json::JsonObj::new();
            o.field_str("type", "span");
            o.field_str("path", path);
            o.field_f64("secs", stat.total.as_secs_f64());
            o.field_u64("calls", stat.calls);
            out.push_str(&o.finish());
            out.push('\n');
        }
        for (name, value) in &inner.counters {
            let mut o = json::JsonObj::new();
            o.field_str("type", "counter");
            o.field_str("name", name);
            o.field_u64("value", *value);
            out.push_str(&o.finish());
            out.push('\n');
        }
        for e in &inner.events {
            let mut o = json::JsonObj::new();
            e.write_json(&mut o);
            out.push_str(&o.finish());
            out.push('\n');
        }
        Some(out)
    }
}

/// Token from [`Trace::start`]; `None` inside when the trace is disabled.
#[must_use = "stop the timer with Trace::stop to record its elapsed time"]
#[derive(Debug)]
pub struct Timer(Option<Instant>);

/// Span tree built from `/`-separated paths; parents aggregate children.
struct SpanTree {
    children: BTreeMap<String, SpanTree>,
    own: Duration,
    calls: u64,
}

impl SpanTree {
    fn new() -> Self {
        Self {
            children: BTreeMap::new(),
            own: Duration::ZERO,
            calls: 0,
        }
    }

    fn build(spans: &BTreeMap<String, SpanStat>) -> Self {
        let mut root = SpanTree::new();
        for (path, stat) in spans {
            let mut node = &mut root;
            for comp in path.split('/') {
                node = node
                    .children
                    .entry(comp.to_string())
                    .or_insert_with(SpanTree::new);
            }
            node.own += stat.total;
            node.calls += stat.calls;
        }
        root
    }

    /// Total time of this node: own plus all descendants.
    fn total(&self) -> Duration {
        self.own + self.children.values().map(|c| c.total()).sum::<Duration>()
    }

    fn render(&self, out: &mut String) {
        if self.children.is_empty() {
            return;
        }
        out.push_str("phase tree (wall-clock):\n");
        let grand: Duration = self.children.values().map(|c| c.total()).sum();
        for (name, node) in &self.children {
            node.render_rec(name, 1, grand, out);
        }
        out.push_str(&format!(
            "  {:<34} {:>10.4}s\n",
            "total",
            grand.as_secs_f64()
        ));
    }

    fn render_rec(&self, name: &str, depth: usize, grand: Duration, out: &mut String) {
        let total = self.total();
        let pct = if grand > Duration::ZERO {
            100.0 * total.as_secs_f64() / grand.as_secs_f64()
        } else {
            0.0
        };
        let indent = "  ".repeat(depth);
        let label = format!("{indent}{name}");
        let calls = if self.calls > 0 {
            format!("  ({} calls)", self.calls)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{label:<36} {:>10.4}s {pct:>5.1}%{calls}\n",
            total.as_secs_f64()
        ));
        for (child_name, child) in &self.children {
            child.render_rec(child_name, depth + 1, grand, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_takes_no_timestamps() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        let timer = t.start();
        assert!(timer.0.is_none(), "disabled trace must not read the clock");
        t.stop(timer, SPAN_COARSEN);
        t.add_time(SPAN_INIT, Duration::from_secs(5));
        t.record(|| Event::Eigen {
            solver: "lanczos",
            n: 10,
            iters: 3,
            residual: 0.5,
        });
        t.count("moves", 7);
        t.set_meta("graph", "4ELT");
        assert_eq!(t.span_total(SPAN_INIT), None);
        assert!(t.events().is_empty());
        assert_eq!(t.counter("moves"), 0);
        assert!(t.summary_tree().is_none());
        assert!(t.to_jsonl().is_none());
    }

    #[test]
    fn record_closure_not_called_when_disabled() {
        let t = Trace::disabled();
        let mut called = false;
        // `record` takes FnOnce, but must not invoke it on a disabled
        // handle (the closure may compute expensive statistics).
        t.record(|| {
            called = true;
            Event::Separator {
                depth: 0,
                vertices: 0,
                separator: 0,
            }
        });
        assert!(!called);
    }

    #[test]
    fn span_nesting_reconstructs_utime_identity() {
        // UTime = ITime + RTime + PTime (paper §4.1), the sum of the children
        // of the never-recorded `SPAN_UNCOARSEN`.
        let t = Trace::enabled();
        let (i, r, p) = (
            Duration::from_millis(120),
            Duration::from_millis(300),
            Duration::from_millis(45),
        );
        t.add_time(SPAN_COARSEN, Duration::from_millis(500));
        t.add_time(SPAN_INIT, i);
        t.add_time(SPAN_REFINE, r);
        t.add_time(SPAN_PROJECT, p);
        let spans = {
            let inner = t.sink.as_ref().unwrap().inner.lock().unwrap();
            inner.spans.clone()
        };
        let tree = SpanTree::build(&spans);
        let uncoarsen = tree.children.get(SPAN_UNCOARSEN).unwrap();
        assert_eq!(uncoarsen.total(), i + r + p);
        assert_eq!(
            tree.total(),
            Duration::from_millis(500) + i + r + p,
            "root total = CTime + UTime"
        );
        let text = t.summary_tree().unwrap();
        assert!(text.contains("coarsen"), "{text}");
        assert!(text.contains("uncoarsen"), "{text}");
        assert!(text.contains("refine"), "{text}");
    }

    #[test]
    fn clones_share_the_collector_across_threads() {
        let t = Trace::enabled();
        let t2 = t.clone();
        std::thread::scope(|s| {
            s.spawn(|| t2.count("moves", 5));
            t.count("moves", 3);
        });
        assert_eq!(t.counter("moves"), 8);
    }

    #[test]
    fn jsonl_is_parseable_and_complete() {
        let t = Trace::enabled();
        t.set_meta("graph", "gen:\"quoted\"\nname");
        t.add_time(SPAN_COARSEN, Duration::from_millis(10));
        t.count("fm_passes", 2);
        t.record(|| Event::CoarsenLevel {
            branch: 1,
            level: 0,
            vertices: 100,
            edges: 250,
            total_vwgt: 100,
            edge_wgt: 250,
            contracted_wgt: 0,
            matched_fraction: 0.92,
            scheme: "HEM",
        });
        t.record(|| Event::RefineLevel {
            branch: 1,
            level: 0,
            vertices: 100,
            boundary: 12,
            passes: 2,
            moves: 30,
            rollbacks: 4,
            early_exit_triggers: 1,
            cut_before: 40,
            cut_after: 31,
            policy: "BKLGR",
        });
        let jsonl = t.to_jsonl().unwrap();
        let mut kinds = Vec::new();
        for line in jsonl.lines() {
            let v = json::parse(line).expect(line);
            kinds.push(v.get("type").and_then(|t| t.as_str()).unwrap().to_string());
        }
        assert_eq!(
            kinds,
            ["meta", "span", "counter", "coarsen_level", "refine_level"]
        );
        let coarsen = jsonl.lines().find(|l| l.contains("coarsen_level")).unwrap();
        let v = json::parse(coarsen).unwrap();
        assert_eq!(v.get("vertices").and_then(|x| x.as_f64()), Some(100.0));
        assert_eq!(
            v.get("matched_fraction").and_then(|x| x.as_f64()),
            Some(0.92)
        );
    }

    #[test]
    fn meta_updates_in_place() {
        let t = Trace::enabled();
        t.set_meta("k", 4);
        t.set_meta("k", 8);
        let text = t.summary_tree().unwrap();
        assert!(text.contains("# k = 8"));
        assert!(!text.contains("# k = 4"));
    }

    #[test]
    fn timer_round_trip_accumulates() {
        let t = Trace::enabled();
        for _ in 0..3 {
            let timer = t.start();
            std::thread::sleep(Duration::from_millis(1));
            t.stop(timer, "phase");
        }
        let total = t.span_total("phase").unwrap();
        assert!(total >= Duration::from_millis(3));
        let inner = t.sink.as_ref().unwrap().inner.lock().unwrap();
        assert_eq!(inner.spans.get("phase").unwrap().calls, 3);
    }
}
