//! One benchmark run: set-up, then either the measured closed loop or the
//! traced passes, with every output checked.

use crate::calib::{scaled, Reference};
use crate::stats::{median, tail_percentile};
use crate::sys::{last_level_cache, nproc, peak_rss_mb, process_cpu_s};
use crate::traced::{module_of, serve_traced, Span, Tracer, LAYER_TIMES, SPEEDUPS};
use crate::workload::{build_inputs, check, serve, Inputs, Quality, Request, Served, Workload};
use mlgp_graph::rng::{seeded, shuffle};
use mlgp_trace::json::{escape, fmt_f64, JsonObj};
use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Fewest times the measured run repeats its set-up; the median is
/// reported.
pub const SETUP_REPS: usize = 15;
/// Fewest seconds (reference timings included) the measured run spends
/// repeating its set-up, so that a set-up of a few milliseconds still gets
/// enough samples for a steady median.
pub const SETUP_MIN_S: f64 = 2.0;

/// Fewest passes of a measured run, so that every request is repeated
/// (its fingerprint checked against the first output, its time taken as
/// the median of its repeats).
pub const MIN_PASSES: usize = 2;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the request order.
    pub seed: u64,
    /// Seconds the measured run serves requests for, rounded up to whole
    /// passes over the requests (at least [`MIN_PASSES`]).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the measured run.
    pub trace: bool,
    /// Graph-size factor; 1.0 is the benchmark.
    pub scale: f64,
    /// Where the traced run writes its span dump (none: not written).
    pub span_dir: Option<PathBuf>,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every output passed its checks.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests whose output failed a check (or that errored).
    pub failed: u64,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// JSON lines with the run context and details, printed before the
    /// result line.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = JsonObj::new();
        for m in &self.metrics {
            let mut v = JsonObj::new();
            v.field_f64("value", m.value);
            v.field_str("unit", m.unit);
            metrics.field_raw(m.name, &v.finish());
        }
        let mut o = JsonObj::new();
        o.field_bool("correct", self.correct);
        o.field_u64("attempted", self.attempted);
        o.field_u64("failed", self.failed);
        o.field_raw("metrics", &metrics.finish());
        o.finish()
    }
}

/// Run the benchmark as `opts` says.
pub fn run(opts: &Options) -> Report {
    if opts.trace {
        traced_run(opts)
    } else {
        measured_run(opts)
    }
}

/// Make the inputs; returns them and the seconds each making took. With a
/// reference, set-up is repeated at least [`SETUP_REPS`] times and for at
/// least [`SETUP_MIN_S`], and each time is scaled by the reference timed
/// around it. Earlier copies are dropped before the next is made, so
/// set-up never holds two.
fn setup(opts: &Options, reference: Option<&Reference>) -> (Inputs, Vec<f64>) {
    let mut times = Vec::new();
    let mut inputs = None;
    let start = Instant::now();
    let mut before = reference.map_or(0.0, |r| r.time(1));
    loop {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(build_inputs(opts.workload, opts.seed, opts.scale));
        let s = t.elapsed().as_secs_f64();
        let Some(r) = reference else {
            times.push(s);
            break;
        };
        let after = r.time(1);
        times.push(scaled(s, (before + after) / 2.0));
        before = after;
        if times.len() >= SETUP_REPS && start.elapsed().as_secs_f64() >= SETUP_MIN_S {
            break;
        }
    }
    (inputs.expect("set-up ran at least once"), times)
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the advisory pool builds for any thread count")
}

/// One closed-loop pass over the requests: each is sent when the previous
/// one has returned. Outputs are kept for checking after the pass. Every
/// vector is indexed by request, whatever order the pass sent them in.
struct Pass {
    /// Wall seconds of each request.
    latencies: Vec<f64>,
    /// Process CPU seconds of each request.
    cpu: Vec<f64>,
    /// Mean of the reference seconds just before and just after each
    /// request (empty when the pass ran without the reference).
    refs: Vec<f64>,
    wall_s: f64,
    served: Vec<Result<Served, String>>,
}

impl Pass {
    /// `seconds` of request `i` scaled by the reference around it.
    fn scaled(&self, i: usize, seconds: f64) -> f64 {
        scaled(seconds, self.refs[i])
    }
}

/// Serve every request once, in `order`. With a reference, it is timed (at
/// `threads`) before the first request and after each; `wall_s` counts
/// serving only.
fn run_pass<F>(
    inputs: &Inputs,
    order: &[usize],
    pool: &rayon::ThreadPool,
    reference: Option<(&Reference, usize)>,
    serve_one: F,
) -> Pass
where
    F: Fn(&Request, u32) -> Result<Served, String>,
{
    let n = inputs.requests.len();
    let mut latencies = vec![0.0; n];
    let mut cpu = vec![0.0; n];
    let mut refs = vec![0.0; if reference.is_some() { n } else { 0 }];
    let mut served: Vec<Option<Result<Served, String>>> = (0..n).map(|_| None).collect();
    let mut wall_s = 0.0;
    let time_ref = || reference.map_or(0.0, |(r, threads)| r.time(threads));
    let mut before = time_ref();
    for &i in order {
        let req = &inputs.requests[i];
        let c = process_cpu_s();
        let t = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| serve_one(req, i as u32))
        }))
        .unwrap_or_else(|_| Err("request panicked".to_string()));
        latencies[i] = t.elapsed().as_secs_f64();
        cpu[i] = process_cpu_s() - c;
        wall_s += latencies[i];
        served[i] = Some(r);
        if reference.is_some() {
            let after = time_ref();
            refs[i] = (before + after) / 2.0;
            before = after;
        }
    }
    Pass {
        latencies,
        cpu,
        refs,
        wall_s,
        served: served
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err("request not in the pass order".to_string())))
            .collect(),
    }
}

/// The order of pass `pass`: the seed's order first, then a fresh shuffle
/// of it per pass, so that each request's repeats follow different
/// requests and no one order's cache and allocator state sets the result.
fn pass_order(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if pass > 0 {
        let mut rng = seeded(seed ^ (pass as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        shuffle(&mut rng, &mut order);
    }
    order
}

/// Checks outputs and tallies failures. The first output of each request
/// is the reference every repeat of it must reproduce.
struct Tally {
    attempted: u64,
    failed: u64,
    reference: Vec<Option<u64>>,
    /// Quality of each request's first output.
    quality: Vec<Option<Quality>>,
    /// Wall seconds of each repeat of each request, scaled by the
    /// reference when the pass timed one.
    wall: Vec<Vec<f64>>,
    /// Process CPU seconds of each repeat of each request, scaled alike.
    cpu: Vec<Vec<f64>>,
    /// Least unscaled wall seconds of each request over its repeats.
    raw_best_wall: Vec<f64>,
}

impl Tally {
    fn new(requests: usize) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            reference: vec![None; requests],
            quality: vec![None; requests],
            wall: vec![Vec::new(); requests],
            cpu: vec![Vec::new(); requests],
            raw_best_wall: vec![f64::INFINITY; requests],
        }
    }

    fn record(&mut self, inputs: &Inputs, i: usize, result: &Result<Served, String>) {
        let req = &inputs.requests[i];
        self.attempted += 1;
        let outcome = result.as_ref().map_err(Clone::clone).and_then(|served| {
            let q = check(inputs, req, served)?;
            let fp = served.output.fingerprint();
            match self.reference[i] {
                Some(first) if first != fp => Err(format!(
                    "repeat fingerprint {fp:016x} != first {first:016x}"
                )),
                _ => {
                    self.reference[i] = Some(fp);
                    Ok(q)
                }
            }
        });
        match outcome {
            Ok(q) => {
                self.quality[i].get_or_insert(q);
            }
            Err(e) => {
                self.failed += 1;
                eprintln!(
                    "request {i} ({} k={}) failed: {e}",
                    inputs.names[req.graph], req.k
                );
            }
        }
    }

    fn record_pass(&mut self, inputs: &Inputs, pass: &Pass) {
        for (i, r) in pass.served.iter().enumerate() {
            self.record(inputs, i, r);
            let (wall, cpu) = (pass.latencies[i], pass.cpu[i]);
            self.raw_best_wall[i] = self.raw_best_wall[i].min(wall);
            if pass.refs.is_empty() {
                self.wall[i].push(wall);
                self.cpu[i].push(cpu);
            } else {
                self.wall[i].push(pass.scaled(i, wall));
                self.cpu[i].push(pass.scaled(i, cpu));
            }
        }
    }

    /// Each request's median over its repeats of `samples`.
    fn per_request(samples: &[Vec<f64>]) -> Vec<f64> {
        samples.iter().map(|s| median(s)).collect()
    }
}

/// Quality summed over one pass (first outputs only).
#[derive(Debug, Default)]
struct PassQuality {
    cut: i64,
    comm_volume: u64,
    imbalance_max: f64,
    opcount: f64,
    fill_nnz: u64,
}

fn pass_quality(tally: &Tally) -> PassQuality {
    let mut s = PassQuality::default();
    for q in tally.quality.iter().flatten() {
        s.cut += q.cut;
        s.comm_volume += q.comm_volume as u64;
        s.imbalance_max = s.imbalance_max.max(q.imbalance);
        s.opcount += q.opcount;
        s.fill_nnz += q.fill_nnz;
    }
    s
}

/// Bytes of a graph's CSR arrays: offsets and adjacency (`u32`), vertex
/// and edge weights (`i64`). Computed from the sizes, not measured.
fn csr_bytes(n: usize, m: usize) -> u64 {
    ((n + 1) * 4 + 2 * m * 4 + n * 8 + 2 * m * 8) as u64
}

/// The run context line: machine, threads, cache and working sets.
fn context_line(opts: &Options, inputs: &Inputs, threads: usize) -> String {
    let llc = last_level_cache();
    let llc_bytes = llc.map_or(0, |(_, b)| b);
    let mut o = JsonObj::new();
    o.field_str("workload", opts.workload.name());
    o.field_u64("seed", opts.seed);
    o.field_f64("seconds", opts.seconds);
    o.field_f64("scale", opts.scale);
    o.field_bool("trace", opts.trace);
    o.field_usize("nproc", nproc());
    o.field_usize("threads", threads);
    o.field_u64("llc_level", llc.map_or(0, |(l, _)| l as u64));
    o.field_u64("llc_bytes", llc_bytes);
    o.field_usize("requests_per_pass", inputs.requests.len());
    let repartitions = inputs.requests.iter().filter(|r| r.repartition).count();
    o.field_f64(
        "repartition_share",
        repartitions as f64 / inputs.requests.len().max(1) as f64,
    );
    let mut graphs = Vec::new();
    let mut total = 0u64;
    for (name, g) in inputs.names.iter().zip(&inputs.graphs) {
        let bytes = csr_bytes(g.n(), g.m());
        total += bytes;
        let mut e = JsonObj::new();
        e.field_str("name", name);
        e.field_usize("n", g.n());
        e.field_usize("m", g.m());
        e.field_u64("csr_bytes_computed", bytes);
        if llc_bytes > 0 {
            e.field_f64(
                "csr_bytes_computed_over_llc",
                bytes as f64 / llc_bytes as f64,
            );
        }
        graphs.push(e.finish());
    }
    o.field_u64("csr_bytes_computed_total", total);
    if opts.workload != Workload::RequestMix {
        o.field_raw("graphs", &format!("[{}]", graphs.join(",")));
    } else {
        o.field_usize("graphs", inputs.graphs.len());
        let payload: usize = inputs.payloads.iter().map(|p| p.bytes.len()).sum();
        o.field_usize("payload_bytes", payload);
    }
    format!("{{\"context\":{}}}", o.finish())
}

fn measured_run(opts: &Options) -> Report {
    let threads = opts.workload.threads(nproc());
    let reference = Reference::new();
    let (inputs, setup_s) = setup(opts, Some(&reference));
    let rss_after_setup = peak_rss_mb().unwrap_or(0.0);
    let pool = pool(threads);
    let serve_one = |req: &Request, _: u32| serve(&inputs, req, threads);
    let mut tally = Tally::new(inputs.requests.len());
    let mut refs = Vec::new();
    let mut pass_scaled_s = Vec::new();
    let mut busy_s = 0.0;
    let mut passes = 0;
    while passes < MIN_PASSES || busy_s < opts.seconds {
        let order = pass_order(inputs.requests.len(), opts.seed, passes);
        let pass = run_pass(
            &inputs,
            &order,
            &pool,
            Some((&reference, threads)),
            serve_one,
        );
        tally.record_pass(&inputs, &pass);
        refs.extend_from_slice(&pass.refs);
        pass_scaled_s.push(
            (0..pass.latencies.len())
                .map(|i| pass.scaled(i, pass.latencies[i]))
                .sum::<f64>(),
        );
        busy_s += pass.wall_s;
        passes += 1;
    }
    let peak_rss = peak_rss_mb().unwrap_or(0.0);
    // Each request's time is the median over its repeats, scaled by the
    // reference around each repeat; a pass at those times is the unit.
    let wall = Tally::per_request(&tally.wall);
    let cpu = Tally::per_request(&tally.cpu);
    let latencies: Vec<f64> = tally.wall.iter().flatten().copied().collect();
    let pass_s: f64 = wall.iter().sum();
    let pass_edges: usize = inputs
        .requests
        .iter()
        .map(|r| inputs.graphs[r.graph].m())
        .sum();
    let edges_per_s = pass_edges as f64 / pass_s.max(f64::MIN_POSITIVE);

    let q = pass_quality(&tally);
    let partitions = opts.workload.partitions();
    let p90 = tail_percentile(&latencies, 0.9);
    let mut detail = JsonObj::new();
    detail.field_usize("passes", passes);
    detail.field_f64("busy_s", busy_s);
    detail.field_usize("latency_samples", latencies.len());
    detail.field_f64("latency_s.p50_all_samples", median(&latencies));
    detail.field_f64("unscaled_latency_s.p50", median(&tally.raw_best_wall));
    detail.field_f64("reference_s.p50", median(&refs));
    detail.field_usize("reference_threads", threads);
    detail.field_raw(
        "pass_scaled_s",
        &format!(
            "[{}]",
            pass_scaled_s
                .iter()
                .map(|&s| fmt_f64(s))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    match p90 {
        Some(v) => detail.field_f64("latency_s.p90", v),
        None => detail.field_raw("latency_s.p90", "null"),
    }
    if partitions {
        detail.field_i64("edge_cut", q.cut);
        detail.field_u64("comm_volume", q.comm_volume);
        detail.field_f64("imbalance_max", q.imbalance_max);
    } else {
        detail.field_f64("opcount", q.opcount);
        detail.field_u64("fill_nnz", q.fill_nnz);
    }
    detail.field_f64(
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    detail.field_f64("peak_rss_after_setup_mb", rss_after_setup);
    detail.field_raw(
        "setup_s_samples",
        &format!(
            "[{}]",
            setup_s
                .iter()
                .map(|&s| fmt_f64(s))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );

    let (objective, aux) = if partitions {
        (q.cut as f64, q.comm_volume as f64)
    } else {
        (q.opcount, q.fill_nnz as f64)
    };
    let metric = |name, value, unit| Metric { name, value, unit };
    Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("latency_s.p50", median(&wall), "s"),
            metric("edges_per_s", edges_per_s, "1/s"),
            metric("cpu_s", cpu.iter().sum(), "s"),
            metric("peak_rss_mb", peak_rss, "MiB"),
            metric("cut_or_opcount", objective, "count"),
            metric("volume_or_fill", aux, "count"),
        ],
        notes: vec![
            context_line(opts, &inputs, threads),
            format!("{{\"detail\":{}}}", detail.finish()),
        ],
    }
}

fn traced_run(opts: &Options) -> Report {
    let threads = opts.workload.threads(nproc());
    let (inputs, _) = setup(opts, None);
    let pool_t = pool(threads);
    let pool_1 = pool(1);
    let order = pass_order(inputs.requests.len(), opts.seed, 0);
    let mut tally = Tally::new(inputs.requests.len());

    // The untraced entry points give the reference outputs and times.
    let untraced = run_pass(&inputs, &order, &pool_t, None, |req, _| {
        serve(&inputs, req, threads)
    });
    tally.record_pass(&inputs, &untraced);
    let tracer = Tracer::default();
    let traced = run_pass(&inputs, &order, &pool_t, None, |req, i| {
        serve_traced(&tracer, &inputs, req, i, threads)
    });
    // The same rebuilt pipelines on one thread give the serial self times.
    let tracer_1 = Tracer::default();
    let serial = run_pass(&inputs, &order, &pool_1, None, |req, i| {
        serve_traced(&tracer_1, &inputs, req, i, 1)
    });
    let mut unattributed = 0u64;
    for pass in [&traced, &serial] {
        for (i, r) in pass.served.iter().enumerate() {
            let fp = r.as_ref().ok().map(|s| s.output.fingerprint());
            if fp.is_none() || fp != tally.reference[i] {
                unattributed += 1;
            }
        }
    }
    if unattributed > 0 {
        eprintln!(
            "warning: {unattributed} rebuilt request(s) did not reproduce the entry point's \
             output; the per-layer numbers are unattributed"
        );
    }

    let self_t = tracer.self_times();
    let self_1 = tracer_1.self_times();
    let time = |m: &BTreeMap<&str, f64>, name: &str| m.get(name).copied().unwrap_or(0.0);
    let mut metrics = Vec::new();
    for (span, metric) in LAYER_TIMES {
        metrics.push(Metric {
            name: metric,
            value: time(&self_t, span),
            unit: "s",
        });
    }
    for (name, v) in tracer.count_values() {
        metrics.push(Metric {
            name,
            value: v as f64,
            unit: "count",
        });
    }
    for (name, v) in tracer.ratios() {
        metrics.push(Metric {
            name,
            value: v,
            unit: "ratio",
        });
    }
    for (span, name) in SPEEDUPS {
        let par = time(&self_t, span);
        metrics.push(Metric {
            name,
            value: if par > 0.0 {
                time(&self_1, span) / par
            } else {
                0.0
            },
            unit: "x",
        });
    }
    let sum = |p: &Pass| p.latencies.iter().sum::<f64>();
    metrics.push(Metric {
        name: "trace_overhead_s",
        value: sum(&traced) - sum(&untraced),
        unit: "s",
    });
    metrics.push(Metric {
        name: "trace.unattributed",
        value: unattributed as f64,
        unit: "count",
    });

    let mut notes = vec![context_line(opts, &inputs, threads)];
    notes.push(layer_line(&self_t, &self_1, unattributed));
    if let Some(dir) = &opts.span_dir {
        match dump_spans(dir, opts.workload, &[(threads, &tracer), (1, &tracer_1)]) {
            Ok(path) => notes.push(format!("{{\"span_dump\":{}}}", escape(&path))),
            Err(e) => eprintln!("warning: span dump not written: {e}"),
        }
    }
    Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}

/// Self seconds per module (and per span name) of both traced passes.
fn layer_line(
    self_t: &BTreeMap<&'static str, f64>,
    self_1: &BTreeMap<&'static str, f64>,
    unattributed: u64,
) -> String {
    let by_module = |m: &BTreeMap<&'static str, f64>| {
        let mut modules: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, s) in m {
            *modules.entry(module_of(name)).or_insert(0.0) += s;
        }
        let mut o = JsonObj::new();
        for (k, v) in modules {
            o.field_f64(k, v);
        }
        o.finish()
    };
    let by_span = |m: &BTreeMap<&'static str, f64>| {
        let mut o = JsonObj::new();
        for (k, v) in m {
            o.field_f64(k, *v);
        }
        o.finish()
    };
    let mut o = JsonObj::new();
    o.field_bool("attributed", unattributed == 0);
    o.field_raw("module_self_s", &by_module(self_t));
    o.field_raw("span_self_s", &by_span(self_t));
    o.field_raw("serial_module_self_s", &by_module(self_1));
    o.field_raw("serial_span_self_s", &by_span(self_1));
    format!("{{\"layers\":{}}}", o.finish())
}

/// Write every span of the traced passes as JSON lines; returns the path.
fn dump_spans(
    dir: &std::path::Path,
    workload: Workload,
    passes: &[(usize, &Tracer)],
) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}.jsonl", workload.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for &(threads, tracer) in passes {
        let mut spans: Vec<Span> = tracer.spans();
        spans.sort_by_key(|s| s.id);
        for s in spans {
            let mut o = JsonObj::new();
            o.field_usize("threads", threads);
            o.field_u64("request", s.request as u64);
            o.field_u64("id", s.id);
            o.field_u64("parent", s.parent);
            o.field_str("name", s.name);
            o.field_str("module", module_of(s.name));
            o.field_f64("start_s", s.start_s);
            o.field_f64("end_s", s.end_s);
            writeln!(out, "{}", o.finish())?;
        }
    }
    out.flush()?;
    Ok(path.display().to_string())
}
