//! # mlgp-bench
//!
//! Reproduction harness for the paper's evaluation (§4): one binary per
//! table/figure (see DESIGN.md §5) plus shared helpers, and Criterion
//! micro-benchmarks for the kernels.
//!
//! Every binary accepts `--scale F` (default 1.0) which shrinks each
//! workload to `F ×` its paper size — the figures involving the spectral
//! baselines are expensive at full scale, exactly as the paper reports
//! (MSB is the 10-35× slower method). `--keys A,B,C` restricts the rows,
//! and `--json [FILE]` additionally emits the rows as JSONL (to stdout when
//! no file is given) for tracking results across commits.

use mlgp_graph::generators::{check_scale, entry, SuiteEntry};
use mlgp_graph::CsrGraph;
use mlgp_trace::json::JsonObj;
use std::time::Instant;

/// Command-line options shared by all experiment binaries.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Workload scale factor (1.0 = paper size).
    pub scale: f64,
    /// Optional row restriction.
    pub keys: Option<Vec<String>>,
    /// Override part counts (figures).
    pub parts: Option<Vec<usize>>,
    /// JSONL destination: `Some("-")` is stdout, `None` disables the sink.
    pub json: Option<String>,
}

impl BenchOpts {
    /// Parse from `std::env::args`; on a malformed command line print the
    /// error to stderr and exit with status 2 (no panic backtrace).
    pub fn from_args() -> Self {
        Self::try_from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Fallible parser behind [`BenchOpts::from_args`].
    pub fn try_from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let args: Vec<String> = args.into_iter().collect();
        let mut opts = Self {
            scale: 1.0,
            keys: None,
            parts: None,
            json: None,
        };
        let mut i = 0;
        // `--json` may appear last with no operand (meaning stdout); the
        // value-carrying options must not swallow a following `--flag`.
        let value = |args: &[String], i: usize, name: &str| -> Result<String, String> {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => Ok(v.clone()),
                _ => Err(format!("{name} needs a value")),
            }
        };
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    let v = value(&args, i, "--scale")?;
                    let scale = v
                        .parse()
                        .map_err(|_| format!("--scale needs a number, got `{v}`"))?;
                    opts.scale = check_scale(scale).map_err(|e| format!("--scale: {e}"))?;
                    i += 2;
                }
                "--keys" => {
                    opts.keys = Some(
                        value(&args, i, "--keys")?
                            .split(',')
                            .map(|s| s.trim().to_uppercase())
                            .collect(),
                    );
                    i += 2;
                }
                "--parts" => {
                    let v = value(&args, i, "--parts")?;
                    opts.parts = Some(
                        v.split(',')
                            .map(|s| {
                                s.trim()
                                    .parse()
                                    .map_err(|_| format!("--parts: bad part count `{s}`"))
                            })
                            .collect::<Result<_, _>>()?,
                    );
                    i += 2;
                }
                "--json" => match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        opts.json = Some(v.clone());
                        i += 2;
                    }
                    _ => {
                        opts.json = Some("-".into());
                        i += 1;
                    }
                },
                other => {
                    return Err(format!(
                        "unknown option `{other}` (use --scale F, --keys A,B, --parts 64,128, --json [FILE])"
                    ));
                }
            }
        }
        Ok(opts)
    }

    /// The JSONL sink selected by `--json` (disabled when absent).
    pub fn json_sink(&self) -> JsonSink {
        JsonSink {
            dest: self.json.clone(),
            rows: Vec::new(),
        }
    }

    /// Filter a row list by `--keys`.
    pub fn select<'a>(&self, rows: &[&'a str]) -> Vec<&'a str> {
        match &self.keys {
            None => rows.to_vec(),
            Some(keys) => rows
                .iter()
                .copied()
                .filter(|r| keys.iter().any(|k| k == r))
                .collect(),
        }
    }

    /// Generate the (scaled) graph for a suite key.
    pub fn graph(&self, key: &str) -> (&'static SuiteEntry, CsrGraph) {
        // LINT: allow(panic, CLI-facing lookup — an unknown suite key is a usage error reported by aborting the bench run)
        let e = entry(key).unwrap_or_else(|| panic!("unknown suite key {key}"));
        (e, e.generate_scaled(self.scale))
    }

    /// Banner line describing the run.
    pub fn banner(&self, what: &str) {
        println!("== {what} ==");
        println!(
            "scale = {} (1.0 reproduces the paper's graph sizes); times are wall-clock seconds",
            self.scale
        );
        println!();
    }
}

/// Accumulates machine-readable result rows and writes them as JSONL when
/// the run finishes. Disabled (every call a no-op) unless `--json` was given,
/// so the human-readable tables stay the default output.
#[derive(Debug)]
pub struct JsonSink {
    dest: Option<String>,
    rows: Vec<String>,
}

impl JsonSink {
    /// Whether `--json` was requested.
    pub fn is_enabled(&self) -> bool {
        self.dest.is_some()
    }

    /// Append one row; `build` fills the object and is only invoked when the
    /// sink is enabled.
    pub fn row(&mut self, build: impl FnOnce(&mut JsonObj)) {
        if self.dest.is_none() {
            return;
        }
        let mut obj = JsonObj::new();
        build(&mut obj);
        self.rows.push(obj.finish());
    }

    /// Write the collected rows (one JSON object per line) to the `--json`
    /// destination — stdout for `-`, a file otherwise.
    pub fn finish(self) -> Result<(), String> {
        let Some(dest) = self.dest else {
            return Ok(());
        };
        let mut body = self.rows.join("\n");
        if !body.is_empty() {
            body.push('\n');
        }
        if dest == "-" {
            print!("{body}");
            Ok(())
        } else {
            std::fs::write(&dest, body).map_err(|e| format!("writing {dest}: {e}"))?;
            eprintln!("json rows written to {dest}");
            Ok(())
        }
    }
}

/// [`JsonSink::finish`] for binary `main`s: report the error and exit 2.
pub fn finish_or_exit(sink: JsonSink) {
    if let Err(e) = sink.finish() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

/// Time a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Format a count with thousands grouping for table readability.
pub fn group_thousands(x: i64) -> String {
    let s = x.abs().to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    if x < 0 {
        format!("-{out}")
    } else {
        out
    }
}

/// Fixed-width ASCII bar for terminal-rendered ratio "figures": 1.0 sits at
/// the midpoint marker, values are clamped to [0, 2].
pub fn ratio_bar(ratio: f64, width: usize) -> String {
    let clamped = ratio.clamp(0.0, 2.0);
    let fill = ((clamped / 2.0) * width as f64).round() as usize;
    let mut chars: Vec<char> = (0..width)
        .map(|i| if i < fill.min(width) { '#' } else { ' ' })
        .collect();
    let mid = width / 2;
    if chars[mid] == ' ' {
        chars[mid] = '|';
    }
    chars.into_iter().collect()
}

/// Shared driver for Figures 1-3: for each figure row and each part count,
/// print the ratio of our multilevel edge-cut to a baseline's, with an
/// ASCII bar (below 1.0 = we win, matching the paper's rendering).
pub fn run_quality_figure(
    opts: &BenchOpts,
    baseline_name: &str,
    baseline: &dyn Fn(&CsrGraph, usize, u64) -> Vec<u32>,
) {
    use mlgp_part::{edge_cut_kway, kway_partition_traced, MlConfig};
    use mlgp_trace::{Trace, SPAN_COARSEN, SPAN_INIT, SPAN_PROJECT, SPAN_REFINE};
    opts.banner(&format!(
        "edge-cut of our multilevel algorithm relative to {baseline_name} (bars under the | baseline mean we win)"
    ));
    let parts = opts.parts.clone().unwrap_or_else(|| vec![64, 128, 256]);
    println!(
        "{:<6} {:>6} {:>10} {:>10} {:>7}  0 ..... 1 ..... 2",
        "key", "k", "ours", baseline_name, "ratio"
    );
    let rows = opts.select(&mlgp_graph::generators::figure_rows());
    let mut product = 1.0f64;
    let mut count = 0usize;
    let mut sink = opts.json_sink();
    for key in rows {
        let (_, g) = opts.graph(key);
        for &k in &parts {
            let trace = Trace::enabled();
            let (r, ours_secs) =
                timed(|| kway_partition_traced(&g, k, &MlConfig::default(), &trace));
            let span = |path| trace.span_total(path).unwrap_or_default().as_secs_f64();
            let ours = r.edge_cut;
            let (base_part, base_secs) = timed(|| baseline(&g, k, 0xf15));
            let base = edge_cut_kway(&g, &base_part);
            let ratio = if base > 0 {
                ours as f64 / base as f64
            } else {
                f64::NAN
            };
            if ratio.is_finite() {
                product *= ratio;
                count += 1;
            }
            println!(
                "{:<6} {:>6} {:>10} {:>10} {:>7.3}  [{}]",
                key,
                k,
                group_thousands(ours),
                group_thousands(base),
                ratio,
                ratio_bar(ratio, 34)
            );
            sink.row(|o| {
                o.field_str("bench", "quality_figure");
                o.field_str("baseline", baseline_name);
                o.field_str("key", key);
                o.field_usize("k", k);
                o.field_i64("edge_cut", ours);
                o.field_i64("baseline_edge_cut", base);
                o.field_f64("ratio", ratio);
                o.field_f64("secs", ours_secs);
                o.field_f64("baseline_secs", base_secs);
                o.field_f64("ctime_secs", span(SPAN_COARSEN));
                o.field_f64(
                    "utime_secs",
                    span(SPAN_INIT) + span(SPAN_REFINE) + span(SPAN_PROJECT),
                );
            });
        }
    }
    if count > 0 {
        println!(
            "\ngeometric-mean ratio over {count} bars: {:.3} (paper: consistently < 1)",
            product.powf(1.0 / count as f64)
        );
    }
    finish_or_exit(sink);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_grouping() {
        assert_eq!(group_thousands(0), "0");
        assert_eq!(group_thousands(999), "999");
        assert_eq!(group_thousands(1000), "1,000");
        assert_eq!(group_thousands(1234567), "1,234,567");
        assert_eq!(group_thousands(-4200), "-4,200");
    }

    #[test]
    fn timing_returns_value() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn bars_have_fixed_width() {
        for r in [0.0, 0.5, 1.0, 1.5, 2.0, 9.0] {
            assert_eq!(ratio_bar(r, 40).len(), 40);
        }
    }

    #[test]
    fn select_filters() {
        let opts = BenchOpts {
            scale: 1.0,
            keys: Some(vec!["4ELT".into()]),
            parts: None,
            json: None,
        };
        assert_eq!(opts.select(&["BC31", "4ELT"]), vec!["4ELT"]);
        let all = BenchOpts {
            scale: 1.0,
            keys: None,
            parts: None,
            json: None,
        };
        assert_eq!(all.select(&["A", "B"]), vec!["A", "B"]);
    }

    #[test]
    fn graph_lookup_scales() {
        let opts = BenchOpts {
            scale: 0.02,
            keys: None,
            parts: None,
            json: None,
        };
        let (e, g) = opts.graph("LS34");
        assert_eq!(e.key, "LS34");
        assert!(g.n() < e.paper_order);
    }

    fn parse(args: &[&str]) -> Result<BenchOpts, String> {
        BenchOpts::try_from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arg_parsing_accepts_valid_forms() {
        let o = parse(&["--scale", "0.5", "--keys", "a,4elt", "--parts", "2,4"]).unwrap();
        assert_eq!(o.scale, 0.5);
        assert_eq!(
            o.keys.as_deref(),
            Some(&["A".to_string(), "4ELT".to_string()][..])
        );
        assert_eq!(o.parts.as_deref(), Some(&[2usize, 4][..]));
        assert_eq!(o.json, None);
        // Bare --json means stdout; --json FILE names the file.
        assert_eq!(parse(&["--json"]).unwrap().json.as_deref(), Some("-"));
        assert_eq!(
            parse(&["--json", "/tmp/rows.jsonl"])
                .unwrap()
                .json
                .as_deref(),
            Some("/tmp/rows.jsonl")
        );
        // --json before another flag still means stdout.
        let o = parse(&["--json", "--scale", "2"]).unwrap();
        assert_eq!(o.json.as_deref(), Some("-"));
        assert_eq!(o.scale, 2.0);
    }

    #[test]
    fn arg_parsing_rejects_malformed_input_with_messages() {
        for (args, needle) in [
            (&["--scale", "abc"][..], "--scale"),
            (&["--scale"][..], "needs a value"),
            (&["--scale", "-1"][..], "positive"),
            (&["--parts", "2,x"][..], "bad part count"),
            (&["--keys"][..], "needs a value"),
            (&["--frobnicate"][..], "unknown option"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(needle), "args {args:?}: {err}");
        }
    }

    #[test]
    fn json_sink_collects_and_renders_rows() {
        let enabled = BenchOpts {
            scale: 1.0,
            keys: None,
            parts: None,
            json: Some("-".into()),
        };
        let mut sink = enabled.json_sink();
        assert!(sink.is_enabled());
        sink.row(|o| {
            o.field_str("key", "4ELT");
            o.field_usize("k", 8);
        });
        assert_eq!(sink.rows, vec![r#"{"key":"4ELT","k":8}"#.to_string()]);

        let disabled = BenchOpts {
            scale: 1.0,
            keys: None,
            parts: None,
            json: None,
        };
        let mut sink = disabled.json_sink();
        assert!(!sink.is_enabled());
        sink.row(|_| panic!("builder must not run when the sink is disabled"));
        assert!(sink.rows.is_empty());
        sink.finish().unwrap();
    }
}
