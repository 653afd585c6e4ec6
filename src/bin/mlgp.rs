//! `mlgp` — command-line driver, in the spirit of the original `pmetis` /
//! `onmetis` tools.
//!
//! ```text
//! mlgp partition <graph> <k> [--report] [--report-json] [--stats] [--trace FILE]
//!                            [--method ml|ml-refined|msb|msb-kl|chaco] [--seed N]
//!                            [--out FILE] [--threads N]
//! mlgp order     <graph>     [--method mlnd|mmd|snd] [--stats] [--trace FILE] [--out FILE]
//!                            [--threads N]
//! mlgp gen       <key> <out> [--scale F]   # write a suite graph (.mtx → MatrixMarket)
//! mlgp info      <graph>
//! ```
//!
//! `--stats` prints the phase-tree summary (the paper's CTime/UTime
//! vocabulary) to stderr; `--trace FILE` writes the full JSONL telemetry
//! (one record per hierarchy level, eigensolver run, counter, and span —
//! schema in DESIGN.md).
//!
//! `<graph>` is either a Chaco/METIS `.graph` file, a MatrixMarket `.mtx`
//! file, or `gen:<KEY>[@SCALE]` for a synthetic suite graph (e.g.
//! `gen:4ELT`, `gen:BC31@0.1`).

use mlgp::prelude::*;
use mlgp_graph::generators;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("partition") => cmd_partition(&args[1..]),
        Some("order") => cmd_order(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
mlgp — multilevel graph partitioning (Karypis-Kumar ICPP'95 reproduction)

USAGE:
  mlgp partition <graph> <k> [--report] [--report-json] [--stats] [--trace FILE]
                             [--method ml|ml-refined|msb|msb-kl|chaco] [--seed N]
                             [--out FILE] [--threads N]
  mlgp order     <graph>     [--method mlnd|mmd|snd] [--stats] [--trace FILE] [--out FILE]
                             [--threads N]
  mlgp gen       <key> <out> [--scale F]
  mlgp info      <graph>

<graph> is a .graph/.mtx file or gen:<KEY>[@SCALE] (see `mlgp gen` keys in
DESIGN.md, e.g. gen:4ELT, gen:BC31@0.1). `gen` writes MatrixMarket when
<out> ends in .mtx (structure only) and Chaco/METIS otherwise.

--stats prints a phase-tree timing summary (CTime/UTime vocabulary) to
stderr; --trace FILE writes JSONL telemetry; --report-json prints the
partition quality report as one JSON object on stdout. --threads N caps
partition and order at N workers (0 = auto); the output is bit-identical
for every N. --method ml is multilevel recursive bisection;
ml-refined follows it with one k-way refinement sweep over the whole graph.
";

/// Positional arguments and `(name, value)` option pairs.
type ParsedArgs<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>);

/// Parse `--flag value` style options out of an argument list; returns the
/// positional arguments. Options named in `values` must be followed by a
/// value. Those named in `flags` are boolean: they take the next argument
/// only when it is `true` or `false`, so a flag never swallows a positional
/// argument, and a bare flag reads as `true`. Any other option is an error.
fn split_opts<'a>(
    args: &'a [String],
    values: &[&str],
    flags: &[&str],
) -> Result<ParsedArgs<'a>, String> {
    let mut pos = Vec::new();
    let mut opts = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(name) = a.strip_prefix("--") {
            let is_flag = flags.contains(&name);
            if !is_flag && !values.contains(&name) {
                return Err(format!("unknown option `{a}`\n{USAGE}"));
            }
            match args.get(i + 1).map(String::as_str) {
                Some(v) if is_flag && (v == "true" || v == "false") => {
                    opts.push((name, v));
                    i += 2;
                }
                Some(v) if !is_flag && !v.starts_with("--") => {
                    opts.push((name, v));
                    i += 2;
                }
                _ if is_flag => {
                    opts.push((name, "true"));
                    i += 1;
                }
                _ => return Err(format!("option `{a}` needs a value")),
            }
        } else {
            pos.push(a);
            i += 1;
        }
    }
    Ok((pos, opts))
}

fn opt<'a>(opts: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    opts.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// Parse a suite scale (`gen:<KEY>@SCALE`, `gen --scale`), refusing what
/// [`generators::check_scale`] refuses.
fn parse_scale(s: &str) -> Result<f64, String> {
    let scale = s.parse::<f64>().map_err(|_| format!("bad scale `{s}`"))?;
    generators::check_scale(scale).map_err(|e| format!("bad scale `{s}`: {e}"))
}

fn load_graph(spec: &str) -> Result<CsrGraph, String> {
    if let Some(genspec) = spec.strip_prefix("gen:") {
        let (key, scale) = match genspec.split_once('@') {
            Some((k, s)) => (k, parse_scale(s)?),
            None => (genspec, 1.0),
        };
        let entry = generators::entry(key)
            .ok_or_else(|| format!("unknown suite key `{key}` (see DESIGN.md §4)"))?;
        Ok(entry.generate_scaled(scale))
    } else {
        mlgp_graph::io::read_graph_file(Path::new(spec)).map_err(|e| e.to_string())
    }
}

/// Build a trace handle: enabled iff `--stats` or `--trace FILE` was given.
/// Records the shared metadata so exports are self-describing.
fn make_trace(opts: &[(&str, &str)], g: &CsrGraph, spec: &str) -> Trace {
    let wants_stats = opt(opts, "stats").is_some_and(|v| v != "false");
    let wants_file = opt(opts, "trace").is_some();
    if !wants_stats && !wants_file {
        return Trace::disabled();
    }
    let trace = Trace::enabled();
    trace.set_meta("graph", spec);
    trace.set_meta("vertices", g.n());
    trace.set_meta("edges", g.m());
    trace
}

/// Emit the collected telemetry: tree summary to stderr (`--stats`), JSONL
/// to the `--trace` file.
fn emit_trace(trace: &Trace, opts: &[(&str, &str)]) -> Result<(), String> {
    if opt(opts, "stats").is_some_and(|v| v != "false") {
        if let Some(tree) = trace.summary_tree() {
            eprint!("{tree}");
        }
    }
    if let Some(path) = opt(opts, "trace") {
        let jsonl = trace.to_jsonl().unwrap_or_default();
        std::fs::write(path, jsonl).map_err(|e| format!("writing trace {path}: {e}"))?;
        eprintln!("trace written to {path}");
    }
    Ok(())
}

/// Run a command body under the pool `--threads N` asks for (0, the
/// default, means every core), so N bounds the workers of the whole
/// command; the body gets N for its trace metadata.
fn with_threads(
    opts: &[(&str, &str)],
    body: impl FnOnce(usize) -> Result<(), String>,
) -> Result<(), String> {
    let threads: usize = opt(opts, "threads")
        .map(|s| s.parse().map_err(|_| format!("bad thread count `{s}`")))
        .transpose()?
        .unwrap_or(0);
    mlgp::linalg::with_fanout(threads, || body(threads))
}

fn cmd_partition(args: &[String]) -> Result<(), String> {
    let (pos, opts) = split_opts(
        args,
        &["method", "seed", "out", "threads", "trace"],
        &["report", "report-json", "stats"],
    )?;
    with_threads(&opts, |threads| partition(&pos, &opts, threads))
}

fn partition(pos: &[&str], opts: &[(&str, &str)], threads: usize) -> Result<(), String> {
    let [spec, k] = pos else {
        return Err(format!("partition needs <graph> <k>\n{USAGE}"));
    };
    // Part labels are `u32`, so k is too.
    let k = match k.parse::<u32>() {
        Ok(k) if k >= 1 => k as usize,
        _ => {
            return Err(format!(
                "bad k `{k}`: want a part count from 1 to {}",
                u32::MAX
            ))
        }
    };
    let method = opt(opts, "method").unwrap_or("ml");
    let seed: u64 = opt(opts, "seed")
        .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
        .transpose()?
        .unwrap_or(4242);
    let g = load_graph(spec)?;
    eprintln!(
        "graph: {} vertices, {} edges (avg degree {:.1})",
        g.n(),
        g.m(),
        g.avg_degree()
    );
    let trace = make_trace(opts, &g, spec);
    trace.set_meta("command", "partition");
    trace.set_meta("method", method);
    trace.set_meta("k", k);
    trace.set_meta("seed", seed);
    trace.set_meta("threads", threads);
    let t = Instant::now();
    let part: Vec<u32> = match method {
        "ml" => Ok(mlgp::part::kway_partition_traced(
            &g,
            k,
            &MlConfig {
                seed,
                ..MlConfig::default()
            },
            &trace,
        )
        .part),
        "ml-refined" => Ok(mlgp::part::kway_partition_refined_traced(
            &g,
            k,
            &MlConfig {
                seed,
                ..MlConfig::default()
            },
            &trace,
        )
        .part),
        "msb" => Ok(msb_kway(
            &g,
            k,
            &MsbConfig {
                seed,
                ..MsbConfig::default()
            },
        )),
        "msb-kl" => Ok(msb_kl_kway(
            &g,
            k,
            &MsbConfig {
                seed,
                ..MsbConfig::default()
            },
        )),
        "chaco" => Ok(chaco_ml_kway(
            &g,
            k,
            &ChacoMlConfig {
                seed,
                ..ChacoMlConfig::default()
            },
        )),
        other => Err(format!(
            "unknown method `{other}` (ml|ml-refined|msb|msb-kl|chaco)"
        )),
    }?;
    let elapsed = t.elapsed();
    let cut = edge_cut_kway(&g, &part);
    trace.set_meta("edge_cut", cut);
    println!(
        "method={method} k={k} edge-cut={cut} imbalance={:.3} time={:.3}s",
        imbalance(&g, &part, k),
        elapsed.as_secs_f64()
    );
    if opt(opts, "report").is_some_and(|v| v != "false") {
        println!("{}", mlgp_part::PartitionReport::new(&g, &part, k));
    }
    if opt(opts, "report-json").is_some_and(|v| v != "false") {
        println!(
            "{}",
            mlgp_part::PartitionReport::new(&g, &part, k).to_json()
        );
    }
    emit_trace(&trace, opts)?;
    if let Some(out) = opt(opts, "out") {
        let body: String = part.iter().map(|p| format!("{p}\n")).collect();
        std::fs::write(out, body).map_err(|e| e.to_string())?;
        eprintln!("partition vector written to {out}");
    }
    Ok(())
}

fn cmd_order(args: &[String]) -> Result<(), String> {
    let (pos, opts) = split_opts(args, &["method", "out", "threads", "trace"], &["stats"])?;
    with_threads(&opts, |threads| order(&pos, &opts, threads))
}

fn order(pos: &[&str], opts: &[(&str, &str)], threads: usize) -> Result<(), String> {
    let [spec] = pos else {
        return Err(format!("order needs <graph>\n{USAGE}"));
    };
    let method = opt(opts, "method").unwrap_or("mlnd");
    let g = load_graph(spec)?;
    eprintln!("graph: {} vertices, {} edges", g.n(), g.m());
    let trace = make_trace(opts, &g, spec);
    trace.set_meta("command", "order");
    trace.set_meta("method", method);
    trace.set_meta("threads", threads);
    let t = Instant::now();
    let perm = match method {
        "mlnd" => mlgp::order::nested_dissection_traced(&g, &mlgp::order::NdConfig::mlnd(), &trace),
        "mmd" => mmd_order(&g),
        "snd" => mlgp::order::nested_dissection_traced(&g, &mlgp::order::NdConfig::snd(), &trace),
        other => return Err(format!("unknown method `{other}` (mlnd|mmd|snd)")),
    };
    let elapsed = t.elapsed();
    let stats = analyze_ordering(&g, &perm);
    println!(
        "method={method} nnz(L)={} opcount={:.3e} etree-height={} time={:.3}s",
        stats.nnz_l,
        stats.opcount,
        stats.height,
        elapsed.as_secs_f64()
    );
    emit_trace(&trace, opts)?;
    if let Some(out) = opt(opts, "out") {
        let body: String = perm.perm().iter().map(|p| format!("{p}\n")).collect();
        std::fs::write(out, body).map_err(|e| e.to_string())?;
        eprintln!("permutation written to {out}");
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let (pos, opts) = split_opts(args, &["scale"], &[])?;
    let [key, out] = pos.as_slice() else {
        return Err(format!("gen needs <key> <out>\n{USAGE}"));
    };
    let scale = opt(&opts, "scale")
        .map(parse_scale)
        .transpose()?
        .unwrap_or(1.0);
    let entry = generators::entry(key).ok_or_else(|| format!("unknown suite key `{key}`"))?;
    let g = entry.generate_scaled(scale);
    mlgp_graph::io::write_graph_file(&g, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "{key} ({}): {} vertices, {} edges -> {out}",
        entry.paper_name,
        g.n(),
        g.m()
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let (pos, _) = split_opts(args, &[], &[])?;
    let [spec] = pos.as_slice() else {
        return Err(format!("info needs <graph>\n{USAGE}"));
    };
    let g = load_graph(spec)?;
    let (ncomp, _) = mlgp_graph::connected_components(&g);
    println!(
        "vertices={} edges={} avg-degree={:.2} max-degree={} components={} total-vwgt={} total-adjwgt={}",
        g.n(),
        g.m(),
        g.avg_degree(),
        g.max_degree(),
        ncomp,
        g.total_vwgt(),
        g.total_adjwgt()
    );
    Ok(())
}
