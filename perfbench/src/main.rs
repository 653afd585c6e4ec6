//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints JSON lines with the run context and details, then the result
//! line `{"correct", "attempted", "failed", "metrics"}` last.

use perfbench::{run, Options, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <request-mix|nd-order> --seed <n> \
                     --seconds <s> --trace <0|1>";

/// Where the traced run writes its span dump, relative to the directory
/// the benchmark runs from (the repository root).
const SPAN_DIR: &str = "perfbench/out";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 45.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(bad("expected a non-negative number"));
                }
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale: 1.0,
        span_dir: Some(PathBuf::from(SPAN_DIR)),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !perfbench::sys::keep_freed_memory() {
        eprintln!("warning: allocator tunables not set; page faults will add noise");
    }
    let report = run(&opts);
    for line in &report.notes {
        println!("{line}");
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
