//! Fast self-tests: a tiny-scale run of every workload in both modes, the
//! tail-percentile rule, and the printed metric names against
//! `BENCHMARK.json`.

use mlgp_trace::json::{parse, Value};
use perfbench::{run, Options, Report, Workload};
use std::collections::BTreeSet;

/// Graph-size factor of the smoke runs.
const TINY: f64 = 0.01;

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    run(&Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: TINY,
        span_dir: None,
    })
}

/// Metric names listed under `section` in the repository's `BENCHMARK.json`.
fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

fn printed(report: &Report) -> BTreeSet<String> {
    let line = parse(&report.result_line()).expect("result line parses");
    let Some(Value::Obj(metrics)) = line.get("metrics") else {
        panic!("result line has a metrics object");
    };
    for (name, m) in metrics {
        assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
        assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
    }
    metrics.keys().cloned().collect()
}

#[test]
fn every_workload_runs_clean_at_tiny_scale() {
    let end_to_end = declared("end_to_end");
    for w in Workload::ALL {
        let r = tiny(w, 1, false);
        assert!(r.correct && r.failed == 0, "{}: {r:?}", w.name());
        assert!(r.attempted >= 1);
        assert_eq!(printed(&r), end_to_end, "{}", w.name());
        for m in &r.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }
    }
}

#[test]
fn traced_runs_reproduce_the_entry_points() {
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        let r = tiny(w, 2, true);
        assert!(r.correct, "{}: {r:?}", w.name());
        assert_eq!(printed(&r), per_layer, "{}", w.name());
        let unattributed = r.metrics.iter().find(|m| m.name == "trace.unattributed");
        assert_eq!(unattributed.map(|m| m.value), Some(0.0), "{}", w.name());
    }
}

#[test]
fn workload_names_match_the_manifest() {
    let names: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, declared("workloads"));
}

#[test]
fn quality_does_not_depend_on_the_seed() {
    // The seed orders the requests; the summed quality of a pass is fixed.
    let value = |r: &Report, name: &str| {
        r.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("metric printed")
    };
    for w in [Workload::RequestMix, Workload::NdOrder] {
        let a = tiny(w, 3, false);
        let b = tiny(w, 4, false);
        for name in ["cut_or_opcount", "volume_or_fill"] {
            assert_eq!(value(&a, name), value(&b, name), "{} {name}", w.name());
        }
    }
}

#[test]
fn p90_is_reported_only_with_ten_samples_beyond_it() {
    let detail = |r: &Report| {
        let line = r
            .notes
            .iter()
            .find(|l| l.starts_with("{\"detail\""))
            .expect("detail line");
        parse(line)
            .expect("detail parses")
            .get("detail")
            .cloned()
            .expect("detail")
    };
    // request-mix sends 54 requests per pass and a run makes at least two
    // passes: exactly ten of the 108 samples lie beyond p90.
    let mix = detail(&tiny(Workload::RequestMix, 5, false));
    assert_eq!(
        mix.get("latency_samples").and_then(Value::as_f64),
        Some(108.0)
    );
    assert!(mix.get("latency_s.p90").and_then(Value::as_f64).is_some());
    // nd-order sends three requests per pass: too few for a tail.
    let nd = detail(&tiny(Workload::NdOrder, 5, false));
    assert_eq!(nd.get("latency_s.p90"), Some(&Value::Null));
}
