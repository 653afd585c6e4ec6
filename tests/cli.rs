//! End-to-end tests of the `mlgp` command-line tool.

use std::process::Command;

fn mlgp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mlgp"))
}

#[test]
fn partition_generated_graph() {
    let out = mlgp()
        .args(["partition", "gen:4ELT@0.05", "4"])
        .output()
        .expect("spawn mlgp");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("edge-cut="), "{stdout}");
    assert!(stdout.contains("k=4"));
}

/// The edge cut `mlgp partition` prints for `method` on `spec` at `k`.
fn partition_cut(spec: &str, k: &str, method: &str) -> i64 {
    let out = mlgp()
        .args(["partition", spec, k, "--method", method])
        .output()
        .expect("spawn mlgp");
    assert!(
        out.status.success(),
        "{method}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .split_whitespace()
        .find_map(|f| f.strip_prefix("edge-cut="))
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("{method}: no edge-cut in {stdout}"))
}

#[test]
fn ml_refined_never_cuts_more_than_ml() {
    // The k-way sweep commits only moves of gain >= 0 on top of the same
    // recursive bisection, so it never raises the cut.
    let ml = partition_cut("gen:4ELT@0.2", "8", "ml");
    let refined = partition_cut("gen:4ELT@0.2", "8", "ml-refined");
    assert!(refined <= ml, "ml-refined {refined} > ml {ml}");
}

#[test]
fn order_generated_graph_all_methods() {
    for method in ["mlnd", "mmd", "snd"] {
        let out = mlgp()
            .args(["order", "gen:LS34@0.2", "--method", method])
            .output()
            .expect("spawn mlgp");
        assert!(
            out.status.success(),
            "{method}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("nnz(L)="), "{method}: {stdout}");
    }
}

#[test]
fn gen_then_partition_file_round_trip() {
    let dir = std::env::temp_dir().join(format!("mlgp-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("t.graph");
    let out = mlgp()
        .args(["gen", "BSP10", graph.to_str().unwrap(), "--scale", "0.1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let partfile = dir.join("t.part");
    let out = mlgp()
        .args([
            "partition",
            graph.to_str().unwrap(),
            "2",
            "--out",
            partfile.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let labels = std::fs::read_to_string(&partfile).unwrap();
    let count = labels.lines().count();
    assert!(count > 100, "partition vector too short: {count}");
    assert!(labels.lines().all(|l| l == "0" || l == "1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_then_partition_through_both_extensions() {
    // `gen` writes the format the extension names, as `partition` reads it.
    let dir = std::env::temp_dir().join(format!("mlgp-cli-ext-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut labels = Vec::new();
    for ext in ["graph", "mtx"] {
        let graph = dir.join(format!("t.{ext}"));
        let out = mlgp()
            .args(["gen", "BSP10", graph.to_str().unwrap(), "--scale", "0.1"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{ext}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let body = std::fs::read(&graph).unwrap();
        assert_eq!(body.starts_with(b"%%MatrixMarket"), ext == "mtx", "{ext}");
        let partfile = dir.join(format!("t.{ext}.part"));
        let out = mlgp()
            .args([
                "partition",
                graph.to_str().unwrap(),
                "2",
                "--out",
                partfile.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{ext}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        labels.push(std::fs::read_to_string(&partfile).unwrap());
    }
    // BSP10 has unit weights, so both files hold the same graph.
    assert!(labels[0].lines().count() > 100);
    assert_eq!(labels[0], labels[1]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_graph_files_fail_with_a_line_numbered_error() {
    let dir = std::env::temp_dir().join(format!("mlgp-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        ("token.graph", "3 2\n2\nx 3\n2\n", 3),
        // A zero edge weight used to trip an assertion in the builder.
        ("weight.graph", "2 1 1\n2 0\n1 0\n", 2),
        (
            "index.mtx",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 q\n",
            3,
        ),
    ];
    for (name, body, line) in cases {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        let out = mlgp()
            .args(["info", path.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name}: {stderr}");
        assert!(
            stderr.contains(&format!("parse error: line {line}")),
            "{name}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bare_report_flag_is_boolean() {
    let out = mlgp()
        .args(["partition", "gen:LS34@0.2", "2", "--report"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("comm volume"), "{stdout}");
}

#[test]
fn info_reports_structure() {
    let out = mlgp().args(["info", "gen:LS34"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("components=1"), "{stdout}");
}

#[test]
fn unknown_commands_fail_cleanly() {
    let out = mlgp().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let out = mlgp()
        .args(["partition", "gen:NOPE", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = mlgp()
        .args(["partition", "gen:LS34", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// Run `mlgp` in `dir` and assert it fails with exit status 1 and an
/// `error:` line naming `needle`.
fn assert_rejected(dir: &std::path::Path, args: &[&str], needle: &str) {
    let out = mlgp().current_dir(dir).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn unknown_options_are_rejected_per_subcommand() {
    let dir = std::env::temp_dir().join(format!("mlgp-cli-unknown-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases: [&[&str]; 5] = [
        &["partition", "gen:LS34@0.2", "2", "--thraeds", "2"],
        &["order", "gen:LS34@0.2", "--threads", "2"],
        &["order", "gen:LS34@0.2", "--seed", "3"],
        &["gen", "BSP10", "x.graph", "--report"],
        &["info", "gen:LS34@0.2", "--stats"],
    ];
    for args in cases {
        let bad = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert_rejected(&dir, args, &format!("unknown option `{bad}`"));
    }
    assert!(
        !dir.join("x.graph").exists(),
        "gen ran despite a bad option"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn value_options_without_a_value_are_rejected() {
    let dir = std::env::temp_dir().join(format!("mlgp-cli-novalue-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases: [&[&str]; 8] = [
        &["partition", "gen:LS34@0.2", "2", "--out"],
        &["partition", "gen:LS34@0.2", "2", "--out", "--stats"],
        &["partition", "gen:LS34@0.2", "2", "--seed"],
        &["partition", "gen:LS34@0.2", "2", "--method"],
        &["partition", "gen:LS34@0.2", "2", "--threads"],
        &["order", "gen:LS34@0.2", "--out"],
        &["order", "gen:LS34@0.2", "--method"],
        &["gen", "BSP10", "x.graph", "--scale"],
    ];
    for args in cases {
        let bare = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert_rejected(&dir, args, &format!("option `{bare}` needs a value"));
    }
    // A bare `--out` used to write the labels to a file named `true`.
    assert!(!dir.join("true").exists());
    assert!(!dir.join("x.graph").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bare_trace_and_boolean_flags_still_work() {
    for args in [
        &[
            "partition",
            "gen:LS34@0.2",
            "2",
            "--trace",
            "--stats",
            "--report",
        ][..],
        &[
            "partition",
            "gen:LS34@0.2",
            "2",
            "--report",
            "true",
            "--report-json",
            "false",
        ],
        &["order", "gen:LS34@0.2", "--trace", "--stats"],
    ] {
        let out = mlgp().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn help_prints_usage() {
    let out = mlgp().args(["--help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn stats_prints_phase_tree_to_stderr() {
    let out = mlgp()
        .args(["partition", "gen:4ELT@0.2", "4", "--stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in [
        "phase tree",
        "coarsen",
        "uncoarsen",
        "refine",
        "project",
        "fm_passes",
    ] {
        assert!(stderr.contains(needle), "missing `{needle}` in:\n{stderr}");
    }
    // The tree goes to stderr, not stdout.
    assert!(!String::from_utf8_lossy(&out.stdout).contains("phase tree"));
}

#[test]
fn trace_file_is_parseable_jsonl_with_level_records() {
    let path = std::env::temp_dir().join(format!("mlgp-trace-{}.jsonl", std::process::id()));
    let out = mlgp()
        .args([
            "partition",
            "gen:4ELT@0.2",
            "4",
            "--trace",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut kinds = std::collections::BTreeMap::new();
    for line in body.lines() {
        let v = mlgp::trace::json::parse(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
        let t = v.get("type").and_then(|t| t.as_str()).unwrap().to_string();
        *kinds.entry(t.clone()).or_insert(0usize) += 1;
        if t == "coarsen_level" {
            for f in ["level", "vertices", "edges", "matched_fraction", "edge_wgt"] {
                assert!(v.get(f).is_some(), "coarsen_level missing {f}: {line}");
            }
        }
        if t == "refine_level" {
            for f in ["level", "cut_before", "cut_after", "passes", "moves"] {
                assert!(v.get(f).is_some(), "refine_level missing {f}: {line}");
            }
        }
    }
    // One record per hierarchy level for both phases, plus spans and counters.
    assert!(
        kinds.get("coarsen_level").copied().unwrap_or(0) >= 3,
        "{kinds:?}"
    );
    assert_eq!(
        kinds.get("coarsen_level"),
        kinds.get("refine_level"),
        "{kinds:?}"
    );
    assert!(
        kinds.contains_key("span") && kinds.contains_key("counter"),
        "{kinds:?}"
    );
    assert_eq!(kinds.get("meta"), Some(&1), "{kinds:?}");
}

#[test]
fn report_json_is_a_single_parseable_object() {
    let out = mlgp()
        .args(["partition", "gen:LS34@0.2", "2", "--report-json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("no JSON object on stdout");
    let v = mlgp::trace::json::parse(json_line).unwrap();
    assert_eq!(v.get("nparts").and_then(|x| x.as_f64()), Some(2.0));
    assert!(v.get("edge_cut").and_then(|x| x.as_f64()).unwrap() >= 0.0);
    assert!(v.get("imbalance").and_then(|x| x.as_f64()).unwrap() >= 1.0);
}

#[test]
fn order_stats_reports_separator_telemetry() {
    let out = mlgp()
        .args(["order", "gen:LS34@0.2", "--stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in ["nd", "separator_vertices", "phase tree"] {
        assert!(stderr.contains(needle), "missing `{needle}` in:\n{stderr}");
    }
}

#[test]
fn threads_flag_caps_spectral_methods_without_changing_the_partition() {
    let dir = std::env::temp_dir().join(format!("mlgp-cli-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for method in ["msb", "chaco"] {
        let labels: Vec<String> = ["1", "4"]
            .iter()
            .map(|threads| {
                let partfile = dir.join(format!("{method}-{threads}.part"));
                let out = mlgp()
                    .args(["partition", "gen:4ELT@0.1", "4", "--method", method])
                    .args(["--threads", threads, "--out", partfile.to_str().unwrap()])
                    .output()
                    .expect("spawn mlgp");
                assert!(
                    out.status.success(),
                    "{method} --threads {threads}: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                std::fs::read_to_string(&partfile).unwrap()
            })
            .collect();
        assert!(labels[0].lines().count() > 100, "{method}: short partition");
        assert_eq!(labels[0], labels[1], "{method} differs across --threads");
    }
    std::fs::remove_dir_all(&dir).ok();
}
