//! End-to-end check of the `--json` emitter: run the real `table1` binary
//! and parse every row it writes with the trace-layer JSON parser.

use std::process::Command;

fn parse_rows(jsonl: &str) -> Vec<mlgp_trace::json::Value> {
    jsonl
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| mlgp_trace::json::parse(l).unwrap_or_else(|e| panic!("bad row {l}: {e}")))
        .collect()
}

#[test]
fn table1_json_file_is_valid_jsonl() {
    let out = std::env::temp_dir().join(format!("mlgp-table1-{}.jsonl", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--scale", "0.05", "--keys", "4ELT,BC31", "--json"])
        .arg(&out)
        .status()
        .expect("spawn table1");
    assert!(status.success());
    let body = std::fs::read_to_string(&out).expect("read json output");
    std::fs::remove_file(&out).ok();
    let rows = parse_rows(&body);
    assert_eq!(rows.len(), 2, "one row per selected key: {body}");
    for row in &rows {
        assert_eq!(row.get("bench").and_then(|v| v.as_str()), Some("table1"));
        assert!(row.get("n").and_then(|v| v.as_f64()).unwrap() > 0.0);
        assert!(row.get("nnz").and_then(|v| v.as_f64()).unwrap() > 0.0);
    }
    let keys: Vec<_> = rows
        .iter()
        .map(|r| r.get("key").and_then(|v| v.as_str()).unwrap().to_string())
        .collect();
    assert!(keys.contains(&"4ELT".to_string()) && keys.contains(&"BC31".to_string()));
}

#[test]
fn table1_bare_json_flag_writes_rows_to_stdout() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--scale", "0.05", "--keys", "4ELT", "--json"])
        .output()
        .expect("spawn table1");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let rows = parse_rows(&stdout);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get("key").and_then(|v| v.as_str()), Some("4ELT"));
}

#[test]
fn malformed_options_exit_nonzero_without_panicking() {
    for args in [
        &["--scale", "banana"][..],
        &["--frobnicate"][..],
        &["--parts", "2,x"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_table1"))
            .args(args)
            .output()
            .expect("spawn table1");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("error:"), "args {args:?}: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "args {args:?} produced a panic backtrace: {stderr}"
        );
    }
}

#[test]
fn scales_that_cannot_be_generated_exit_nonzero_before_generating() {
    for (scale, why) in [("inf", "finite positive"), ("1e12", "vertex id")] {
        let out = Command::new(env!("CARGO_BIN_EXE_table2"))
            .args(["--scale", scale, "--keys", "4ELT"])
            .output()
            .expect("spawn table2");
        assert_eq!(out.status.code(), Some(2), "--scale {scale}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("error: --scale"), "{scale}: {stderr}");
        assert!(stderr.contains(why), "{scale}: {stderr}");
        assert!(out.stdout.is_empty(), "{scale} printed a table");
    }
}

#[test]
fn table2_rows_carry_trace_phase_times() {
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--scale", "0.05", "--keys", "4ELT", "--json"])
        .output()
        .expect("spawn table2");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let rows = parse_rows(&stdout);
    assert_eq!(rows.len(), 4, "one row per matching scheme: {stdout}");
    let secs = |row: &mlgp_trace::json::Value, field: &str| {
        row.get(field)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("row lacks {field}: {stdout}"))
    };
    for row in &rows {
        assert_eq!(row.get("bench").and_then(|v| v.as_str()), Some("table2"));
        assert!(secs(row, "ctime_secs") > 0.0, "{stdout}");
        let utime = secs(row, "itime_secs") + secs(row, "rtime_secs") + secs(row, "ptime_secs");
        assert!(utime > 0.0, "{stdout}");
    }
}
