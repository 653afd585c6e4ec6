//! End-to-end tests: run `mlgp-lint` against the fixture corpora and the
//! live workspace tree.
//!
//! The fixtures under `tests/fixtures/{bad,good}` are miniature workspace
//! trees (`crates/<name>/src/*.rs`, `third_party/<name>/src/*.rs`) so path
//! classification — kernel crates, wall-clock crates, test files, vendored
//! shims — applies exactly as it does on the real tree.

use mlgp_lint::{scan_workspace, Rule};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures(which: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(which)
}

fn run_lint(root: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mlgp-lint"))
        .arg("--root")
        .arg(root)
        .output()
        .expect("spawn mlgp-lint");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn bad_fixtures_fail_with_file_line_diagnostics() {
    let (ok, stdout) = run_lint(&fixtures("bad"));
    assert!(!ok, "bad fixtures must fail the lint, got:\n{stdout}");
    let expect = [
        ("crates/part/src/hash_iter.rs", "[D1]"),
        ("crates/part/src/float_accum.rs", "[D2]"),
        ("crates/part/src/wall_clock.rs", "[D3]"),
        ("crates/part/src/unsafe_raw.rs", "[P1]"),
        ("crates/part/src/relaxed.rs", "[P2]"),
        ("crates/part/src/panics.rs", "[R1]"),
        ("crates/part/src/meta_bad.rs", "[META]"),
        ("third_party/shim/src/lib.rs", "[P1]"),
        ("third_party/shim/src/lib.rs", "[P2]"),
    ];
    for (file, rule) in expect {
        let hit = stdout.lines().any(|l| l.contains(file) && l.contains(rule));
        assert!(hit, "expected a {rule} diagnostic for {file} in:\n{stdout}");
    }
    // Every diagnostic is file:line addressed.
    for l in stdout.lines() {
        assert!(l.contains(".rs:"), "diagnostic without file:line: {l}");
    }
}

#[test]
fn good_fixtures_pass() {
    let (ok, stdout) = run_lint(&fixtures("good"));
    assert!(ok, "good fixtures should lint clean, got:\n{stdout}");
    assert!(
        stdout.contains("clean"),
        "expected the clean banner:\n{stdout}"
    );
}

#[test]
fn bad_fixture_lines_are_precise() {
    let diags = scan_workspace(&fixtures("bad")).expect("scan bad fixtures");
    let has = |file: &str, rule: Rule, line: usize| {
        diags
            .iter()
            .any(|d| d.file.ends_with(file) && d.rule == rule && d.line == line)
    };
    // The D1 fixture iterates its map on line 10.
    assert!(has("hash_iter.rs", Rule::D1HashIter, 10), "{diags:?}");
    // The D2 fixture's raw `acc += *x` sits on line 11.
    assert!(has("float_accum.rs", Rule::D2FloatAccum, 11), "{diags:?}");
    // The D3 fixture reads Instant::now() on line 5.
    assert!(has("wall_clock.rs", Rule::D3WallClock, 5), "{diags:?}");
    // The P1 fixture's unsafe block is line 3.
    assert!(has("unsafe_raw.rs", Rule::P1UnsafeSafety, 3), "{diags:?}");
    // The P2 fixture's Relaxed fetch_add is line 5.
    assert!(has("relaxed.rs", Rule::P2RelaxedJustify, 5), "{diags:?}");
    // The R1 fixture panics on lines 3, 7 and 12.
    assert!(has("panics.rs", Rule::R1PanicFree, 3), "{diags:?}");
    assert!(has("panics.rs", Rule::R1PanicFree, 7), "{diags:?}");
    assert!(has("panics.rs", Rule::R1PanicFree, 12), "{diags:?}");
    // The META fixture's reasonless allow is line 3.
    assert!(has("meta_bad.rs", Rule::Meta, 3), "{diags:?}");
    // The vendored shim's unsafe block is line 6, its Relaxed line 10;
    // its wall clock and unwrap (line 14) are outside the P1/P2 scope.
    assert!(has("shim/src/lib.rs", Rule::P1UnsafeSafety, 6), "{diags:?}");
    assert!(
        has("shim/src/lib.rs", Rule::P2RelaxedJustify, 10),
        "{diags:?}"
    );
    let shim_rules: Vec<Rule> = diags
        .iter()
        .filter(|d| d.file.starts_with("third_party"))
        .map(|d| d.rule)
        .collect();
    assert_eq!(
        shim_rules,
        [Rule::P1UnsafeSafety, Rule::P2RelaxedJustify],
        "{diags:?}"
    );
}

#[test]
fn live_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = scan_workspace(&root).expect("scan live tree");
    assert!(
        diags.is_empty(),
        "live tree has lint violations:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
