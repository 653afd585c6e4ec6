//! `mlgp-lint` — workspace static analysis for the determinism & safety
//! contract (DESIGN.md §10–§11).
//!
//! PRs 2–4 parallelized every phase of the multilevel pipeline behind a
//! hard contract: **bit-identical results at any thread count**, enforced
//! by round-based CAS handshakes, seeded rank keys, and fixed-shape
//! chunked float reductions. That contract used to live only in runtime
//! test suites and reviewers' heads; this crate encodes it as a static
//! gate with `file:line` diagnostics. The rules:
//!
//! | rule | checks |
//! |------|--------|
//! | `D1` | no `HashMap`/`HashSet` **iteration** in kernel crates (`part`, `graph`, `linalg`, `order`, `spectral`) — hash iteration order is arbitrary and poisons determinism |
//! | `D2` | no raw floating-point `+=` / `.sum()` accumulation in modules that contain parallel kernels — reductions must route through `vecops::chunked_reduce` (the `vecops.rs` implementation itself is allowlisted) |
//! | `D3` | no wall clock or ambient entropy (`SystemTime`, `Instant`, `thread_rng`, …) outside `crates/trace`, `crates/bench`, and `bin/` sources |
//! | `P1` | every `unsafe` must be preceded by a `// SAFETY:` proof |
//! | `P2` | every `Ordering::Relaxed` must carry a `// RELAXED:` justification |
//! | `R1` | no `.unwrap()` / `.expect(` / `panic!` in library (non-test, non-bin) code |
//!
//! The vendored dependency shims under `third_party/*/src` are scanned
//! too, for `P1` and `P2` only: their `unsafe` and atomics carry the same
//! proof obligations, while the determinism and panic rules govern the
//! workspace's own crates.
//!
//! Suppression syntax (the reason is **mandatory**; a reasonless
//! suppression is itself a diagnostic):
//!
//! ```text
//! // SAFETY: <proof that the invariant holds>           (covers P1)
//! // RELAXED: <why relaxed ordering is sufficient>      (covers P2)
//! // LINT: allow(hashmap_iter, <reason>)                (covers D1)
//! // LINT: allow(float_accum, <reason>)                 (covers D2)
//! // LINT: allow(wallclock, <reason>)                   (covers D3)
//! // LINT: allow(panic, <reason>)                       (covers R1)
//! ```
//!
//! An annotation covers every violating token on its own line (trailing
//! comment) or, written as a standalone comment line, every token on the
//! lines of the *contiguous* code block directly beneath it (a blank line
//! ends the covered block). The scanner is comment- and
//! string-aware: tokens inside string literals, char literals, and
//! comments never fire, and `#[cfg(test)]` modules / `#[test]` functions
//! are exempt from `R1` (tests may unwrap).

use std::fmt;
use std::path::{Path, PathBuf};

mod scanner;
pub use scanner::{strip_source, Line};

/// Crates whose kernels carry the determinism contract (D1/D2 scope).
pub const KERNEL_CRATES: [&str; 5] = ["part", "graph", "linalg", "order", "spectral"];

/// Crates allowed to read the wall clock / entropy (D3 scope): the
/// observability layer owns time, and the bench harness measures it.
pub const WALLCLOCK_CRATES: [&str; 2] = ["trace", "bench"];

/// Files (by trailing path) exempt from D2: the deterministic reduction
/// primitives themselves.
pub const FLOAT_ACCUM_ALLOWLIST: [&str; 1] = ["linalg/src/vecops.rs"];

/// Rule identifiers, as printed in diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Hash-container iteration in a kernel crate.
    D1HashIter,
    /// Raw float accumulation in a parallel-kernel module.
    D2FloatAccum,
    /// Wall clock / ambient entropy outside trace & bench.
    D3WallClock,
    /// `unsafe` without a `// SAFETY:` proof.
    P1UnsafeSafety,
    /// `Ordering::Relaxed` without a `// RELAXED:` justification.
    P2RelaxedJustify,
    /// `unwrap`/`expect`/`panic!` in library code.
    R1PanicFree,
    /// Malformed suppression (missing mandatory reason, unknown rule).
    Meta,
}

impl Rule {
    /// Short code used in diagnostics and fixture assertions.
    pub fn code(self) -> &'static str {
        match self {
            Rule::D1HashIter => "D1",
            Rule::D2FloatAccum => "D2",
            Rule::D3WallClock => "D3",
            Rule::P1UnsafeSafety => "P1",
            Rule::P2RelaxedJustify => "P2",
            Rule::R1PanicFree => "R1",
            Rule::Meta => "META",
        }
    }

    /// The `allow(<name>, …)` key that suppresses this rule, if the
    /// rule is suppressed through the generic form.
    pub fn allow_key(self) -> Option<&'static str> {
        match self {
            Rule::D1HashIter => Some("hashmap_iter"),
            Rule::D2FloatAccum => Some("float_accum"),
            Rule::D3WallClock => Some("wallclock"),
            Rule::R1PanicFree => Some("panic"),
            _ => None,
        }
    }

    /// All checkable rules, in report order.
    pub fn all() -> [Rule; 6] {
        [
            Rule::D1HashIter,
            Rule::D2FloatAccum,
            Rule::D3WallClock,
            Rule::P1UnsafeSafety,
            Rule::P2RelaxedJustify,
            Rule::R1PanicFree,
        ]
    }

    /// One-line description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::D1HashIter => {
                "no HashMap/HashSet iteration in kernel crates (hash order is nondeterministic)"
            }
            Rule::D2FloatAccum => {
                "no raw float +=/.sum() in parallel-kernel modules; use vecops::chunked_reduce"
            }
            Rule::D3WallClock => {
                "no SystemTime/Instant/thread_rng outside crates/trace, crates/bench, and bin/"
            }
            Rule::P1UnsafeSafety => "every `unsafe` needs a preceding `// SAFETY:` proof",
            Rule::P2RelaxedJustify => {
                "every `Ordering::Relaxed` needs a `// RELAXED:` justification"
            }
            Rule::R1PanicFree => {
                "no .unwrap()/.expect(/panic! in library code; `// LINT: allow(panic, why)` to keep"
            }
            Rule::Meta => "suppression comments must carry a reason",
        }
    }
}

/// One finding: a rule violated at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path as reported (relative to the scan root when possible).
    pub file: PathBuf,
    /// 1-indexed line.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.code(),
            self.message
        )
    }
}

/// How a file participates in the rule set, derived from its path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Crate name (`part`, `graph`, …) when under `crates/<name>/src`.
    pub crate_name: String,
    /// `src/bin/…` or `main.rs`: binary entry points (D3/R1 exempt).
    pub is_bin: bool,
    /// File name contains `test`: a test-only module file (R1 exempt).
    pub is_test_file: bool,
    /// Member of [`KERNEL_CRATES`] (D1/D2 scope).
    pub is_kernel: bool,
    /// Member of [`WALLCLOCK_CRATES`] (D3 exempt).
    pub may_use_wallclock: bool,
    /// Listed in [`FLOAT_ACCUM_ALLOWLIST`] (D2 exempt).
    pub float_accum_allowed: bool,
    /// Under `third_party/`: a vendored shim, checked for P1/P2 only.
    pub is_vendored: bool,
}

impl FileClass {
    /// Classify a path of the form `…/crates/<name>/src/<rest>.rs`.
    pub fn from_path(path: &Path) -> FileClass {
        let unix: String = path
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        let crate_name = unix
            .rsplit_once("/src/")
            .map(|(pre, _)| pre)
            .or_else(|| unix.rsplit_once("/src").map(|(pre, _)| pre))
            .and_then(|pre| pre.rsplit('/').next())
            .unwrap_or("")
            .to_string();
        let file_name = path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_default();
        let is_bin = unix.contains("/bin/") || file_name == "main.rs" || file_name == "build.rs";
        let is_test_file = file_name.contains("test");
        let is_kernel = KERNEL_CRATES.contains(&crate_name.as_str());
        let may_use_wallclock = WALLCLOCK_CRATES.contains(&crate_name.as_str());
        let float_accum_allowed = FLOAT_ACCUM_ALLOWLIST
            .iter()
            .any(|suffix| unix.ends_with(suffix));
        let is_vendored = unix.starts_with("third_party/") || unix.contains("/third_party/");
        FileClass {
            crate_name,
            is_bin,
            is_test_file,
            is_kernel,
            may_use_wallclock,
            float_accum_allowed,
            is_vendored,
        }
    }
}

/// Suppressions parsed from one line's comment text.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Annotations {
    safety: bool,
    relaxed: bool,
    /// `allow(<key>, reason)` keys present with a nonempty reason.
    allows: Vec<String>,
    /// Malformed suppressions: `(description)` reported as META.
    malformed: Vec<String>,
}

impl Annotations {
    fn parse(comment: &str) -> Annotations {
        let mut a = Annotations::default();
        if let Some(rest) = find_marker(comment, "SAFETY:") {
            if rest.trim().is_empty() {
                a.malformed.push("`SAFETY:` without a proof".to_string());
            } else {
                a.safety = true;
            }
        }
        if let Some(rest) = find_marker(comment, "RELAXED:") {
            if rest.trim().is_empty() {
                a.malformed
                    .push("`RELAXED:` without a justification".to_string());
            } else {
                a.relaxed = true;
            }
        }
        let mut scan = comment;
        while let Some(rest) = find_marker(scan, "LINT:") {
            let Some(open) = rest.find("allow(") else {
                a.malformed
                    .push("`LINT:` without an `allow(rule, reason)`".to_string());
                break;
            };
            let body = &rest[open + "allow(".len()..];
            let Some(close) = body.find(')') else {
                a.malformed.push("unclosed `LINT: allow(`".to_string());
                break;
            };
            let inner = &body[..close];
            match inner.split_once(',') {
                Some((key, reason)) if !reason.trim().is_empty() => {
                    let key = key.trim().to_string();
                    let known = Rule::all().iter().any(|r| r.allow_key() == Some(&key[..]));
                    if known {
                        a.allows.push(key);
                    } else {
                        a.malformed
                            .push(format!("unknown lint rule `{key}` in allow()"));
                    }
                }
                _ => a.malformed.push(format!(
                    "`LINT: allow({inner})` is missing its mandatory reason"
                )),
            }
            scan = &body[close..];
        }
        a
    }

    fn merge(&mut self, other: &Annotations) {
        self.safety |= other.safety;
        self.relaxed |= other.relaxed;
        self.allows.extend(other.allows.iter().cloned());
    }

    fn allows_key(&self, key: &str) -> bool {
        self.allows.iter().any(|k| k == key)
    }
}

/// Find `marker` in `text` and return the remainder after it, requiring
/// the char before the marker to be a non-ident boundary.
fn find_marker<'t>(text: &'t str, marker: &str) -> Option<&'t str> {
    let mut from = 0;
    while let Some(pos) = text[from..].find(marker) {
        let at = from + pos;
        let boundary = at == 0
            || !text[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary {
            return Some(&text[at + marker.len()..]);
        }
        from = at + marker.len();
    }
    None
}

/// True when `token` occurs in `code` delimited by non-identifier chars.
fn has_word(code: &str, token: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        let end = at + token.len();
        let left_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = at + token.len().max(1);
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// True when `code` contains a floating-point literal (`2.5`, `1e-12`).
/// Tuple indexing (`t.0`), ranges (`0..n`), and integer literals do not
/// count; hex literals are skipped via the boundary check.
fn has_float_literal(code: &str) -> bool {
    let b = code.as_bytes();
    let n = b.len();
    for i in 0..n {
        if !b[i].is_ascii_digit() {
            continue;
        }
        // Must start a numeric run: previous char not ident or '.'.
        if i > 0 && (is_ident_byte(b[i - 1]) || b[i - 1] == b'.') {
            continue;
        }
        // Walk the digit run.
        let mut j = i;
        while j < n && (b[j].is_ascii_digit() || b[j] == b'_') {
            j += 1;
        }
        if j < n && b[j] == b'.' && j + 1 < n && b[j + 1].is_ascii_digit() {
            return true; // `12.5`
        }
        if j < n && (b[j] == b'e' || b[j] == b'E') {
            let mut k = j + 1;
            if k < n && (b[k] == b'-' || b[k] == b'+') {
                k += 1;
            }
            if k < n
                && b[k].is_ascii_digit()
                && (k + 1 >= n || !is_ident_byte(b[k + 1]) || b[k + 1].is_ascii_digit())
            {
                return true; // `1e-12`
            }
        }
    }
    false
}

/// Hash-container iteration methods (D1).
const HASH_ITER_METHODS: [&str; 8] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".retain(",
];

/// Wall-clock / ambient-entropy tokens (D3).
const WALLCLOCK_TOKENS: [&str; 6] = [
    "SystemTime",
    "Instant",
    "thread_rng",
    "from_entropy",
    "getrandom",
    "UNIX_EPOCH",
];

/// Deterministic-reduction entry points whose argument lists are exempt
/// from D2 (the sanctioned intra-chunk serial accumulation pattern).
const REDUCE_SINKS: [&str; 2] = ["chunked_reduce", "pairwise_sum"];

/// Scan one file's source text under the given classification.
pub fn scan_source(source: &str, class: &FileClass, file: &Path) -> Vec<Diagnostic> {
    let lines = strip_source(source);
    let mut out = Vec::new();

    // Per-line annotations, then effective coverage: a standalone comment
    // line extends its annotations over the contiguous code block beneath.
    let per_line: Vec<Annotations> = lines
        .iter()
        .map(|l| Annotations::parse(&l.comment))
        .collect();
    let mut coverage: Vec<Annotations> = vec![Annotations::default(); lines.len()];
    let mut carried = Annotations::default();
    for (i, line) in lines.iter().enumerate() {
        let standalone = line.code.trim().is_empty() && !line.comment.trim().is_empty();
        let blank = line.code.trim().is_empty() && line.comment.trim().is_empty();
        if standalone {
            carried.merge(&per_line[i]);
        } else if blank {
            carried = Annotations::default();
        }
        coverage[i] = per_line[i].clone();
        if !standalone {
            let c = carried.clone();
            coverage[i].merge(&c);
        }
        for m in &per_line[i].malformed {
            out.push(Diagnostic {
                file: file.to_path_buf(),
                line: i + 1,
                rule: Rule::Meta,
                message: m.clone(),
            });
        }
    }

    // Region tracking: `#[cfg(test)]` / `#[test]` scopes (brace-balanced)
    // and `chunked_reduce(...)` argument spans (paren-balanced).
    let mut in_test_region = vec![false; lines.len()];
    let mut in_reduce_args = vec![false; lines.len()];
    {
        let mut brace_depth: i64 = 0;
        let mut test_until_depth: Option<i64> = None;
        let mut pending_test_attr = false;
        let mut reduce_until_depth: Option<i64> = None;
        let mut paren_depth: i64 = 0;
        for (i, line) in lines.iter().enumerate() {
            let code = line.code.as_str();
            if test_until_depth.is_some() {
                in_test_region[i] = true;
            }
            if reduce_until_depth.is_some() {
                in_reduce_args[i] = true;
            }
            if code.contains("#[cfg(test)]") || code.contains("#[test]") {
                pending_test_attr = true;
                in_test_region[i] = true;
            }
            for sink in REDUCE_SINKS {
                if reduce_until_depth.is_none() && has_word(code, sink) {
                    // Exempt from the call token to its closing paren.
                    in_reduce_args[i] = true;
                    let before: i64 = code[..code.find(sink).unwrap_or(0)]
                        .bytes()
                        .map(|b| match b {
                            b'(' => 1,
                            b')' => -1,
                            _ => 0,
                        })
                        .sum();
                    reduce_until_depth = Some(paren_depth + before);
                }
            }
            for b in code.bytes() {
                match b {
                    b'{' => {
                        brace_depth += 1;
                        if pending_test_attr && test_until_depth.is_none() {
                            test_until_depth = Some(brace_depth - 1);
                            pending_test_attr = false;
                            in_test_region[i] = true;
                        }
                    }
                    b'}' => {
                        brace_depth -= 1;
                        if test_until_depth.is_some_and(|d| brace_depth <= d) {
                            test_until_depth = None;
                        }
                    }
                    b'(' => paren_depth += 1,
                    b')' => {
                        paren_depth -= 1;
                        if reduce_until_depth.is_some_and(|d| paren_depth <= d) {
                            reduce_until_depth = None;
                        }
                    }
                    _ => {}
                }
            }
            // `#[cfg(test)] use …;` style items: attr consumed by a
            // braceless item terminated on the same or a later line.
            if pending_test_attr && code.trim_end().ends_with(';') {
                pending_test_attr = false;
                in_test_region[i] = true;
            }
        }
    }

    // D2 precondition: does this module contain a parallel kernel?
    let has_parallel = lines.iter().any(|l| {
        let c = &l.code;
        c.contains("par_iter")
            || c.contains("par_chunks")
            || c.contains("par_bridge")
            || c.contains("rayon::join")
            || c.contains("rayon::scope")
            || c.contains("thread::spawn")
    });

    // D1 state: names bound to hash containers in this file.
    let mut hash_vars: Vec<String> = Vec::new();

    // D2 state: names bound to float accumulators in this file.
    let mut float_vars: Vec<String> = Vec::new();

    let push = |out: &mut Vec<Diagnostic>, i: usize, rule: Rule, message: String| {
        out.push(Diagnostic {
            file: file.to_path_buf(),
            line: i + 1,
            rule,
            message,
        });
    };

    for (i, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if code.trim().is_empty() {
            continue;
        }
        let cov = &coverage[i];
        let in_test = in_test_region[i] || class.is_test_file;

        // ---- P1: unsafe needs SAFETY -------------------------------
        if has_word(code, "unsafe") && !cov.safety {
            push(
                &mut out,
                i,
                Rule::P1UnsafeSafety,
                "`unsafe` without a preceding `// SAFETY:` proof".to_string(),
            );
        }

        // ---- P2: Ordering::Relaxed needs RELAXED -------------------
        if code.contains("Ordering::Relaxed") && !cov.relaxed {
            push(
                &mut out,
                i,
                Rule::P2RelaxedJustify,
                "`Ordering::Relaxed` without a `// RELAXED:` justification".to_string(),
            );
        }

        if class.is_vendored {
            continue;
        }

        // ---- D3: wall clock / entropy ------------------------------
        if !class.may_use_wallclock && !class.is_bin && !in_test {
            for tok in WALLCLOCK_TOKENS {
                if has_word(code, tok) && !cov.allows_key("wallclock") {
                    push(
                        &mut out,
                        i,
                        Rule::D3WallClock,
                        format!(
                            "`{tok}` outside crates/trace|bench: wall clock and ambient entropy \
                             break reproducibility (route timing through Trace::start/Trace::stop)"
                        ),
                    );
                }
            }
        }

        // ---- R1: panic-free library code ---------------------------
        if !class.is_bin && !in_test {
            let hits = [
                (".unwrap()", "`.unwrap()`"),
                (".expect(", "`.expect(…)`"),
                ("panic!", "`panic!`"),
            ];
            for (needle, label) in hits {
                if code.contains(needle) && !cov.allows_key("panic") {
                    push(
                        &mut out,
                        i,
                        Rule::R1PanicFree,
                        format!(
                            "{label} in library code: return an error or annotate \
                             `// LINT: allow(panic, why this cannot fire)`"
                        ),
                    );
                }
            }
        }

        // ---- D1: hash-container iteration in kernel crates ---------
        if class.is_kernel && !in_test {
            let mentions_hash = code.contains("HashMap") || code.contains("HashSet");
            if mentions_hash {
                // Record bindings: `let [mut] name … HashMap/HashSet …`.
                if let Some(name) = binding_name(code) {
                    hash_vars.push(name);
                }
                // Inline construction + iteration on one line.
                if HASH_ITER_METHODS.iter().any(|m| code.contains(m))
                    && !cov.allows_key("hashmap_iter")
                {
                    push(
                        &mut out,
                        i,
                        Rule::D1HashIter,
                        "iterating a hash container in a kernel crate: hash order is \
                         nondeterministic; use a sorted Vec or BTreeMap"
                            .to_string(),
                    );
                }
            } else {
                let iterated = hash_vars.iter().any(|v| {
                    HASH_ITER_METHODS
                        .iter()
                        .any(|m| code.contains(&format!("{v}{m}")))
                        || (code.contains("for ") && {
                            code.split(" in ")
                                .nth(1)
                                .is_some_and(|tail| has_word(tail, v))
                        })
                });
                if iterated && !cov.allows_key("hashmap_iter") {
                    push(
                        &mut out,
                        i,
                        Rule::D1HashIter,
                        "iterating a hash container in a kernel crate: hash order is \
                         nondeterministic; use a sorted Vec or BTreeMap"
                            .to_string(),
                    );
                }
            }
        }

        // ---- D2: raw float accumulation in parallel modules --------
        if class.is_kernel && has_parallel && !class.float_accum_allowed && !in_test {
            let float_evidence = code.contains("f64")
                || code.contains("f32")
                || has_float_literal(code)
                || float_vars.iter().any(|v| {
                    code.contains(&format!("{v} +="))
                        || code.contains(&format!("{v}+="))
                        || code.contains(&format!("*{v} +="))
                });
            if let Some(name) = binding_name(code) {
                if code.contains("f64") || code.contains("f32") || has_float_literal(code) {
                    float_vars.push(name);
                }
            }
            let accumulates = code.contains("+=")
                || code.contains(".sum()")
                || code.contains(".sum::<f64>()")
                || code.contains(".sum::<f32>()");
            let typed_float_sum = code.contains(".sum::<f64>()") || code.contains(".sum::<f32>()");
            if accumulates
                && (float_evidence || typed_float_sum)
                && !in_reduce_args[i]
                && !cov.allows_key("float_accum")
            {
                push(
                    &mut out,
                    i,
                    Rule::D2FloatAccum,
                    "raw floating-point accumulation in a parallel-kernel module: float \
                     addition is non-associative — route the reduction through \
                     vecops::chunked_reduce (or justify why this accumulator is \
                     thread-invariant)"
                        .to_string(),
                );
            }
        }
    }

    out
}

/// Extract the bound name from a `let [mut] name …` line, if any.
fn binding_name(code: &str) -> Option<String> {
    let t = code.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Scan one file from disk.
pub fn scan_file(path: &Path, report_as: &Path) -> Result<Vec<Diagnostic>, String> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let class = FileClass::from_path(report_as);
    Ok(scan_source(&source, &class, report_as))
}

/// Walk `root/crates/*/src` and, when present, `root/third_party/*/src`,
/// scanning every `.rs` file in deterministic (sorted-path) order. Returns
/// all diagnostics, paths relative to `root`.
pub fn scan_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_crate_sources(&root.join("crates"), &mut files)?;
    let vendored = root.join("third_party");
    if vendored.is_dir() {
        collect_crate_sources(&vendored, &mut files)?;
    }
    files.sort();
    let mut out = Vec::new();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        out.extend(scan_file(f, rel)?);
    }
    Ok(out)
}

/// Collect the `.rs` files under `dir/*/src`.
fn collect_crate_sources(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir failed under {}: {e}", dir.display()))?;
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(&src, files)?;
        }
    }
    Ok(())
}

fn collect_rs(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir failed under {}: {e}", dir.display()))?;
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, files)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            files.push(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_class() -> FileClass {
        FileClass::from_path(Path::new("crates/part/src/kernel.rs"))
    }

    fn scan(src: &str, class: &FileClass) -> Vec<Diagnostic> {
        scan_source(src, class, Path::new("mem.rs"))
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule.code()).collect()
    }

    #[test]
    fn classifies_paths() {
        let c = FileClass::from_path(Path::new("crates/part/src/refine/fm.rs"));
        assert_eq!(c.crate_name, "part");
        assert!(c.is_kernel && !c.is_bin && !c.is_test_file);
        let b = FileClass::from_path(Path::new("crates/bench/src/bin/parallel.rs"));
        assert_eq!(b.crate_name, "bench");
        assert!(b.is_bin && b.may_use_wallclock);
        let t = FileClass::from_path(Path::new("crates/part/src/kway_extra_tests.rs"));
        assert!(t.is_test_file);
        let v = FileClass::from_path(Path::new("crates/linalg/src/vecops.rs"));
        assert!(v.float_accum_allowed);
        let shim = FileClass::from_path(Path::new("third_party/rayon/src/lib.rs"));
        assert!(shim.is_vendored && !shim.is_kernel);
        assert!(!kernel_class().is_vendored);
    }

    #[test]
    fn vendored_files_get_only_p1_and_p2() {
        let shim = FileClass::from_path(Path::new("third_party/rayon/src/lib.rs"));
        let src = "fn f(p: *const u8, a: &AtomicU32) -> u8 {\n    let _ = Instant::now();\n    a.load(Ordering::Relaxed);\n    Some(1).unwrap();\n    unsafe { *p }\n}\n";
        assert_eq!(codes(&scan(src, &shim)), ["P2", "P1"]);
    }

    #[test]
    fn r1_flags_unwrap_and_respects_allow() {
        let class = kernel_class();
        let bad = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(codes(&scan(bad, &class)), ["R1"]);
        let ok = "fn f(x: Option<u32>) -> u32 {\n    // LINT: allow(panic, x is Some by construction)\n    x.unwrap()\n}\n";
        assert!(scan(ok, &class).is_empty());
        let trailing =
            "fn f(x: Option<u32>) -> u32 { x.unwrap() } // LINT: allow(panic, infallible)\n";
        assert!(scan(trailing, &class).is_empty());
    }

    #[test]
    fn r1_skips_tests_and_strings() {
        let class = kernel_class();
        let in_test =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(scan(in_test, &class).is_empty());
        let in_string = "fn f() -> &'static str { \"don't panic!(.unwrap())\" }\n";
        assert!(scan(in_string, &class).is_empty());
        let in_comment = "// calling .unwrap() here would be bad\nfn f() {}\n";
        assert!(scan(in_comment, &class).is_empty());
    }

    #[test]
    fn p2_requires_relaxed_annotation() {
        let class = kernel_class();
        let bad = "fn f(a: &AtomicU32) -> u32 { a.load(Ordering::Relaxed) }\n";
        assert_eq!(codes(&scan(bad, &class)), ["P2"]);
        let ok = "// RELAXED: statistic only\nfn f(a: &AtomicU32) -> u32 { a.load(Ordering::Relaxed) }\n";
        assert!(scan(ok, &class).is_empty());
    }

    #[test]
    fn p1_requires_safety_proof() {
        let class = kernel_class();
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert_eq!(codes(&scan(bad, &class)), ["P1"]);
        let ok = "// SAFETY: p is valid for reads, checked by caller\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert!(scan(ok, &class).is_empty());
    }

    #[test]
    fn d1_flags_iteration_not_lookup() {
        let class = kernel_class();
        let lookup = "fn f() {\n    let mut m: HashMap<u32, u32> = HashMap::new();\n    m.insert(1, 2);\n    let _ = m.get(&1);\n}\n";
        assert!(scan(lookup, &class).is_empty());
        let iter = "fn f() {\n    let mut m: HashMap<u32, u32> = HashMap::new();\n    for (k, v) in m.iter() { let _ = (k, v); }\n}\n";
        assert_eq!(codes(&scan(iter, &class)), ["D1"]);
        let for_in = "fn f() {\n    let m: HashSet<u32> = HashSet::new();\n    for k in &m { let _ = k; }\n}\n";
        assert_eq!(codes(&scan(for_in, &class)), ["D1"]);
    }

    #[test]
    fn d2_flags_float_accum_only_in_parallel_modules() {
        let class = kernel_class();
        let serial = "fn f(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for x in xs { acc += x; }\n    acc\n}\n";
        assert!(scan(serial, &class).is_empty(), "no parallel kernel here");
        let parallel = "fn g(xs: &mut [f64]) { xs.par_iter_mut().for_each(|x| *x += 1.0); }\nfn f(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for x in xs { acc += x; }\n    acc\n}\n";
        let d = scan(parallel, &class);
        assert!(
            d.iter().any(|d| d.rule == Rule::D2FloatAccum),
            "float += in a parallel module must flag: {d:?}"
        );
    }

    #[test]
    fn d2_exempts_chunked_reduce_arguments() {
        let class = kernel_class();
        let ok = "fn g(xs: &mut [f64]) { xs.par_iter_mut().for_each(|x| *x = 0.0); }\nfn f(xs: &[f64]) -> f64 {\n    chunked_reduce(xs.len(), |lo, hi| {\n        let mut acc = 0.0;\n        for x in &xs[lo..hi] { acc += x; }\n        acc\n    })\n}\n";
        let d = scan(ok, &class);
        assert!(
            !d.iter().any(|d| d.rule == Rule::D2FloatAccum),
            "chunked_reduce args are the sanctioned pattern: {d:?}"
        );
    }

    #[test]
    fn d3_flags_wallclock_outside_trace() {
        let class = kernel_class();
        let bad = "fn f() { let t = Instant::now(); let _ = t; }\n";
        assert_eq!(codes(&scan(bad, &class)), ["D3"]);
        let trace = FileClass::from_path(Path::new("crates/trace/src/lib.rs"));
        assert!(scan(bad, &trace).is_empty());
        let bench_bin = FileClass::from_path(Path::new("crates/bench/src/bin/parallel.rs"));
        assert!(scan(bad, &bench_bin).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_meta() {
        let class = kernel_class();
        let bad = "// LINT: allow(panic)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let d = scan(bad, &class);
        assert!(d.iter().any(|d| d.rule == Rule::Meta), "{d:?}");
        assert!(d.iter().any(|d| d.rule == Rule::R1PanicFree), "{d:?}");
        let unknown = "// LINT: allow(everything, because)\nfn f() {}\n";
        let d = scan(unknown, &class);
        assert!(d.iter().any(|d| d.rule == Rule::Meta), "{d:?}");
    }

    #[test]
    fn coverage_breaks_at_blank_lines() {
        let class = kernel_class();
        let src = "// LINT: allow(panic, covered block)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n\nfn g(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let d = scan(src, &class);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn float_literal_detector() {
        assert!(has_float_literal("let x = 2.5;"));
        assert!(has_float_literal("let x = 1e-12;"));
        assert!(!has_float_literal("let x = t.0;"));
        assert!(!has_float_literal("for i in 0..n {}"));
        assert!(!has_float_literal("let x = 42;"));
        assert!(!has_float_literal("x1e2"));
    }
}
