//! Differential tests: the byte-level readers against the line-based
//! oracles in `test_oracle`, on generated graphs of the five `request-mix`
//! classes (2D meshes, 3D stiffness grids, power grids, power-law circuits,
//! LP block graphs), on proptest edge lists, and on each with one injected
//! fault. Both readers must return the same graph, or the same error
//! message: the same kind, naming the same line and vertex pair.

use super::test_oracle::{read_chaco_lines, read_matrix_market_lines};
use super::{read_chaco, read_matrix_market, write_chaco, write_matrix_market};
use crate::generators::{
    grid2d_9pt, hierarchical_lp, lshape, powergrid, powerlaw, stiffness3d, tri_mesh2d,
};
use crate::rng::{seeded, shuffle};
use crate::{CsrGraph, GraphBuilder, Vid};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngExt;

/// Small graphs of every `request-mix` class.
fn class_graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("mesh2d-tri", tri_mesh2d(9, 9, 1)),
        ("mesh2d-lshape", lshape(8)),
        ("mesh2d-9pt", grid2d_9pt(8, 8, false)),
        ("stiffness3d", stiffness3d(4, 4, 4)),
        ("power", powergrid(150, 2)),
        ("circuit", powerlaw(150, 2, 3)),
        ("lp", hierarchical_lp(2, 40, 4)),
    ]
}

/// `g` with random vertex and edge weights in `1..10`.
fn reweighted(g: &CsrGraph, seed: u64) -> CsrGraph {
    let mut rng = seeded(seed);
    let mut b = GraphBuilder::new(g.n());
    for v in 0..g.n() as Vid {
        for &u in g.neighbors(v) {
            if u > v {
                b.add_weighted_edge(v, u, rng.random_range(1..10));
            }
        }
    }
    b.set_vertex_weights((0..g.n()).map(|_| rng.random_range(1..10)).collect());
    b.build()
}

/// Run both readers on `text` and require the same outcome. Returns the
/// new reader's result.
fn agree(
    text: &str,
    new: fn(&[u8]) -> Result<CsrGraph, super::IoError>,
    old: fn(&[u8]) -> Result<CsrGraph, super::IoError>,
    case: &str,
) -> Result<CsrGraph, String> {
    let got = new(text.as_bytes()).map_err(|e| e.to_string());
    let want = old(text.as_bytes()).map_err(|e| e.to_string());
    match (&got, &want) {
        (Ok(a), Ok(b)) => assert!(a == b, "{case}: the readers built different graphs"),
        _ => assert_eq!(
            got.as_ref().map_err(|e| same_kind(e)).err(),
            want.as_ref().map_err(|e| same_kind(e)).err(),
            "{case}\n{text}"
        ),
    }
    got
}

/// An error message up to what must agree. A weight mismatch names the line
/// and the pair; the weights it quotes may differ when the pair has parallel
/// entries (the oracle quotes whichever pending weight its `swap_remove`
/// left first, the new reader the smallest).
fn same_kind(msg: &str) -> &str {
    msg.find(" has weight ").map_or(msg, |i| &msg[..i])
}

fn chaco_agree(text: &str, case: &str) -> Result<CsrGraph, String> {
    agree(text, |b| read_chaco(b), |b| read_chaco_lines(b), case)
}

fn mm_agree(text: &str, case: &str) -> Result<CsrGraph, String> {
    agree(
        text,
        |b| read_matrix_market(b),
        |b| read_matrix_market_lines(b),
        case,
    )
}

/// A file as lines of tokens, so faults can edit it token by token.
type Doc = Vec<Vec<String>>;

fn render(doc: &Doc, eol: &str) -> String {
    doc.iter().map(|l| l.join(" ") + eol).collect()
}

/// `g` as Chaco lines: header `n m fmt` (no `fmt` token for `"0"`), then
/// each vertex line with the fields `fmt` asks for.
fn chaco_doc(g: &CsrGraph, fmt: &str) -> Doc {
    let (vw, ew) = (fmt.starts_with('1') && fmt.len() == 2, fmt.ends_with('1'));
    let mut header = vec![g.n().to_string(), g.m().to_string()];
    if fmt != "0" {
        header.push(fmt.to_string());
    }
    let mut doc = vec![header];
    for v in 0..g.n() as Vid {
        let mut line = Vec::new();
        if vw {
            line.push(g.vwgt()[v as usize].to_string());
        }
        for (u, w) in g.adj(v) {
            line.push((u + 1).to_string());
            if ew {
                line.push(w.to_string());
            }
        }
        doc.push(line);
    }
    doc
}

const CHACO_FAULTS: [&str; 14] = [
    "drop-entry",
    "weight-mismatch",
    "self-loop",
    "bad-token",
    "out-of-range",
    "missing-line",
    "extra-line",
    "header-m",
    "comments-blanks",
    "duplicate-one-side",
    "parallel-both-sides",
    "shuffle-line",
    "crlf",
    "no-final-newline",
];

/// Tokens per entry, and the index of the first entry token, for `fmt`.
fn chaco_layout(fmt: &str) -> (usize, usize) {
    let ew = fmt.ends_with('1');
    let vw = fmt == "10" || fmt == "11";
    (if ew { 2 } else { 1 }, usize::from(vw))
}

/// A random vertex line (doc index) with at least one entry, if any.
fn line_with_entries(doc: &Doc, rng: &mut StdRng, first: usize) -> Option<usize> {
    let cands: Vec<usize> = (1..doc.len()).filter(|&i| doc[i].len() > first).collect();
    (!cands.is_empty()).then(|| cands[rng.random_range(0..cands.len())])
}

/// Apply one named fault to a Chaco doc; returns the rendered text.
fn chaco_fault(mut doc: Doc, fmt: &str, fault: &str, rng: &mut StdRng) -> String {
    let (stride, first) = chaco_layout(fmt);
    let entry = |doc: &Doc, rng: &mut StdRng| {
        line_with_entries(doc, rng, first).map(|l| {
            let k = rng.random_range(0..(doc[l].len() - first) / stride);
            (l, first + k * stride)
        })
    };
    let mut eol = "\n";
    match fault {
        "drop-entry" => {
            if let Some((l, t)) = entry(&doc, rng) {
                doc[l].drain(t..t + stride);
            }
        }
        "weight-mismatch" if stride == 2 => {
            if let Some((l, t)) = entry(&doc, rng) {
                let w: i64 = doc[l][t + 1].parse().unwrap();
                doc[l][t + 1] = (w + 1).to_string();
            }
        }
        "self-loop" => {
            let l = rng.random_range(1..doc.len());
            let at = first.min(doc[l].len());
            let mut ins = vec![l.to_string()];
            if stride == 2 {
                ins.push("1".into());
            }
            doc[l].splice(at..at, ins);
        }
        "bad-token" => {
            let l = rng.random_range(0..doc.len());
            if !doc[l].is_empty() {
                let t = rng.random_range(0..doc[l].len());
                let bad = ["x", "1.5", "-", "+", "0x1", "99999999999999999999999"];
                doc[l][t] = bad[rng.random_range(0..bad.len())].into();
            }
        }
        "out-of-range" => {
            if let Some((l, t)) = entry(&doc, rng) {
                let n = doc.len() - 1;
                doc[l][t] = if rng.random_range(0..2) == 0 {
                    "0".into()
                } else {
                    (n + 1).to_string()
                };
            }
        }
        "missing-line" => {
            let l = rng.random_range(1..doc.len());
            doc.remove(l);
        }
        "extra-line" => {
            let l = rng.random_range(1..=doc.len());
            let copy = doc[rng.random_range(1..doc.len())].clone();
            doc.insert(l, copy);
        }
        "header-m" => {
            let m: usize = doc[0][1].parse().unwrap();
            doc[0][1] = if rng.random_range(0..2) == 0 {
                m + 1
            } else {
                m.saturating_sub(1)
            }
            .to_string();
        }
        "comments-blanks" => {
            let extras = ["% note", "# note", "", "   ", "\t%x", "#"];
            for _ in 0..3 {
                let l = rng.random_range(0..=doc.len());
                let e = extras[rng.random_range(0..extras.len())];
                doc.insert(l, vec![e.to_string()]);
            }
        }
        "duplicate-one-side" => {
            if let Some((l, t)) = entry(&doc, rng) {
                let e: Vec<String> = doc[l][t..t + stride].to_vec();
                doc[l].extend(e);
            }
        }
        "parallel-both-sides" => {
            if let Some((l, t)) = entry(&doc, rng) {
                let u: usize = doc[l][t].parse().unwrap();
                let mut mirror = vec![l.to_string()];
                let mut e = vec![doc[l][t].clone()];
                if stride == 2 {
                    let w = rng.random_range(1..5).to_string();
                    mirror.push(w.clone());
                    e.push(w);
                }
                doc[l].extend(e);
                doc[u].extend(mirror);
            }
        }
        "shuffle-line" => {
            if let Some(l) = line_with_entries(&doc, rng, first) {
                let mut entries: Vec<Vec<String>> = doc[l][first..]
                    .chunks(stride)
                    .map(<[String]>::to_vec)
                    .collect();
                shuffle(rng, &mut entries);
                doc[l].truncate(first);
                doc[l].extend(entries.into_iter().flatten());
            }
        }
        "crlf" => eol = "\r\n",
        "no-final-newline" => {
            let mut text = render(&doc, eol);
            text.pop();
            return text;
        }
        _ => {}
    }
    render(&doc, eol)
}

#[test]
fn chaco_readers_agree_on_request_mix_classes() {
    let mut errors = std::collections::BTreeMap::new();
    for (name, g) in class_graphs() {
        for (fmt, graph) in [
            ("0", g.clone()),
            ("1", reweighted(&g, 11)),
            ("10", reweighted(&g, 12)),
            ("11", reweighted(&g, 13)),
        ] {
            let clean = chaco_doc(&graph, fmt);
            let parsed = chaco_agree(&render(&clean, "\n"), name);
            let parsed = parsed.unwrap_or_else(|e| panic!("{name} fmt {fmt}: {e}"));
            // Formats without a field read it as 1.
            assert_eq!(parsed.n(), graph.n(), "{name} fmt {fmt}");
            if fmt == "11" {
                assert!(parsed == graph, "{name}: fmt 11 must round-trip");
            }
            for fault in CHACO_FAULTS {
                for seed in 0..4 {
                    let mut rng = seeded(seed * 31 + fmt.len() as u64);
                    let text = chaco_fault(clean.clone(), fmt, fault, &mut rng);
                    let case = format!("{name} fmt {fmt} {fault} seed {seed}");
                    if chaco_agree(&text, &case).is_err() {
                        *errors.entry(fault).or_insert(0) += 1;
                    }
                }
            }
        }
    }
    // Every fault that breaks a file must have produced errors somewhere.
    for fault in [
        "drop-entry",
        "weight-mismatch",
        "self-loop",
        "bad-token",
        "out-of-range",
        "missing-line",
        "extra-line",
        "header-m",
        "duplicate-one-side",
    ] {
        assert!(errors.get(fault).copied().unwrap_or(0) > 0, "{fault}");
    }
    for fault in [
        "parallel-both-sides",
        "shuffle-line",
        "crlf",
        "no-final-newline",
    ] {
        assert_eq!(errors.get(fault), None, "{fault} keeps the file valid");
    }
}

/// `g` as MatrixMarket lines: banner, a comment, the size line and the
/// entries in the given `storage`:
/// * `lower` / `upper`: one triangle, `symmetric`;
/// * `general`: both `(i, j)` and `(j, i)`;
/// * `general-lower`: one triangle declared `general` (still one edge each);
/// * `shuffled`: `lower` in random order.
fn mm_doc(g: &CsrGraph, storage: &str, field: &str, rng: &mut StdRng) -> Doc {
    let symmetry = if storage.starts_with("general") {
        "general"
    } else {
        "symmetric"
    };
    let mut entries: Vec<(Vid, Vid)> = (0..g.n() as Vid).map(|v| (v, v)).collect();
    for v in 0..g.n() as Vid {
        for &u in g.neighbors(v) {
            let keep = match storage {
                "upper" => v < u,
                "general" => true,
                _ => u < v,
            };
            if keep {
                entries.push((v, u));
            }
        }
    }
    if storage == "shuffled" {
        shuffle(rng, &mut entries);
    }
    let line = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
    let mut doc = vec![
        line(&format!(
            "%%MatrixMarket matrix coordinate {field} {symmetry}"
        )),
        line("% generated"),
        line(&format!("{} {} {}", g.n(), g.n(), entries.len())),
    ];
    for (i, j) in entries {
        let mut l = vec![(i + 1).to_string(), (j + 1).to_string()];
        if field != "pattern" {
            l.push(if i == j { "4.0" } else { "-1.0" }.into());
        }
        doc.push(l);
    }
    doc
}

const MM_FAULTS: [&str; 12] = [
    "drop-entry",
    "header-nnz",
    "bad-token",
    "out-of-range",
    "missing-value",
    "rectangular",
    "bad-banner",
    "comments-blanks",
    "both-orientations-symmetric",
    "crlf",
    "no-final-newline",
    "extra-tokens",
];

fn mm_fault(mut doc: Doc, fault: &str, rng: &mut StdRng) -> String {
    let entry = |rng: &mut StdRng, doc: &Doc| rng.random_range(3..doc.len());
    let mut eol = "\n";
    match fault {
        "drop-entry" if doc.len() > 3 => {
            let l = entry(rng, &doc);
            doc.remove(l);
        }
        "header-nnz" => {
            let nnz: usize = doc[2][2].parse().unwrap();
            doc[2][2] = (nnz + 1).to_string();
        }
        "bad-token" => {
            let l = rng.random_range(2..doc.len());
            let t = rng.random_range(0..doc[l].len().min(2));
            doc[l][t] = ["q", "-1", "1e3", "+"][rng.random_range(0..4)].into();
        }
        "out-of-range" if doc.len() > 3 => {
            let l = entry(rng, &doc);
            let n: usize = doc[2][0].parse().unwrap();
            doc[l][rng.random_range(0..2)] = if rng.random_range(0..2) == 0 {
                "0".into()
            } else {
                (n + 1).to_string()
            };
        }
        "missing-value" if doc.len() > 3 => {
            let l = entry(rng, &doc);
            doc[l].truncate(2);
        }
        "rectangular" => {
            let n: usize = doc[2][1].parse().unwrap();
            doc[2][1] = (n + 1).to_string();
        }
        "bad-banner" => {
            let variants = ["banana", "array", "short", "nobanner"];
            match variants[rng.random_range(0..variants.len())] {
                "banana" => doc[0][4] = "banana".into(),
                "array" => doc[0][2] = "array".into(),
                "short" => doc[0].truncate(4),
                _ => doc[0][0] = "%MatrixMarket".into(),
            }
        }
        "comments-blanks" => {
            for _ in 0..3 {
                let l = rng.random_range(1..=doc.len());
                let e = ["% note", "", "  ", "%"][rng.random_range(0..4)];
                doc.insert(l, vec![e.to_string()]);
            }
        }
        "both-orientations-symmetric" if doc.len() > 3 => {
            // A symmetric file listing one edge twice: weight 2 (each
            // stored nonzero counts once).
            let l = entry(rng, &doc);
            let mut mirror = doc[l].clone();
            mirror.swap(0, 1);
            doc.push(mirror);
            let nnz: usize = doc[2][2].parse().unwrap();
            doc[2][2] = (nnz + 1).to_string();
        }
        "crlf" => eol = "\r\n",
        "no-final-newline" => {
            let mut text = render(&doc, eol);
            text.pop();
            return text;
        }
        "extra-tokens" if doc.len() > 3 => {
            let l = entry(rng, &doc);
            doc[l].extend(["7".to_string(), "junk".to_string()]);
        }
        _ => {}
    }
    render(&doc, eol)
}

#[test]
fn matrix_market_readers_agree_on_request_mix_classes() {
    let mut errors = std::collections::BTreeMap::new();
    for (name, g) in class_graphs() {
        for storage in ["lower", "upper", "general", "general-lower", "shuffled"] {
            for field in ["pattern", "real", "integer"] {
                let mut rng = seeded(7);
                let clean = mm_doc(&g, storage, field, &mut rng);
                let case = format!("{name} {storage} {field}");
                let parsed = mm_agree(&render(&clean, "\n"), &case);
                let parsed = parsed.unwrap_or_else(|e| panic!("{case}: {e}"));
                let same = parsed.xadj() == g.xadj() && parsed.adjncy() == g.adjncy();
                assert!(same, "{case}: must round-trip the structure");
                for fault in MM_FAULTS {
                    for seed in 0..3 {
                        let mut rng = seeded(seed);
                        let text = mm_fault(clean.clone(), fault, &mut rng);
                        let case = format!("{case} {fault} seed {seed}");
                        if mm_agree(&text, &case).is_err() {
                            *errors.entry(fault).or_insert(0) += 1;
                        }
                    }
                }
            }
        }
    }
    for fault in [
        "drop-entry",
        "header-nnz",
        "bad-token",
        "out-of-range",
        "missing-value",
        "rectangular",
        "bad-banner",
    ] {
        assert!(errors.get(fault).copied().unwrap_or(0) > 0, "{fault}");
    }
}

/// Strategy: an arbitrary weighted edge list over `n` vertices, with
/// repeated pairs and self-loops.
fn edge_list(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32, i64)>)> {
    (2usize..max_n).prop_flat_map(|n| {
        let edges =
            prop::collection::vec((0..n as u32, 0..n as u32, 1i64..10), 0..(4 * n).min(300));
        (Just(n), edges)
    })
}

/// The edge list as Chaco fmt-11 text with every listed pair kept as its
/// own entry on both lines (parallel entries unfolded), rows in input
/// order, and the header counting distinct edges.
fn unfolded_chaco(n: usize, edges: &[(u32, u32, i64)]) -> String {
    let mut rows: Vec<Vec<(u32, i64)>> = vec![Vec::new(); n];
    let mut distinct = std::collections::BTreeSet::new();
    for &(u, v, w) in edges.iter().filter(|e| e.0 != e.1) {
        rows[u as usize].push((v, w));
        rows[v as usize].push((u, w));
        distinct.insert((u.min(v), u.max(v)));
    }
    let mut text = format!("{n} {} 11\n", distinct.len());
    for (v, row) in rows.iter().enumerate() {
        text.push_str(&(v % 3 + 1).to_string());
        for &(u, w) in row {
            text.push_str(&format!(" {} {w}", u + 1));
        }
        text.push('\n');
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn readers_agree_on_edge_lists((n, edges) in edge_list(40), seed in 0u64..1000) {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &edges {
            b.add_weighted_edge(u, v, w);
        }
        b.set_vertex_weights((0..n).map(|v| (v % 3 + 1) as i64).collect());
        let g = b.build();
        let mut chaco = Vec::new();
        write_chaco(&g, &mut chaco).unwrap();
        let chaco = String::from_utf8(chaco).unwrap();
        prop_assert!(chaco_agree(&chaco, "written").unwrap() == g);
        let unfolded = unfolded_chaco(n, &edges);
        prop_assert!(chaco_agree(&unfolded, "unfolded").unwrap() == g);
        let mut mm = Vec::new();
        write_matrix_market(&g, &mut mm).unwrap();
        let structure = mm_agree(&String::from_utf8(mm).unwrap(), "written mm").unwrap();
        prop_assert_eq!(structure.nnz(), g.nnz());
        let mut rng = seeded(seed);
        let fault = CHACO_FAULTS[rng.random_range(0..CHACO_FAULTS.len())];
        let doc: Doc = unfolded
            .lines()
            .map(|l| l.split(' ').filter(|t| !t.is_empty()).map(str::to_string).collect())
            .collect();
        let text = chaco_fault(doc, "11", fault, &mut rng);
        chaco_agree(&text, fault).ok();
        let mm_text = render(&mm_doc(&g, "general", "real", &mut rng), "\n");
        let fault = MM_FAULTS[rng.random_range(0..MM_FAULTS.len())];
        let doc: Doc = mm_text
            .lines()
            .map(|l| l.split(' ').map(str::to_string).collect())
            .collect();
        mm_agree(&mm_fault(doc, fault, &mut rng), fault).ok();
    }
}
