//! The line-based Chaco and MatrixMarket readers the byte-level readers
//! replaced, kept verbatim as differential oracles: a per-line `String`,
//! `split_whitespace().parse()`, a `BTreeMap` of pending mirror weights and
//! a [`GraphBuilder`] pass. The only edits are the function names.
//!
//! They panic where the builder asserts (non-positive weights, `n ≥ 2³² − 1`)
//! and reserve whatever the header asks for, so the differential tests keep
//! those inputs away from them.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, Vid, Wgt};
use crate::io::IoError;
use std::io::{BufRead, BufReader, Read};

fn parse_err<T>(msg: impl Into<String>) -> Result<T, IoError> {
    Err(IoError::Parse(msg.into()))
}

/// Read a Chaco/METIS format graph from a reader.
///
/// Parse errors name the offending 1-based physical line and token, e.g.
/// `parse error: line 3: bad neighbor token `x``.
pub fn read_chaco_lines<R: Read>(r: R) -> Result<CsrGraph, IoError> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines().enumerate();
    // Header: n m [fmt]
    let (header_ln, header) = loop {
        match lines.next() {
            None => return parse_err("empty file"),
            Some((i, line)) => {
                let line = line?;
                let t = line.trim();
                if !t.is_empty() && !t.starts_with('%') && !t.starts_with('#') {
                    break (i + 1, t.to_string());
                }
            }
        }
    };
    let head: Vec<&str> = header.split_whitespace().collect();
    if head.len() < 2 {
        return parse_err(format!("line {header_ln}: header must be `n m [fmt]`"));
    }
    let n: usize = head[0]
        .parse()
        .map_err(|_| IoError::Parse(format!("line {header_ln}: bad n `{}`", head[0])))?;
    let m: usize = head[1]
        .parse()
        .map_err(|_| IoError::Parse(format!("line {header_ln}: bad m `{}`", head[1])))?;
    let fmt = if head.len() > 2 { head[2] } else { "0" };
    let (has_vwgt, has_ewgt) = match fmt {
        "0" | "00" => (false, false),
        "1" | "01" => (false, true),
        "10" => (true, false),
        "11" => (true, true),
        other => return parse_err(format!("line {header_ln}: unsupported fmt `{other}`")),
    };
    let mut b = GraphBuilder::with_capacity(n, m);
    let mut vwgt: Vec<Wgt> = Vec::with_capacity(if has_vwgt { n } else { 0 });
    // Weights seen on the lower endpoint's line, awaiting their mirror on
    // the higher endpoint's line (BTreeMap so the first error reported for
    // an unmirrored edge is the smallest offending pair).
    let mut pending: std::collections::BTreeMap<(Vid, Vid), Vec<Wgt>> =
        std::collections::BTreeMap::new();
    let mut v = 0 as Vid;
    for (i, line) in lines {
        let ln = i + 1;
        let line = line?;
        let t = line.trim();
        if t.starts_with('%') || t.starts_with('#') {
            continue;
        }
        if v as usize >= n {
            if t.is_empty() {
                continue;
            }
            return parse_err(format!("line {ln}: more vertex lines than n = {n}"));
        }
        let mut tok = t.split_whitespace();
        if has_vwgt {
            match tok.next() {
                Some(w) => vwgt.push(w.parse().map_err(|_| {
                    IoError::Parse(format!(
                        "line {ln}: bad vertex weight `{w}` for vertex {}",
                        v + 1
                    ))
                })?),
                None => vwgt.push(1),
            }
        }
        while let Some(u) = tok.next() {
            let u: usize = u
                .parse()
                .map_err(|_| IoError::Parse(format!("line {ln}: bad neighbor token `{u}`")))?;
            if u == 0 || u > n {
                return parse_err(format!("line {ln}: neighbor {u} out of range 1..={n}"));
            }
            let w: Wgt = if has_ewgt {
                match tok.next() {
                    Some(w) => w
                        .parse()
                        .map_err(|_| IoError::Parse(format!("line {ln}: bad edge weight `{w}`")))?,
                    None => {
                        return parse_err(format!(
                            "line {ln}: missing edge weight after neighbor {u}"
                        ))
                    }
                }
            } else {
                1
            };
            let u = (u - 1) as Vid;
            // Each undirected edge must appear on both endpoint lines with
            // the same weight. The lower endpoint's copy is held pending
            // (as a weight multiset, to tolerate parallel entries); the
            // higher endpoint's copy must cancel one pending weight.
            if u == v {
                return parse_err(format!("line {ln}: self-loop on vertex {}", v + 1));
            } else if v < u {
                pending.entry((v, u)).or_default().push(w);
            } else {
                let slot = pending.get_mut(&(u, v));
                let Some(ws) = slot.filter(|ws| !ws.is_empty()) else {
                    return parse_err(format!(
                        "line {ln}: edge ({}, {}) appears on vertex {}'s line but not on vertex {}'s line",
                        u + 1,
                        v + 1,
                        v + 1,
                        u + 1
                    ));
                };
                match ws.iter().position(|&pw| pw == w) {
                    Some(pos) => {
                        ws.swap_remove(pos);
                        b.add_weighted_edge(u, v, w);
                    }
                    None => {
                        return parse_err(format!(
                            "line {ln}: edge ({}, {}) has weight {} on vertex {}'s line but {} on vertex {}'s line",
                            u + 1,
                            v + 1,
                            ws[0],
                            u + 1,
                            w,
                            v + 1
                        ))
                    }
                }
            }
        }
        v += 1;
    }
    if (v as usize) < n {
        return parse_err(format!("only {v} of {n} vertex lines present"));
    }
    if let Some(((a, b_), ws)) = pending.iter().find(|(_, ws)| !ws.is_empty()) {
        debug_assert!(!ws.is_empty());
        return parse_err(format!(
            "edge ({}, {}) appears on vertex {}'s line but not on vertex {}'s line",
            a + 1,
            b_ + 1,
            a + 1,
            b_ + 1
        ));
    }
    if has_vwgt {
        b.set_vertex_weights(vwgt);
    }
    let g = b.build();
    if g.m() != m {
        return parse_err(format!("header claims {m} edges, found {}", g.m()));
    }
    Ok(g)
}

/// Read a MatrixMarket coordinate file as a graph: off-diagonal nonzeros
/// become unit-weight edges (values, if present, are ignored — partitioning
/// uses only the structure, as the paper does).
pub fn read_matrix_market_lines<R: Read>(r: R) -> Result<CsrGraph, IoError> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines().enumerate();
    let banner = match lines.next() {
        Some((_, l)) => l?,
        None => return parse_err("empty file"),
    };
    let lower = banner.to_ascii_lowercase();
    if !lower.starts_with("%%matrixmarket") {
        return parse_err("missing MatrixMarket banner");
    }
    // Banner: %%MatrixMarket matrix coordinate <field> <symmetry>
    let tokens: Vec<&str> = lower.split_whitespace().collect();
    if tokens.len() < 5 {
        return parse_err("banner must be `%%MatrixMarket matrix coordinate <field> <symmetry>`");
    }
    if tokens[2] != "coordinate" {
        return parse_err("only coordinate format supported");
    }
    let pattern = tokens[3] == "pattern";
    // `symmetric` variants store each off-diagonal entry once (lower
    // triangle); `general` stores both (i,j) and (j,i), which must fold to
    // ONE unit edge — not two, which would double every edge weight.
    let symmetric = match tokens[4] {
        "general" => false,
        "symmetric" | "skew-symmetric" | "hermitian" => true,
        other => return parse_err(format!("unknown symmetry `{other}`")),
    };
    let mut size_line = None;
    for (i, line) in lines.by_ref() {
        let line = line?;
        let t = line.trim().to_string();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some((i + 1, t));
        break;
    }
    let Some((size_ln, size_line)) = size_line else {
        return parse_err("missing size line");
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|s| {
            s.parse()
                .map_err(|_| IoError::Parse(format!("line {size_ln}: bad size token `{s}`")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return parse_err(format!("line {size_ln}: size line must be `rows cols nnz`"));
    }
    let (rows, cols, nnz) = (dims[0], dims[1], dims[2]);
    if rows != cols {
        return parse_err(format!(
            "line {size_ln}: matrix must be square to define a graph, got {rows}x{cols}"
        ));
    }
    let mut b = GraphBuilder::with_capacity(rows, nnz);
    // For `general` storage the structurally-mirrored entries (i,j)/(j,i)
    // describe the SAME undirected edge; collect normalized pairs and add
    // each distinct one once.
    let mut general_pairs: Vec<(Vid, Vid)> = Vec::new();
    let mut seen = 0usize;
    for (li, line) in lines {
        let ln = li + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut tok = t.split_whitespace();
        let (Some(i), Some(j)) = (tok.next(), tok.next()) else {
            return parse_err(format!("line {ln}: entry must be `row col [value]`"));
        };
        if !pattern && tok.next().is_none() {
            return parse_err(format!("line {ln}: missing value on entry line"));
        }
        let i: usize = i
            .parse()
            .map_err(|_| IoError::Parse(format!("line {ln}: bad row index `{i}`")))?;
        let j: usize = j
            .parse()
            .map_err(|_| IoError::Parse(format!("line {ln}: bad col index `{j}`")))?;
        if i == 0 || i > rows || j == 0 || j > rows {
            return parse_err(format!(
                "line {ln}: index ({i}, {j}) out of range 1..={rows}"
            ));
        }
        if i != j {
            let (a, b_) = ((i - 1) as Vid, (j - 1) as Vid);
            if symmetric {
                b.add_edge(a, b_);
            } else {
                general_pairs.push((a.min(b_), a.max(b_)));
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return parse_err(format!("header claims {nnz} entries, found {seen}"));
    }
    general_pairs.sort_unstable();
    general_pairs.dedup();
    for (a, b_) in general_pairs {
        b.add_edge(a, b_);
    }
    Ok(b.build())
}
