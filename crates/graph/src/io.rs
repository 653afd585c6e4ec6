//! Graph file I/O.
//!
//! Two formats are supported:
//!
//! * the **Chaco / METIS `.graph` format** the original systems consumed
//!   (header `n m [fmt]`, then one line of 1-indexed neighbors per vertex;
//!   `fmt` = `1` edge weights, `10` vertex weights, `11` both);
//! * **MatrixMarket** `coordinate` files (`pattern`/`real`/`integer`,
//!   `symmetric` or `general`), read as the adjacency structure of the
//!   matrix — how the paper's Harwell-Boeing test matrices are distributed
//!   today.
//!
//! Both readers take their input with one `read_to_end` and parse the bytes
//! in place: one cursor splits physical lines the way `BufRead::lines` does,
//! tokens are runs of non-whitespace (ASCII whitespace), and integers are
//! parsed by hand, so no `String` is made per line or token. A Chaco vertex
//! line is appended straight onto the CSR arrays, rows are sorted only when
//! out of order, mirrors are checked in one pass over the rows and parallel
//! entries are folded in place; MatrixMarket entries go through a
//! counting-sort CSR build. Every parse error is [`IoError::Parse`], and
//! errors about a line name its 1-based physical line number. No allocation
//! sized from a header count exceeds what the rest of the input could hold.
//! DESIGN.md §12 has the full contract.

use crate::builder::{fold_sorted_rows, sort_rows};
use crate::csr::{CsrGraph, Vid, Wgt};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

#[cfg(test)]
mod differential_tests;
#[cfg(test)]
mod test_oracle;

/// Errors from graph parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed file contents, with a human-readable description.
    Parse(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_err<T>(msg: impl Into<String>) -> Result<T, IoError> {
    Err(IoError::Parse(msg.into()))
}

/// A parse error about physical line `line`.
fn line_err(line: usize, msg: impl std::fmt::Display) -> IoError {
    IoError::Parse(format!("line {line}: {msg}"))
}

/// A token as text, for error messages.
fn text(tok: &[u8]) -> Cow<'_, str> {
    String::from_utf8_lossy(tok)
}

/// Whitespace between tokens and around lines (`\n` ends the line).
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

/// The physical lines of an input, split on `\n` as `BufRead::lines` does:
/// a final `\n` does not start another line.
struct Lines<'a> {
    data: &'a [u8],
    pos: usize,
    /// 1-based number of the line last started.
    number: usize,
    /// Byte offset of the line last started.
    start: usize,
}

impl<'a> Lines<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            number: 0,
            start: 0,
        }
    }

    /// The next line as a slice (without its `\n`).
    fn next_line(&mut self) -> Option<&'a [u8]> {
        let mut tok = self.next_tokens()?;
        let start = tok.pos;
        tok.skip_line();
        self.pos = tok.pos + 1;
        Some(&self.data[start..tok.pos])
    }

    /// Start the next line and read it token by token; hand the cursor to
    /// [`Lines::finish`] when done with the line.
    fn next_tokens(&mut self) -> Option<Tokens<'a>> {
        if self.pos >= self.data.len() {
            return None;
        }
        self.number += 1;
        self.start = self.pos;
        Some(Tokens {
            data: self.data,
            pos: self.pos,
        })
    }

    /// Move past the line `tok` is on, skipping any tokens it left.
    fn finish(&mut self, mut tok: Tokens<'a>) {
        tok.skip_line();
        self.pos = tok.pos + 1;
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }
}

/// Whitespace-separated tokens read straight from the input, up to the end
/// of the line the cursor is on.
struct Tokens<'a> {
    data: &'a [u8],
    pos: usize,
}

/// The tokens of one line already cut out of the input.
fn tokens(line: &[u8]) -> Tokens<'_> {
    Tokens { data: line, pos: 0 }
}

impl<'a> Tokens<'a> {
    fn skip_space(&mut self) {
        while self.pos < self.data.len() && is_space(self.data[self.pos]) {
            self.pos += 1;
        }
    }

    /// Move to the line's `\n` (or the end of the input).
    fn skip_line(&mut self) {
        let rest = &self.data[self.pos..];
        self.pos += rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
    }

    /// The first byte of the next token, without consuming it; `None` when
    /// the line has no more tokens.
    fn peek(&mut self) -> Option<u8> {
        self.skip_space();
        self.data.get(self.pos).copied().filter(|&b| b != b'\n')
    }

    /// The next token, or `None` at the end of the line.
    fn next_token(&mut self) -> Option<&'a [u8]> {
        self.skip_space();
        let start = self.pos;
        while self.pos < self.data.len() && !ends_token(self.data[self.pos]) {
            self.pos += 1;
        }
        (self.pos > start).then(|| &self.data[start..self.pos])
    }

    /// The next token as a plain run of at most `max_digits` decimal digits
    /// (so it cannot overflow), or `None` with the cursor unmoved.
    fn digits(&mut self, max_digits: usize) -> Option<u64> {
        let start = self.pos;
        let mut v = 0u64;
        while let Some(d) = self.data.get(self.pos).map(|b| b.wrapping_sub(b'0')) {
            if d > 9 {
                break;
            }
            v = v.wrapping_mul(10).wrapping_add(u64::from(d));
            self.pos += 1;
        }
        let len = self.pos - start;
        let whole = self.data.get(self.pos).is_none_or(|&b| ends_token(b));
        if len > 0 && len <= max_digits && whole {
            Some(v)
        } else {
            self.pos = start;
            None
        }
    }

    /// The next token as an unsigned integer; `Err` holds a token that is
    /// not one.
    fn next_usize(&mut self) -> Option<Result<usize, &'a [u8]>> {
        self.skip_space();
        if let Some(v) = self.digits(19).and_then(|v| usize::try_from(v).ok()) {
            return Some(Ok(v));
        }
        let tok = self.next_token()?;
        Some(parse_usize(tok).ok_or(tok))
    }

    /// The next token as a weight; `Err` holds a token that is not one.
    fn next_wgt(&mut self) -> Option<Result<Wgt, &'a [u8]>> {
        self.skip_space();
        if let Some(v) = self.digits(18) {
            return Some(Ok(v as Wgt));
        }
        let tok = self.next_token()?;
        Some(parse_wgt(tok).ok_or(tok))
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        self.next_token()
    }
}

/// Whether `b` ends a token: whitespace or the end of the line.
fn ends_token(b: u8) -> bool {
    is_space(b) || b == b'\n'
}

/// Parse an unsigned decimal the way `str::parse::<usize>` does: an
/// optional `+`, then one or more digits, without overflow.
fn parse_usize(tok: &[u8]) -> Option<usize> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0usize, |v, &b| {
        let d = b.wrapping_sub(b'0');
        (d <= 9).then_some(())?;
        v.checked_mul(10)?.checked_add(d as usize)
    })
}

/// Parse a signed decimal the way `str::parse::<i64>` does.
fn parse_wgt(tok: &[u8]) -> Option<Wgt> {
    let (negative, digits) = match tok.first() {
        Some(b'-') => (true, &tok[1..]),
        Some(b'+') => (false, &tok[1..]),
        _ => (false, tok),
    };
    if digits.is_empty() {
        return None;
    }
    // Accumulate toward the sign so that `i64::MIN` parses.
    digits.iter().try_fold(0 as Wgt, |v, &b| {
        let d = b.wrapping_sub(b'0');
        (d <= 9).then_some(())?;
        let v = v.checked_mul(10)?;
        if negative {
            v.checked_sub(d as Wgt)
        } else {
            v.checked_add(d as Wgt)
        }
    })
}

/// Largest vertex count: ids are `u32` and `Vid::MAX` stays unused.
const MAX_VERTICES: usize = Vid::MAX as usize - 1;

/// Largest adjacency-entry count: `xadj` offsets are `u32`.
const MAX_ENTRIES: usize = u32::MAX as usize;

/// Read a Chaco/METIS format graph from a reader.
///
/// Parse errors name the offending 1-based physical line and token, e.g.
/// `parse error: line 3: bad neighbor token `x``.
pub fn read_chaco<R: Read>(mut r: R) -> Result<CsrGraph, IoError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    parse_chaco(&data)
}

/// What a Chaco header announces about the vertex lines.
#[derive(Clone, Copy)]
struct ChacoFormat {
    n: usize,
    has_vwgt: bool,
    has_ewgt: bool,
}

/// Chaco vertex lines parsed into CSR rows, before any mirror check.
struct ChacoRows {
    xadj: Vec<u32>,
    adjncy: Vec<Vid>,
    adjwgt: Vec<Wgt>,
    vwgt: Vec<Wgt>,
    /// Byte offset of each row's line in the input.
    line_start: Vec<usize>,
    /// The first error the line scan met. The rows then hold every vertex
    /// line before it and, if it is a malformed vertex line, a last row
    /// with that line's entries before the offending token.
    stopped: Option<IoError>,
}

fn parse_chaco(data: &[u8]) -> Result<CsrGraph, IoError> {
    let mut lines = Lines::new(data);
    // Header: n m [fmt], on the first line that is neither blank nor a
    // comment.
    let mut head = loop {
        let Some(mut tok) = lines.next_tokens() else {
            return parse_err("empty file");
        };
        if !matches!(tok.peek(), None | Some(b'%' | b'#')) {
            break tok;
        }
        lines.finish(tok);
    };
    let header_ln = lines.number;
    let (Some(n_tok), Some(m_tok)) = (head.next(), head.next()) else {
        return Err(line_err(header_ln, "header must be `n m [fmt]`"));
    };
    let n = parse_usize(n_tok)
        .ok_or_else(|| line_err(header_ln, format_args!("bad n `{}`", text(n_tok))))?;
    let m = parse_usize(m_tok)
        .ok_or_else(|| line_err(header_ln, format_args!("bad m `{}`", text(m_tok))))?;
    let (has_vwgt, has_ewgt) = match head.next().unwrap_or(b"0") {
        b"0" | b"00" => (false, false),
        b"1" | b"01" => (false, true),
        b"10" => (true, false),
        b"11" => (true, true),
        other => {
            return Err(line_err(
                header_ln,
                format_args!("unsupported fmt `{}`", text(other)),
            ))
        }
    };
    if n > MAX_VERTICES {
        return Err(line_err(
            header_ln,
            format_args!("n = {n} exceeds the {MAX_VERTICES} vertex limit of u32 ids"),
        ));
    }
    lines.finish(head);
    let format = ChacoFormat {
        n,
        has_vwgt,
        has_ewgt,
    };
    let mut rows = scan_chaco_rows(&mut lines, format, m);
    sort_rows(&rows.xadj, &mut rows.adjncy, &mut rows.adjwgt);
    // Errors come in the order a streaming reader meets them: mirror errors
    // on lines up to where the scan stopped, then the scan's own error, then
    // what only the whole file shows.
    let leftover = match check_mirrors(&rows) {
        Ok(leftover) => leftover,
        Err(v) => return Err(mirror_error(data, &rows, v, format)),
    };
    if let Some(e) = rows.stopped {
        return Err(e);
    }
    let found = rows.line_start.len();
    if found < n {
        return parse_err(format!("only {found} of {n} vertex lines present"));
    }
    if let Some((a, b)) = leftover {
        let (a, b) = (a as usize + 1, b as usize + 1);
        return parse_err(format!(
            "edge ({a}, {b}) appears on vertex {a}'s line but not on vertex {b}'s line"
        ));
    }
    let ChacoRows {
        mut xadj,
        mut adjncy,
        mut adjwgt,
        vwgt,
        ..
    } = rows;
    let mut overflow = false;
    fold_sorted_rows(&mut xadj, &mut adjncy, &mut adjwgt, |a, b| {
        a.checked_add(b).unwrap_or_else(|| {
            overflow = true;
            a
        })
    });
    if overflow {
        return parse_err("parallel entries of an edge sum past the i64 weight range");
    }
    if adjncy.len() / 2 != m {
        return parse_err(format!(
            "header claims {m} edges, found {}",
            adjncy.len() / 2
        ));
    }
    let vwgt = if has_vwgt { vwgt } else { vec![1; n] };
    Ok(CsrGraph::from_parts_unchecked(xadj, adjncy, vwgt, adjwgt))
}

/// Append the vertex lines after the header onto CSR rows, stopping at the
/// first malformed line (see [`ChacoRows::stopped`]).
fn scan_chaco_rows(lines: &mut Lines<'_>, format: ChacoFormat, m: usize) -> ChacoRows {
    let n = format.n;
    // Cap what the header can reserve by what the input could hold: a row
    // needs a line (at least one byte, but the last) and an entry a token
    // and a separator (at least two bytes).
    let left = lines.remaining();
    let row_cap = n.min(left + 1);
    let entry_cap = m.saturating_mul(2).min(left / 2 + 1);
    let mut rows = ChacoRows {
        xadj: Vec::with_capacity(row_cap + 1),
        adjncy: Vec::with_capacity(entry_cap),
        adjwgt: Vec::with_capacity(entry_cap),
        vwgt: Vec::with_capacity(if format.has_vwgt { row_cap } else { 0 }),
        line_start: Vec::with_capacity(row_cap),
        stopped: None,
    };
    rows.xadj.push(0);
    while let Some(mut tok) = lines.next_tokens() {
        let ln = lines.number;
        let first = tok.peek();
        if first == Some(b'%') || first == Some(b'#') {
            lines.finish(tok);
            continue;
        }
        let v = rows.line_start.len();
        if v == n {
            if first.is_none() {
                lines.finish(tok);
                continue;
            }
            rows.stopped = Some(line_err(ln, format_args!("more vertex lines than n = {n}")));
            break;
        }
        rows.line_start.push(lines.start);
        let pushed = push_entries(
            &mut tok,
            v,
            format,
            ln,
            &mut rows.adjncy,
            &mut rows.adjwgt,
            &mut rows.vwgt,
        );
        rows.xadj.push(rows.adjncy.len() as u32);
        if let Err(e) = pushed {
            rows.stopped = Some(e);
            break;
        }
        lines.finish(tok);
    }
    rows
}

/// Parse vertex `v`'s line (physical line `ln`) from `tok`: its weight
/// onto `vwgt` if the format has one, then its entries onto
/// `adjncy`/`adjwgt`, up to the first malformed token.
fn push_entries(
    tok: &mut Tokens<'_>,
    v: usize,
    format: ChacoFormat,
    ln: usize,
    adjncy: &mut Vec<Vid>,
    adjwgt: &mut Vec<Wgt>,
    vwgt: &mut Vec<Wgt>,
) -> Result<(), IoError> {
    let n = format.n;
    if format.has_vwgt {
        let w = match tok.next_wgt() {
            Some(w) => w.map_err(|bad| {
                line_err(
                    ln,
                    format_args!("bad vertex weight `{}` for vertex {}", text(bad), v + 1),
                )
            })?,
            None => 1,
        };
        if w <= 0 {
            return Err(line_err(
                ln,
                format_args!("vertex weight {w} of vertex {} is not positive", v + 1),
            ));
        }
        vwgt.push(w);
    }
    while let Some(u) = tok.next_usize() {
        let u =
            u.map_err(|bad| line_err(ln, format_args!("bad neighbor token `{}`", text(bad))))?;
        if u == 0 || u > n {
            return Err(line_err(
                ln,
                format_args!("neighbor {u} out of range 1..={n}"),
            ));
        }
        let w = if format.has_ewgt {
            let Some(w) = tok.next_wgt() else {
                return Err(line_err(
                    ln,
                    format_args!("missing edge weight after neighbor {u}"),
                ));
            };
            let w =
                w.map_err(|bad| line_err(ln, format_args!("bad edge weight `{}`", text(bad))))?;
            if w <= 0 {
                return Err(line_err(
                    ln,
                    format_args!("edge weight {w} after neighbor {u} is not positive"),
                ));
            }
            w
        } else {
            1
        };
        if u - 1 == v {
            return Err(line_err(ln, format_args!("self-loop on vertex {}", v + 1)));
        }
        if adjncy.len() == MAX_ENTRIES {
            return Err(line_err(
                ln,
                format_args!("more than {MAX_ENTRIES} adjacency entries"),
            ));
        }
        adjncy.push((u - 1) as Vid);
        adjwgt.push(w);
    }
    Ok(())
}

/// Check that every edge appears on both endpoint lines with the same
/// weight, as multisets (parallel entries included), in one pass over rows
/// sorted by `(neighbor, weight)`.
///
/// Rows are visited in increasing `v`. Each entry `(v, u)` with `u < v`
/// consumes an entry `(u, v)` of equal weight from row `u`, whose cursor
/// only moves forward. The first row with an entry that finds nothing to
/// consume is returned as the error. Entries of a row `u` that no higher
/// row consumes are left over; the smallest such pair is returned, since a
/// streaming reader can only tell after the last line.
fn check_mirrors(rows: &ChacoRows) -> Result<Option<(Vid, Vid)>, usize> {
    let ChacoRows {
        xadj,
        adjncy,
        adjwgt,
        ..
    } = rows;
    let nrows = xadj.len() - 1;
    // next[u]: first entry of row u that no row visited so far consumed.
    let mut next: Vec<u32> = Vec::with_capacity(nrows);
    let mut leftover: Option<(Vid, Vid)> = None;
    let mut left = |pair: (Vid, Vid)| leftover = Some(leftover.map_or(pair, |l| l.min(pair)));
    for v in 0..nrows {
        let vid = v as Vid;
        let end = xadj[v + 1] as usize;
        let mut i = xadj[v] as usize;
        while i < end && adjncy[i] < vid {
            let u = adjncy[i];
            let run_end = i + adjncy[i..end].iter().take_while(|&&x| x == u).count();
            let row_end = xadj[u as usize + 1] as usize;
            let mut c = next[u as usize] as usize;
            while c < row_end && adjncy[c] < vid {
                left((u, adjncy[c]));
                c += 1;
            }
            // Row u's entries for v are mirror..c; match row v's entries
            // for u against them, both in weight order.
            let mirror = c;
            while c < row_end && adjncy[c] == vid {
                c += 1;
            }
            let mut a = mirror;
            for &w in &adjwgt[i..run_end] {
                while a < c && adjwgt[a] < w {
                    left((u, vid));
                    a += 1;
                }
                if a == c || adjwgt[a] != w {
                    return Err(v);
                }
                a += 1;
            }
            if a < c {
                left((u, vid));
            }
            next[u as usize] = c as u32;
            i = run_end;
        }
        next.push(i as u32);
    }
    for (u, &c) in next.iter().enumerate() {
        if c < xadj[u + 1] {
            left((u as Vid, adjncy[c as usize]));
        }
    }
    Ok(leftover)
}

/// The error for row `v`, which [`check_mirrors`] found inconsistent: the
/// first entry of `v`'s line, in file order, whose mirror is missing or has
/// another weight. Only this error path re-reads the line.
fn mirror_error(data: &[u8], rows: &ChacoRows, v: usize, format: ChacoFormat) -> IoError {
    let start = rows.line_start[v];
    let ln = 1 + data[..start].iter().filter(|&&b| b == b'\n').count();
    let (mut adjncy, mut adjwgt) = (Vec::new(), Vec::new());
    // The scan stopped at the same token, if any, so this reads the same
    // entries the row holds.
    let _ = push_entries(
        &mut Tokens { data, pos: start },
        v,
        format,
        ln,
        &mut adjncy,
        &mut adjwgt,
        &mut Vec::new(),
    );
    // Unconsumed weights of row u's entries for v, smallest first.
    let mut pending: BTreeMap<Vid, Vec<Wgt>> = BTreeMap::new();
    for (&u, &w) in adjncy.iter().zip(&adjwgt) {
        if u as usize >= v {
            continue;
        }
        let ws = pending.entry(u).or_insert_with(|| {
            let (s, e) = (
                rows.xadj[u as usize] as usize,
                rows.xadj[u as usize + 1] as usize,
            );
            let row = &rows.adjncy[s..e];
            let (lo, hi) = (
                row.partition_point(|&x| (x as usize) < v),
                row.partition_point(|&x| x as usize <= v),
            );
            rows.adjwgt[s + lo..s + hi].to_vec()
        });
        let (u1, v1) = (u as usize + 1, v + 1);
        match ws.iter().position(|&x| x == w) {
            Some(k) => {
                ws.remove(k);
            }
            None if ws.is_empty() => {
                return line_err(
                    ln,
                    format_args!(
                        "edge ({u1}, {v1}) appears on vertex {v1}'s line but not on vertex {u1}'s line"
                    ),
                )
            }
            None => {
                return line_err(
                    ln,
                    format_args!(
                        "edge ({u1}, {v1}) has weight {} on vertex {u1}'s line but {w} on vertex {v1}'s line",
                        ws[0]
                    ),
                )
            }
        }
    }
    line_err(
        ln,
        format_args!("inconsistent mirror entries on vertex {}'s line", v + 1),
    )
}

/// Write a graph in Chaco/METIS format (always emits fmt `11`).
pub fn write_chaco<W: Write>(g: &CsrGraph, w: W) -> std::io::Result<()> {
    let mut out = BufWriter::new(w);
    writeln!(out, "{} {} 11", g.n(), g.m())?;
    for v in 0..g.n() as Vid {
        write!(out, "{}", g.vwgt()[v as usize])?;
        for (u, wgt) in g.adj(v) {
            write!(out, " {} {}", u + 1, wgt)?;
        }
        writeln!(out)?;
    }
    out.flush()
}

/// Read a MatrixMarket coordinate file as a graph: off-diagonal nonzeros
/// become unit-weight edges (values, if present, are ignored — partitioning
/// uses only the structure, as the paper does).
pub fn read_matrix_market<R: Read>(mut r: R) -> Result<CsrGraph, IoError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    parse_matrix_market(&data)
}

fn parse_matrix_market(data: &[u8]) -> Result<CsrGraph, IoError> {
    let mut lines = Lines::new(data);
    let Some(banner) = lines.next_line() else {
        return parse_err("empty file");
    };
    let lower = banner.to_ascii_lowercase();
    if !lower.starts_with(b"%%matrixmarket") {
        return parse_err("missing MatrixMarket banner");
    }
    // Banner: %%MatrixMarket matrix coordinate <field> <symmetry>
    let banner: Vec<&[u8]> = tokens(&lower).collect();
    if banner.len() < 5 {
        return parse_err("banner must be `%%MatrixMarket matrix coordinate <field> <symmetry>`");
    }
    if banner[2] != b"coordinate" {
        return parse_err("only coordinate format supported");
    }
    let pattern = banner[3] == b"pattern";
    // `symmetric` variants store each off-diagonal entry once (lower
    // triangle); `general` stores both (i,j) and (j,i), which must fold to
    // ONE unit edge — not two, which would double every edge weight.
    let symmetric = match banner[4] {
        b"general" => false,
        b"symmetric" | b"skew-symmetric" | b"hermitian" => true,
        other => return parse_err(format!("unknown symmetry `{}`", text(other))),
    };
    let mut size_line = loop {
        let Some(mut tok) = lines.next_tokens() else {
            return parse_err("missing size line");
        };
        if !matches!(tok.peek(), None | Some(b'%')) {
            break tok;
        }
        lines.finish(tok);
    };
    let size_ln = lines.number;
    let dims = (&mut size_line)
        .map(|s| {
            parse_usize(s)
                .ok_or_else(|| line_err(size_ln, format_args!("bad size token `{}`", text(s))))
        })
        .collect::<Result<Vec<usize>, _>>()?;
    lines.finish(size_line);
    let &[rows, cols, nnz] = dims.as_slice() else {
        return Err(line_err(size_ln, "size line must be `rows cols nnz`"));
    };
    if rows != cols {
        return Err(line_err(
            size_ln,
            format_args!("matrix must be square to define a graph, got {rows}x{cols}"),
        ));
    }
    if rows > MAX_VERTICES {
        return Err(line_err(
            size_ln,
            format_args!("{rows} rows exceed the {MAX_VERTICES} vertex limit of u32 ids"),
        ));
    }
    // An entry line holds at least `i j\n`: cap the header's reservation by
    // what the input could hold.
    let mut pairs: Vec<(Vid, Vid)> = Vec::with_capacity(nnz.min(lines.remaining() / 4 + 1));
    let mut seen = 0usize;
    while let Some(mut tok) = lines.next_tokens() {
        let ln = lines.number;
        if matches!(tok.peek(), None | Some(b'%')) {
            lines.finish(tok);
            continue;
        }
        let (Some(i), Some(j)) = (tok.next_usize(), tok.next_usize()) else {
            return Err(line_err(ln, "entry must be `row col [value]`"));
        };
        if !pattern && tok.next_token().is_none() {
            return Err(line_err(ln, "missing value on entry line"));
        }
        let i = i.map_err(|bad| line_err(ln, format_args!("bad row index `{}`", text(bad))))?;
        let j = j.map_err(|bad| line_err(ln, format_args!("bad col index `{}`", text(bad))))?;
        if i == 0 || i > rows || j == 0 || j > rows {
            return Err(line_err(
                ln,
                format_args!("index ({i}, {j}) out of range 1..={rows}"),
            ));
        }
        if i != j {
            if pairs.len() == MAX_ENTRIES / 2 {
                return Err(line_err(
                    ln,
                    format_args!("more than {MAX_ENTRIES} adjacency entries"),
                ));
            }
            pairs.push(((i - 1) as Vid, (j - 1) as Vid));
        }
        seen += 1;
        lines.finish(tok);
    }
    if seen != nnz {
        return parse_err(format!("header claims {nnz} entries, found {seen}"));
    }
    Ok(csr_from_pairs(rows, &pairs, symmetric))
}

/// Counting-sort CSR build of the undirected pairs over `n` vertices.
/// Repeated pairs sum to their multiplicity when `symmetric` (each entry is
/// one stored nonzero) and fold to one unit edge otherwise (`general`
/// storage lists every edge as both `(i, j)` and `(j, i)`).
fn csr_from_pairs(n: usize, pairs: &[(Vid, Vid)], symmetric: bool) -> CsrGraph {
    let mut xadj = vec![0u32; n + 1];
    for &(a, b) in pairs {
        xadj[a as usize + 1] += 1;
        xadj[b as usize + 1] += 1;
    }
    for i in 0..n {
        xadj[i + 1] += xadj[i];
    }
    let mut adjncy = vec![0 as Vid; xadj[n] as usize];
    let mut cursor: Vec<u32> = xadj[..n].to_vec();
    for &(a, b) in pairs {
        adjncy[cursor[a as usize] as usize] = b;
        cursor[a as usize] += 1;
        adjncy[cursor[b as usize] as usize] = a;
        cursor[b as usize] += 1;
    }
    drop(cursor);
    let mut adjwgt = vec![1 as Wgt; adjncy.len()];
    sort_rows(&xadj, &mut adjncy, &mut adjwgt);
    let merge: fn(Wgt, Wgt) -> Wgt = if symmetric { |a, b| a + b } else { |a, _| a };
    fold_sorted_rows(&mut xadj, &mut adjncy, &mut adjwgt, merge);
    CsrGraph::from_parts_unchecked(xadj, adjncy, vec![1; n], adjwgt)
}

/// Write a graph as a symmetric MatrixMarket pattern matrix (lower
/// triangle plus unit diagonal, the Harwell-Boeing convention for
/// structural symmetry).
pub fn write_matrix_market<W: Write>(g: &CsrGraph, w: W) -> std::io::Result<()> {
    let mut out = BufWriter::new(w);
    writeln!(out, "%%MatrixMarket matrix coordinate pattern symmetric")?;
    writeln!(out, "% exported by mlgp-graph")?;
    writeln!(out, "{} {} {}", g.n(), g.n(), g.n() + g.m())?;
    for v in 0..g.n() as Vid {
        writeln!(out, "{} {}", v + 1, v + 1)?;
        for &u in g.neighbors(v) {
            if u < v {
                writeln!(out, "{} {}", v + 1, u + 1)?;
            }
        }
    }
    out.flush()
}

/// Whether `path` names a MatrixMarket file (extension `.mtx`).
fn is_matrix_market(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "mtx")
}

/// Read a graph file, dispatching on extension (`.mtx` → MatrixMarket,
/// anything else → Chaco/METIS).
pub fn read_graph_file(path: &Path) -> Result<CsrGraph, IoError> {
    let f = std::fs::File::open(path)?;
    if is_matrix_market(path) {
        read_matrix_market(f)
    } else {
        read_chaco(f)
    }
}

/// Write a graph file, dispatching on extension as [`read_graph_file`]
/// does: `.mtx` → MatrixMarket (structure only: weights are dropped),
/// anything else → Chaco/METIS.
pub fn write_graph_file(g: &CsrGraph, path: &Path) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    if is_matrix_market(path) {
        write_matrix_market(g, f)
    } else {
        write_chaco(g, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn chaco_round_trip() {
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 2)
            .add_weighted_edge(1, 2, 3)
            .add_weighted_edge(2, 3, 4)
            .add_weighted_edge(3, 0, 5);
        b.set_vertex_weights(vec![1, 2, 3, 4]);
        let g = b.build();
        let mut buf = Vec::new();
        write_chaco(&g, &mut buf).unwrap();
        let g2 = read_chaco(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn reads_unweighted_chaco() {
        let text = "% comment\n3 2\n2\n1 3\n2\n";
        let g = read_chaco(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn reads_edge_weighted_chaco() {
        let text = "2 1 1\n2 7\n1 7\n";
        let g = read_chaco(text.as_bytes()).unwrap();
        assert_eq!(g.edge_weights(0), &[7]);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_chaco("3\n".as_bytes()).is_err());
        assert!(read_chaco("".as_bytes()).is_err());
        assert!(read_chaco("2 1 99\n2\n1\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_edge_count_mismatch() {
        let text = "3 5\n2\n1 3\n2\n";
        assert!(read_chaco(text.as_bytes()).is_err());
    }

    #[test]
    fn reads_matrix_market_symmetric() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 4\n1 1 2.0\n2 1 -1.0\n3 2 -1.0\n3 3 2.0\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2); // diagonal entries dropped
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn reads_matrix_market_pattern_general() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 2\n1 2\n2 1\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.m(), 1); // duplicate (1,2)/(2,1) folded...
        assert_eq!(g.edge_weights(0), &[1]); // ...to ONE unit edge, not weight 2
    }

    #[test]
    fn general_and_symmetric_encodings_read_identically() {
        // The same 4-vertex path + chord, stored both ways. `general` lists
        // every off-diagonal nonzero twice; `symmetric` lists the lower
        // triangle once. Both must produce the identical CsrGraph.
        let general = "%%MatrixMarket matrix coordinate real general\n\
                       4 4 12\n\
                       1 2 1.0\n2 1 1.0\n\
                       2 3 1.0\n3 2 1.0\n\
                       3 4 1.0\n4 3 1.0\n\
                       1 4 1.0\n4 1 1.0\n\
                       1 1 2.0\n2 2 2.0\n3 3 2.0\n4 4 2.0\n";
        let symmetric = "%%MatrixMarket matrix coordinate real symmetric\n\
                         4 4 8\n\
                         2 1 1.0\n3 2 1.0\n4 3 1.0\n4 1 1.0\n\
                         1 1 2.0\n2 2 2.0\n3 3 2.0\n4 4 2.0\n";
        let gg = read_matrix_market(general.as_bytes()).unwrap();
        let gs = read_matrix_market(symmetric.as_bytes()).unwrap();
        assert_eq!(gg.m(), 4);
        assert_eq!(gg, gs);
        assert!(gg.edge_weights(0).iter().all(|&w| w == 1));
    }

    #[test]
    fn mm_rejects_unknown_symmetry() {
        let text = "%%MatrixMarket matrix coordinate pattern banana\n2 2 1\n1 2\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("banana"), "{err}");
    }

    #[test]
    fn mm_rejects_short_banner() {
        let text = "%%MatrixMarket matrix coordinate\n2 2 1\n1 2\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn chaco_rejects_self_loop() {
        // Vertex 2's line lists vertex 2 itself.
        let text = "3 3\n2 3\n1 2 3\n1 2\n";
        let err = read_chaco(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("self-loop"), "{err}");
        assert!(err.to_string().contains('2'), "{err}");
    }

    #[test]
    fn chaco_rejects_asymmetric_adjacency() {
        // Edge (1,3) appears on vertex 1's line only; header says 2 edges
        // but the file is simply inconsistent, and the error must name the
        // unmirrored pair rather than a misleading edge-count mismatch.
        let text = "3 2\n2 3\n1\n\n";
        let err = read_chaco(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("(1, 3)"), "{msg}");
        assert!(!msg.contains("header claims"), "{msg}");
    }

    #[test]
    fn chaco_rejects_missing_mirror_direction() {
        // Vertex 3's line claims an edge to 1 that vertex 1 never listed.
        let text = "3 2\n2\n1 3\n2 1\n";
        let err = read_chaco(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("(1, 3)"), "{msg}");
        assert!(msg.contains("vertex 1's line"), "{msg}");
    }

    #[test]
    fn chaco_rejects_mismatched_edge_weights() {
        // Edge (1,2) has weight 7 on vertex 1's line, 9 on vertex 2's.
        let text = "2 1 1\n2 7\n1 9\n";
        let err = read_chaco(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("(1, 2)"), "{msg}");
        assert!(msg.contains('7') && msg.contains('9'), "{msg}");
    }

    #[test]
    fn chaco_errors_name_line_and_token() {
        // Vertex 2's line is physical line 3 and carries a garbage token.
        let text = "3 2\n2\nx 3\n2\n";
        let err = read_chaco(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("`x`"), "{msg}");
    }

    #[test]
    fn chaco_bad_header_names_line() {
        // Header is pushed to physical line 3 by a comment and a blank line.
        let text = "% comment\n\nx 2\n";
        let err = read_chaco(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("`x`"), "{msg}");
    }

    #[test]
    fn chaco_weight_errors_name_line() {
        // Edge weight on vertex 2's line (physical line 3) is garbage.
        let text = "2 1 1\n2 7\n1 oops\n";
        let err = read_chaco(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("`oops`"), "{msg}");
    }

    #[test]
    fn mm_errors_name_line_and_token() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\nq 1\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 4"), "{msg}");
        assert!(msg.contains("`q`"), "{msg}");
    }

    #[test]
    fn mm_bad_size_line_names_line() {
        // Size line lands on physical line 3 behind a comment.
        let text = "%%MatrixMarket matrix coordinate pattern general\n% c\n2 2\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("rows cols nnz"), "{msg}");
    }

    #[test]
    fn matrix_market_round_trips_structure() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(3, 4)
            .add_edge(4, 0);
        let g = b.build();
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let g2 = read_matrix_market(&buf[..]).unwrap();
        // Weights are structural (units), so the graphs are fully equal.
        assert_eq!(g, g2);
    }

    #[test]
    fn mm_rejects_rectangular() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn chaco_rejects_non_positive_edge_weights() {
        // Both copies agree, so only the weight itself is wrong.
        for text in ["2 1 1\n2 0\n1 0\n", "2 1 1\n2 -3\n1 -3\n"] {
            let err = read_chaco(text.as_bytes()).unwrap_err();
            let msg = err.to_string();
            assert!(matches!(err, IoError::Parse(_)), "{msg}");
            assert!(
                msg.contains("line 2") && msg.contains("not positive"),
                "{msg}"
            );
        }
    }

    #[test]
    fn chaco_rejects_non_positive_vertex_weights() {
        let text = "3 2 10\n1 2\n0 1 3\n1 2\n";
        let err = read_chaco(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, IoError::Parse(_)), "{msg}");
        assert!(msg.contains("line 3") && msg.contains("vertex 2"), "{msg}");
    }

    #[test]
    fn readers_reject_vertex_counts_beyond_u32_ids() {
        let mm = "%%MatrixMarket matrix coordinate pattern general\n% c\n4294967296 4294967296 0\n";
        let msg = read_matrix_market(mm.as_bytes()).unwrap_err().to_string();
        assert!(msg.contains("line 3") && msg.contains("u32"), "{msg}");
        // `Vid::MAX` itself is reserved, as `GraphBuilder::new` requires.
        let mm = "%%MatrixMarket matrix coordinate pattern general\n4294967295 4294967295 0\n";
        let msg = read_matrix_market(mm.as_bytes()).unwrap_err().to_string();
        assert!(msg.contains("line 2") && msg.contains("u32"), "{msg}");
        let msg = read_chaco("4294967295 0\n".as_bytes())
            .unwrap_err()
            .to_string();
        assert!(msg.contains("line 1") && msg.contains("u32"), "{msg}");
    }

    #[test]
    fn short_inputs_cannot_reserve_what_their_headers_claim() {
        // Reserving 2·10¹² adjacency entries (or 10¹² MatrixMarket pairs)
        // would abort the process; capped by the input length, these fail
        // as ordinary parse errors.
        let msg = read_chaco("4000000000 1000000000000\n2\n".as_bytes())
            .unwrap_err()
            .to_string();
        assert!(msg.contains("only 1 of 4000000000 vertex lines"), "{msg}");
        let msg = read_chaco("3 1000000000000\n2\n1\n\n".as_bytes())
            .unwrap_err()
            .to_string();
        assert!(msg.contains("header claims 1000000000000 edges"), "{msg}");
        let mm = "%%MatrixMarket matrix coordinate pattern general\n2 2 1000000000000\n1 2\n";
        let msg = read_matrix_market(mm.as_bytes()).unwrap_err().to_string();
        assert!(msg.contains("header claims 1000000000000 entries"), "{msg}");
    }

    #[test]
    fn chaco_folds_parallel_entries_and_checks_them_as_multisets() {
        // Edge (1,2) twice with weights 2 and 5 on both lines, listed in
        // different orders: one edge of weight 7, counted once in `m`.
        let g = read_chaco("2 1 1\n2 5 2 2\n1 2 1 5\n".as_bytes()).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weights(0), &[7]);
        // Weights {2, 5} against {2, 2}: a weight mismatch on line 3.
        let err = read_chaco("2 1 1\n2 5 2 2\n1 2 1 2\n".as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3") && msg.contains("(1, 2)"), "{msg}");
        assert!(msg.contains("has weight 5"), "{msg}");
    }

    #[test]
    fn integer_parsing_matches_std() {
        for tok in [
            "0",
            "7",
            "+7",
            "-7",
            "",
            "+",
            "-",
            "1x",
            "00012",
            "18446744073709551615",
            "18446744073709551616",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "+-1",
            "٣",
        ] {
            assert_eq!(
                parse_usize(tok.as_bytes()),
                tok.parse().ok(),
                "usize `{tok}`"
            );
            assert_eq!(parse_wgt(tok.as_bytes()), tok.parse().ok(), "i64 `{tok}`");
        }
    }
}
