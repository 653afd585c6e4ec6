//! The paper's motivating application (§1): minimizing communication in
//! parallel sparse matrix-vector multiplication.
//!
//! Partitions the graph of a sparse matrix across `p` processors and
//! compares the communication a parallel SpMV would incur under (a) a naive
//! block partition of the rows, (b) the multilevel partition, and (c) the
//! spectral baseline. Reports per-processor load balance, edge-cut, and
//! total communication volume.
//!
//! ```sh
//! cargo run --release --example parallel_spmv
//! ```

use mlgp::prelude::*;
use mlgp_part::communication_volume;
use std::time::Instant;

fn report(name: &str, g: &CsrGraph, part: &[u32], p: usize, secs: f64) {
    println!(
        "{name:<12} edge-cut {:>8}   comm volume {:>8}   imbalance {:.3}   time {:>7.3}s",
        edge_cut_kway(g, part),
        communication_volume(g, part),
        imbalance(g, part, p),
        secs,
    );
}

fn main() {
    // A 2D CFD-style 9-point grid (SHYY-class, ~76k vertices at full size;
    // scaled down so the example runs in seconds).
    let g = mlgp::graph::generators::grid2d_9pt(160, 160, false);
    let p = 32;
    println!(
        "distributing SpMV of a {}x{} sparse matrix ({} nonzeros) over {p} processors\n",
        g.n(),
        g.n(),
        g.nnz() + g.n()
    );

    // (a) naive block row distribution: rows i*n/p .. (i+1)*n/p per rank.
    let n = g.n();
    let naive: Vec<u32> = (0..n).map(|v| (v * p / n) as u32).collect();
    report("block-rows", &g, &naive, p, 0.0);

    // (b) multilevel k-way partition (this paper).
    let t = Instant::now();
    let ml = kway_partition(&g, p, &MlConfig::default());
    report("multilevel", &g, &ml.part, p, t.elapsed().as_secs_f64());

    // (c) multilevel spectral bisection baseline; its only input besides
    // the graph and p is a seed.
    let t = Instant::now();
    let msb = msb_kway(&g, p, 777);
    report("msb", &g, &msb, p, t.elapsed().as_secs_f64());

    let naive_cut = edge_cut_kway(&g, &naive);
    println!(
        "\nmultilevel cuts {:.1}x less communication than block rows",
        naive_cut as f64 / ml.edge_cut as f64
    );
}
