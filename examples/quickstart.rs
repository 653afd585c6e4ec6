//! Quickstart: partition a mesh and order a sparse matrix in a dozen lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mlgp::prelude::*;
use mlgp::trace::{SPAN_COARSEN, SPAN_INIT, SPAN_PROJECT, SPAN_REFINE};

fn main() {
    // A 3D tetrahedral-like FEM mesh (~13.8k vertices), the kind of graph
    // the paper's evaluation centers on.
    let g = mlgp::graph::generators::tet_mesh3d(24, 24, 24, 42);
    println!(
        "graph: {} vertices, {} edges, avg degree {:.1}",
        g.n(),
        g.m(),
        g.avg_degree()
    );

    // --- k-way partitioning (assign mesh nodes to 16 processors) ---------
    let k = 16;
    let trace = Trace::enabled();
    let result = mlgp::part::kway_partition_traced(&g, k, &MlConfig::default(), &trace);
    println!(
        "\n{k}-way partition: edge-cut = {}, imbalance = {:.3}",
        result.edge_cut,
        imbalance(&g, &result.part, k)
    );
    let ms = |path| trace.span_total(path).unwrap_or_default().as_secs_f64() * 1e3;
    println!(
        "phase times: coarsen {:.0} ms, uncoarsen {:.0} ms",
        ms(SPAN_COARSEN),
        ms(SPAN_INIT) + ms(SPAN_REFINE) + ms(SPAN_PROJECT)
    );

    // --- fill-reducing ordering (sparse Cholesky) -------------------------
    let perm = mlnd_order(&g);
    let nd = analyze_ordering(&g, &perm);
    let natural = analyze_ordering(&g, &Permutation::identity(g.n()));
    println!(
        "\nnested dissection ordering: nnz(L) = {:.2}M, opcount = {:.2e} \
         ({}x fewer ops than natural order)",
        nd.nnz_l as f64 / 1e6,
        nd.opcount,
        (natural.opcount / nd.opcount).round()
    );
}
