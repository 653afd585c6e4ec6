//! Extension experiment — direct k-way greedy refinement on top of
//! recursive bisection (the paper's follow-up direction): cut reduction
//! and cost of the sweep across the table workloads.
//!
//! Exits 1 if the sweep raises any row's cut above its recursive-bisection
//! cut, or leaves a part heavier than both the balance bound and the part's
//! starting weight.
//!
//! ```sh
//! cargo run --release -p mlgp-bench --bin kwayref [--scale F] [--keys A,B] [--parts 32]
//! ```

use mlgp_bench::{group_thousands, timed, BenchOpts};
use mlgp_graph::generators::table_rows;
use mlgp_part::{
    fragmentation, kway_partition, kway_refine_greedy, part_weights, KwayRefineOptions, MlConfig,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = BenchOpts::from_args();
    let k = opts
        .parts
        .as_ref()
        .and_then(|p| p.first().copied())
        .unwrap_or(32);
    opts.banner(&format!(
        "Direct {k}-way greedy refinement after recursive bisection (extension)"
    ));
    println!(
        "{:<6} {:>12} {:>12} {:>8} {:>9} {:>10} {:>10}",
        "key", "RB cut", "+sweep", "gain", "sweep(s)", "frag before", "frag after"
    );
    let sweep = KwayRefineOptions::default();
    let mut tot = [0f64; 2];
    let mut failures = Vec::new();
    for key in opts.select(&table_rows()) {
        let (_, g) = opts.graph(key);
        let base = kway_partition(&g, k, &MlConfig::default());
        let frag_before = fragmentation(&g, &base.part, k);
        let mut part = base.part.clone();
        let (refined, secs) = timed(|| kway_refine_greedy(&g, &mut part, k, &sweep));
        if refined > base.edge_cut {
            failures.push(format!(
                "{key}: the sweep raised the cut {} -> {refined}",
                base.edge_cut
            ));
        }
        let ub = (g.total_vwgt() as f64 / k as f64 * sweep.imbalance).ceil() as i64;
        let before = part_weights(&g, &base.part, k);
        for (p, (&w, &w0)) in part_weights(&g, &part, k).iter().zip(&before).enumerate() {
            if w > ub.max(w0) {
                failures.push(format!(
                    "{key}: part {p} ends at weight {w}, above both the bound {ub} and its start {w0}"
                ));
            }
        }
        let frag_after = fragmentation(&g, &part, k);
        let gain = 100.0 * (base.edge_cut - refined) as f64 / base.edge_cut.max(1) as f64;
        tot[0] += base.edge_cut as f64;
        tot[1] += refined as f64;
        println!(
            "{:<6} {:>12} {:>12} {:>7.1}% {:>9.3} {:>10} {:>10}",
            key,
            group_thousands(base.edge_cut),
            group_thousands(refined),
            gain,
            secs,
            frag_before,
            frag_after
        );
    }
    println!(
        "\ntotal: {} -> {} ({:.1}% cut reduction from the sweep)",
        group_thousands(tot[0] as i64),
        group_thousands(tot[1] as i64),
        100.0 * (tot[0] - tot[1]) / tot[0].max(1.0)
    );
    for f in &failures {
        eprintln!("FAIL {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
