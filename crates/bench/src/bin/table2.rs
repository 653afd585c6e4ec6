//! Table 2 — matching schemes during coarsening: 32-way edge-cut, CTime and
//! UTime for RM / HEM / LEM / HCM (GGGP initial partitioning and BKLGR
//! refinement fixed, as in the paper).
//!
//! ```sh
//! cargo run --release -p mlgp-bench --bin table2 [--scale F] [--keys A,B]
//! ```

use mlgp_bench::{finish_or_exit, group_thousands, timed, BenchOpts};
use mlgp_graph::generators::table_rows;
use mlgp_part::{kway_partition_traced, MatchingScheme, MlConfig};
use mlgp_trace::{Trace, SPAN_COARSEN, SPAN_INIT, SPAN_PROJECT, SPAN_REFINE};

fn main() {
    let opts = BenchOpts::from_args();
    let mut sink = opts.json_sink();
    opts.banner("Table 2: performance of matching schemes (32-way, GGGP + BKLGR)");
    print!("{:<6}", "");
    for m in MatchingScheme::all() {
        print!("{:>12} {:>7} {:>7}", m.abbrev(), "", "");
    }
    println!();
    print!("{:<6}", "");
    for _ in MatchingScheme::all() {
        print!("{:>12} {:>7} {:>7}", "32EC", "CTime", "UTime");
    }
    println!();
    for key in opts.select(&table_rows()) {
        let (_, g) = opts.graph(key);
        print!("{key:<6}");
        for m in MatchingScheme::all() {
            let cfg = MlConfig {
                matching: m,
                ..MlConfig::default()
            };
            let trace = Trace::enabled();
            let (r, secs) = timed(|| kway_partition_traced(&g, 32, &cfg, &trace));
            let span = |path| trace.span_total(path).unwrap_or_default().as_secs_f64();
            let (ctime, itime, rtime, ptime) = (
                span(SPAN_COARSEN),
                span(SPAN_INIT),
                span(SPAN_REFINE),
                span(SPAN_PROJECT),
            );
            print!(
                "{:>12} {:>7.2} {:>7.2}",
                group_thousands(r.edge_cut),
                ctime,
                itime + rtime + ptime
            );
            sink.row(|o| {
                o.field_str("bench", "table2");
                o.field_str("key", key);
                o.field_str("matching", m.abbrev());
                o.field_usize("k", 32);
                o.field_i64("edge_cut", r.edge_cut);
                o.field_f64("secs", secs);
                o.field_f64("ctime_secs", ctime);
                o.field_f64("itime_secs", itime);
                o.field_f64("rtime_secs", rtime);
                o.field_f64("ptime_secs", ptime);
            });
        }
        println!();
    }
    println!("\nUTime = ITime + RTime + PTime, summed over all bisections of the recursion.");
    finish_or_exit(sink);
}
