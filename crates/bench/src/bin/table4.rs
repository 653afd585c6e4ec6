//! Table 4 — refinement policies: 32-way edge-cut and refinement time for
//! GR / KLR / BGR / BKLR / BKLGR (HEM coarsening and GGGP initial
//! partitioning fixed, as in the paper).
//!
//! ```sh
//! cargo run --release -p mlgp-bench --bin table4 [--scale F] [--keys A,B]
//! ```

use mlgp_bench::{finish_or_exit, group_thousands, timed, BenchOpts};
use mlgp_graph::generators::table_rows;
use mlgp_part::{kway_partition_traced, MlConfig, RefinementPolicy};
use mlgp_trace::{Trace, SPAN_REFINE};

fn main() {
    let opts = BenchOpts::from_args();
    let mut sink = opts.json_sink();
    opts.banner("Table 4: performance of refinement policies (32-way, HEM + GGGP)");
    print!("{:<6}", "");
    for r in RefinementPolicy::evaluated() {
        print!("{:>12} {:>7}", r.abbrev(), "RTime");
    }
    println!();
    for key in opts.select(&table_rows()) {
        let (_, g) = opts.graph(key);
        print!("{key:<6}");
        for policy in RefinementPolicy::evaluated() {
            let cfg = MlConfig {
                refinement: policy,
                ..MlConfig::default()
            };
            let trace = Trace::enabled();
            let (r, secs) = timed(|| kway_partition_traced(&g, 32, &cfg, &trace));
            let rtime = trace
                .span_total(SPAN_REFINE)
                .unwrap_or_default()
                .as_secs_f64();
            print!("{:>12} {:>7.2}", group_thousands(r.edge_cut), rtime);
            sink.row(|o| {
                o.field_str("bench", "table4");
                o.field_str("key", key);
                o.field_str("refinement", policy.abbrev());
                o.field_usize("k", 32);
                o.field_i64("edge_cut", r.edge_cut);
                o.field_f64("secs", secs);
                o.field_f64("rtime_secs", rtime);
            });
        }
        println!();
    }
    println!("\nRTime is the refinement phase only, summed over all bisections.");
    finish_or_exit(sink);
}
