//! §4.1 (companion report \[22\]) — initial partitioning algorithms: GGP vs
//! GGGP vs spectral bisection of the coarsest graph, under HEM + BKLGR.
//!
//! The paper summarizes: "GGGP consistently finds smaller edge-cuts than
//! the other schemes at slightly better run time \[and\] there is no
//! advantage in choosing spectral bisection for the coarse graph."
//!
//! ```sh
//! cargo run --release -p mlgp-bench --bin initpart [--scale F] [--keys A,B]
//! ```

use mlgp_bench::{group_thousands, timed, BenchOpts};
use mlgp_graph::generators::table_rows;
use mlgp_part::{kway_partition, InitialPartitioning, MlConfig};

fn main() {
    let opts = BenchOpts::from_args();
    opts.banner("Initial partitioning schemes (32-way, HEM + BKLGR)");
    print!("{:<6}", "");
    for s in InitialPartitioning::all() {
        print!("{:>12} {:>7}", s.abbrev(), "time");
    }
    println!();
    let mut totals = [(0i64, 0.0f64); 3];
    for key in opts.select(&table_rows()) {
        let (_, g) = opts.graph(key);
        print!("{key:<6}");
        for (i, scheme) in InitialPartitioning::all().into_iter().enumerate() {
            let cfg = MlConfig {
                initial: scheme,
                ..MlConfig::default()
            };
            let (r, secs) = timed(|| kway_partition(&g, 32, &cfg));
            totals[i].0 += r.edge_cut;
            totals[i].1 += secs;
            print!("{:>12} {:>7.2}", group_thousands(r.edge_cut), secs);
        }
        println!();
    }
    print!("{:<6}", "total");
    for (cut, secs) in totals {
        print!("{:>12} {:>7.2}", group_thousands(cut), secs);
    }
    println!();
}
