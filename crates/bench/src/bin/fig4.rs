//! Figure 4 — runtime of Chaco-ML, MSB and MSB-KL **relative to** our
//! multilevel algorithm, for a 256-way partition.
//!
//! ```sh
//! cargo run --release -p mlgp-bench --bin fig4 [--scale F] [--keys A,B] [--parts 256]
//! ```

use mlgp_bench::{timed, BenchOpts};
use mlgp_graph::generators::figure_rows;
use mlgp_part::{kway_partition, MlConfig};
use mlgp_spectral::{chaco_ml_kway, msb_kl_kway, msb_kway};

fn main() {
    let opts = BenchOpts::from_args();
    let k = opts
        .parts
        .as_ref()
        .and_then(|p| p.first().copied())
        .unwrap_or(256);
    opts.banner(&format!(
        "Figure 4: time to find a {k}-way partition relative to our multilevel algorithm"
    ));
    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "key", "ours(s)", "chaco(s)", "msb(s)", "msbkl(s)", "chaco/x", "msb/x", "msbkl/x"
    );
    let mut sums = [0.0f64; 3];
    let mut rows_done = 0usize;
    for key in opts.select(&figure_rows()) {
        let (_, g) = opts.graph(key);
        let (_, ours) = timed(|| kway_partition(&g, k, &MlConfig::default()));
        let (_, chaco) = timed(|| chaco_ml_kway(&g, k, 1919));
        let (_, msb) = timed(|| msb_kway(&g, k, 777));
        let (_, msbkl) = timed(|| msb_kl_kway(&g, k, 777));
        println!(
            "{:<6} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.1} {:>9.1} {:>9.1}",
            key,
            ours,
            chaco,
            msb,
            msbkl,
            chaco / ours,
            msb / ours,
            msbkl / ours
        );
        sums[0] += chaco / ours;
        sums[1] += msb / ours;
        sums[2] += msbkl / ours;
        rows_done += 1;
    }
    if rows_done > 0 {
        println!(
            "\nmean slowdown vs ours: Chaco-ML {:.1}x, MSB {:.1}x, MSB-KL {:.1}x",
            sums[0] / rows_done as f64,
            sums[1] / rows_done as f64,
            sums[2] / rows_done as f64
        );
        println!("(paper: Chaco-ML ~2-6x, MSB 10-35x, MSB-KL higher still)");
    }
}
