//! Figure 1 — quality of our multilevel algorithm vs multilevel spectral
//! bisection (MSB): cut-size ratio for 64-, 128- and 256-way partitions.
//!
//! ```sh
//! cargo run --release -p mlgp-bench --bin fig1 [--scale F] [--keys A,B] [--parts 64,128,256]
//! ```

use mlgp_bench::{run_quality_figure, BenchOpts};
use mlgp_spectral::msb_kway;

fn main() {
    let opts = BenchOpts::from_args();
    run_quality_figure(&opts, "MSB", &msb_kway);
}
