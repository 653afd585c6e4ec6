//! Figure 3 — quality of our multilevel algorithm vs the Chaco multilevel
//! scheme (Chaco-ML): cut-size ratio for 64/128/256 parts.
//!
//! ```sh
//! cargo run --release -p mlgp-bench --bin fig3 [--scale F] [--keys A,B] [--parts 64,128,256]
//! ```

use mlgp_bench::{run_quality_figure, BenchOpts};
use mlgp_spectral::chaco_ml_kway;

fn main() {
    let opts = BenchOpts::from_args();
    run_quality_figure(&opts, "Chaco-ML", &chaco_ml_kway);
}
