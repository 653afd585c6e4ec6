//! Figure 2 — quality of our multilevel algorithm vs MSB with Kernighan-Lin
//! refinement (MSB-KL): cut-size ratio for 64/128/256 parts.
//!
//! ```sh
//! cargo run --release -p mlgp-bench --bin fig2 [--scale F] [--keys A,B] [--parts 64,128,256]
//! ```

use mlgp_bench::{run_quality_figure, BenchOpts};
use mlgp_spectral::msb_kl_kway;

fn main() {
    let opts = BenchOpts::from_args();
    run_quality_figure(&opts, "MSB-KL", &msb_kl_kway);
}
