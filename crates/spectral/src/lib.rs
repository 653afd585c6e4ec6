//! # mlgp-spectral
//!
//! The spectral partitioning baselines the paper compares against (§4.2):
//!
//! * **MSB** — multilevel spectral bisection (Barnard-Simon): multilevel
//!   Fiedler computation with per-level RQI refinement;
//! * **MSB-KL** — MSB followed by Kernighan-Lin refinement;
//! * **Chaco-ML** — the Hendrickson-Leland multilevel scheme (random
//!   matching + spectral coarse partition + KL every other level).
//!
//! All three are lifted to k-way through `mlgp_part::kway::recursive_kway_with`,
//! the recursion behind multilevel k-way, exactly as the paper's Figures 1-4
//! evaluate them. Each runs at the paper's fixed settings (coarsen to 100
//! vertices, imbalance 1.03), so the only input besides the graph is a
//! seed; the k-way functions seed each bisection with `seed + salt`, where
//! the salt names its recursion path.
//!
//! ```
//! use mlgp_spectral::msb_bisect;
//! let g = mlgp_graph::generators::grid2d(24, 24);
//! let (part, cut) = msb_bisect(&g, 777);
//! assert_eq!(part.len(), g.n());
//! assert!(cut <= 40); // optimal straight cut is 24
//! ```

pub mod chaco;
pub mod msb;

pub use chaco::{chaco_ml_bisect, chaco_ml_bisect_targets, chaco_ml_kway};
pub use msb::{
    msb_bisect, msb_bisect_targets, msb_fiedler, msb_kl_bisect_targets, msb_kl_kway, msb_kway,
};
