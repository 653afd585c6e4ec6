//! # mlgp-part
//!
//! The paper's primary contribution: multilevel graph bisection with
//! heavy-edge coarsening and boundary Kernighan-Lin refinement, plus k-way
//! partitioning by recursive bisection.
//!
//! The three phases are independently configurable through [`MlConfig`],
//! exactly spanning the design space the paper evaluates:
//!
//! * coarsening matchings: RM / HEM / LEM / HCM (§3.1);
//! * coarsest-graph partitioners: GGP / GGGP / spectral (§3.2);
//! * refinement policies: GR / KLR / BGR / BKLR / BKLGR (§3.3).
//!
//! ```
//! use mlgp_part::{bisect, kway_partition, MlConfig};
//! let g = mlgp_graph::generators::grid2d(32, 32);
//! let two = bisect(&g, &MlConfig::default());
//! assert!(two.cut <= 48);
//! let eight = kway_partition(&g, 8, &MlConfig::default());
//! assert_eq!(eight.part.iter().max(), Some(&7));
//! ```

pub mod bisect;
pub mod coarsen;
pub mod config;
pub mod contract;
pub mod initpart;
pub mod kway;
pub mod kwayrefine;
pub mod matching;
pub mod metrics;
pub mod refine;
pub mod report;

pub use bisect::{bisect, bisect_targets, bisect_targets_traced, bisect_traced, BisectionResult};
pub use coarsen::{coarsen, coarsen_traced, Hierarchy};
pub use config::{InitialPartitioning, MatchingScheme, MlConfig, RefinementPolicy};
pub use contract::{contract, contract_threads, ContractStats, Contraction};
pub use initpart::{initial_partition, initial_partition_traced};
pub use kway::{kway_partition, kway_partition_traced, KwayResult};
pub use kwayrefine::{
    kway_partition_refined, kway_partition_refined_traced, kway_refine_greedy, kway_refine_stats,
    KwayRefineOptions, KwayRefineStats,
};
pub use matching::{compute_matching, compute_matching_threads, MatchStats, Matching};
pub use metrics::{
    boundary_count, communication_volume, edge_cut_bisection, edge_cut_kway, fragmentation,
    imbalance, part_weights,
};
pub use refine::{refine_level, refine_level_stats, BalanceTargets, BisectState, RefineStats};
pub use report::PartitionReport;

#[cfg(test)]
mod kway_extra_tests;
