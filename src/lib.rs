//! # mlgp — Multilevel Graph Partitioning Schemes
//!
//! A from-scratch Rust reproduction of Karypis & Kumar, *"Multilevel Graph
//! Partitioning Schemes"*, ICPP 1995 — the paper that became METIS.
//!
//! The facade re-exports the whole workspace:
//!
//! * [`graph`] — weighted CSR graphs, I/O, generators ([`mlgp_graph`]);
//! * [`linalg`] — eigensolvers for the spectral methods ([`mlgp_linalg`]);
//! * [`part`] — multilevel bisection / k-way partitioning, the paper's
//!   contribution ([`mlgp_part`]);
//! * [`spectral`] — MSB, MSB-KL and Chaco-ML baselines ([`mlgp_spectral`]);
//! * [`geom`] — geometric baselines: RCB, inertial, randomized separators
//!   ([`mlgp_geom`]);
//! * [`order`] — MLND / SND / MMD fill-reducing orderings and symbolic
//!   factorization analysis ([`mlgp_order`]);
//! * [`trace`] — the observability layer: phase spans, per-level telemetry,
//!   counters, JSONL export ([`mlgp_trace`]).
//!
//! ## Quickstart
//!
//! ```
//! use mlgp::prelude::*;
//!
//! // A 3D tetrahedral-like FEM mesh, as in the paper's test suite.
//! let g = mlgp::graph::generators::tet_mesh3d(12, 12, 12, 42);
//!
//! // Partition it into 8 parts for 8 processors.
//! let parts = kway_partition(&g, 8, &MlConfig::default());
//! assert!(imbalance(&g, &parts.part, 8) < 1.10);
//!
//! // Order it for sparse Cholesky factorization.
//! let perm = mlnd_order(&g);
//! let stats = analyze_ordering(&g, &perm);
//! assert!(stats.nnz_l > g.n() as u64);
//! ```

pub use mlgp_geom as geom;
pub use mlgp_graph as graph;
pub use mlgp_linalg as linalg;
pub use mlgp_order as order;
pub use mlgp_part as part;
pub use mlgp_spectral as spectral;
pub use mlgp_trace as trace;

/// Convenient single-import surface for the common entry points.
pub mod prelude {
    pub use mlgp_geom::{inertial_partition, rcb_partition, sphere_kway, SphereConfig};
    pub use mlgp_graph::{CsrGraph, GraphBuilder, Permutation, Vid, Wgt};
    pub use mlgp_order::{analyze_ordering, mlnd_order, mmd_order, snd_order, SymbolicStats};
    pub use mlgp_part::{
        bisect, edge_cut_kway, imbalance, kway_partition, InitialPartitioning, MatchingScheme,
        MlConfig, RefinementPolicy,
    };
    pub use mlgp_part::{kway_partition_refined, kway_refine_greedy};
    pub use mlgp_spectral::{chaco_ml_kway, msb_kl_kway, msb_kway};
    pub use mlgp_trace::Trace;
}
