//! End-to-end benchmark of the multilevel partitioner.
//!
//! Two closed-loop workloads drive the public entry points from one
//! client (`request-mix`, `nd-order`); a separate traced run
//! rebuilds each pipeline from the layers' public functions and attributes
//! time to them. See `README.md` beside this crate for the metrics.

pub mod calib;
pub mod run;
pub mod stats;
pub mod sys;
pub mod traced;
pub mod workload;

pub use run::{run, Metric, Options, Report};
pub use workload::Workload;
