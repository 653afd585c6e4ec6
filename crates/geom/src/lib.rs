//! # mlgp-geom
//!
//! The geometric partitioning class the paper discusses in §1 (Heath-
//! Raghavan, Miller-Teng-Vavasis, Nour-Omid et al.): recursive coordinate
//! bisection, inertial bisection, and randomized geometric separators with
//! multiple trials. These algorithms require vertex coordinates — which is
//! exactly their limitation ("geometric graph partitioning algorithms have
//! limited applicability because often the geometric information is not
//! available"); the mesh-class generators in `mlgp-graph` provide
//! embeddings, the circuit/LP/network classes deliberately do not.
//!
//! RCB and inertial bisection split point sets only and share one
//! coordinate recursion (`rcb::median_split`). The randomized separators
//! score their candidates by edge-cut, so they are a graph bisector and
//! reach k parts through `mlgp_part::kway::recursive_kway_with`, the
//! recursion behind multilevel k-way; all three give side 0 of a split into
//! `k` parts `⌈k/2⌉/k` of the weight.
//!
//! ```
//! use mlgp_geom::rcb_partition;
//! use mlgp_graph::generators::{grid2d, grid2d_coords};
//! let g = grid2d(16, 4);
//! let part = rcb_partition(&grid2d_coords(16, 4), g.vwgt(), 2);
//! assert_eq!(mlgp_part::edge_cut_kway(&g, &part), 4); // cuts the short way
//! ```

pub mod inertial;
pub mod rcb;
pub mod sphere;

pub use inertial::inertial_partition;
pub use rcb::rcb_partition;
pub use sphere::{sphere_bisect, sphere_kway};
