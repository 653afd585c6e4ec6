//! Deterministic graph generators standing in for the paper's test matrices.
//!
//! The ICPP'95 evaluation draws on finite-element, CFD, VLSI, power-network,
//! linear-programming and road-map graphs (Table 1). Those specific matrices
//! are not redistributable here, so each class is synthesized with matching
//! size and degree structure; [`suite()`] assembles the full 24-entry stand-in
//! suite. All generators are pure functions of their parameters and seed.

pub mod coords;
pub mod grid;
pub mod lp;
pub mod mesh;
pub mod network;
pub mod suite;

pub use coords::{
    grid2d_coords, grid3d_coords, lshape_coords, roadnet_coords, tet_mesh3d_coords,
    tri_mesh2d_coords, Point,
};
pub use grid::{grid2d, grid2d_9pt, grid3d, lshape, stiffness3d, stiffness3d_wrapped};
pub use lp::hierarchical_lp;
pub use mesh::{tet_mesh3d, tri_mesh2d};
pub use network::{powergrid, powerlaw, roadnet};
pub use suite::{check_scale, entry, fig5_rows, figure_rows, suite, table_rows, SuiteEntry};
