//! The workload suite: synthetic stand-ins for every matrix in Table 1 of
//! the paper.
//!
//! Each entry names its paper analogue, records the paper's order/nonzero
//! counts for reporting, and generates a deterministic graph of the same
//! class and size. See DESIGN.md §2 for the substitution rationale. Entries
//! support down-scaling (`generate_scaled`) so the full table/figure harness
//! can also be smoke-tested quickly.

use super::{grid, lp, mesh, network};
use crate::csr::{CsrGraph, Vid};

/// Which generator an entry uses, with its full-scale parameters.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// 2D graded L-shape (side length).
    LShape(usize),
    /// 27-point 3D stiffness grid.
    Stiffness(usize, usize, usize),
    /// 27-point 3D stiffness grid, x-periodic (cylinders/shells).
    StiffnessWrapped(usize, usize, usize),
    /// Power transmission network (n).
    PowerGrid(usize),
    /// Irregular 2D triangulation.
    Tri2d(usize, usize),
    /// Irregular 3D tetrahedral-like mesh.
    Tet3d(usize, usize, usize),
    /// Preferential-attachment circuit (n, edges per vertex).
    PowerLaw(usize, usize),
    /// Hierarchical LP (blocks, block size).
    Lp(usize, usize),
    /// 9-point 2D grid (CFD).
    Grid9(usize, usize),
    /// Road network grid.
    Road(usize, usize),
}

/// One row of the workload suite (≙ one row of the paper's Table 1).
#[derive(Clone, Copy, Debug)]
pub struct SuiteEntry {
    /// Short key used throughout the paper's tables (e.g. `BC31`).
    pub key: &'static str,
    /// Full matrix name in the paper (e.g. `BCSSTK31`).
    pub paper_name: &'static str,
    /// The paper's description column.
    pub description: &'static str,
    /// Matrix order reported in Table 1.
    pub paper_order: usize,
    /// Nonzero count reported in Table 1.
    pub paper_nonzeros: usize,
    kind: Kind,
    seed: u64,
}

impl SuiteEntry {
    /// Generate the full-scale graph for this entry.
    pub fn generate(&self) -> CsrGraph {
        self.generate_scaled(1.0)
    }

    /// Generate a linearly down-scaled instance: the vertex count is
    /// approximately `scale * paper_order` (dimensions shrink by the
    /// appropriate root). `scale` is clamped so every generator stays above
    /// its minimum size. Callers taking a scale from a user check it with
    /// [`check_scale`] first.
    pub fn generate_scaled(&self, scale: f64) -> CsrGraph {
        match self.scaled(scale) {
            Kind::LShape(n) => grid::lshape(n),
            Kind::Stiffness(x, y, z) => grid::stiffness3d(x, y, z),
            Kind::StiffnessWrapped(x, y, z) => grid::stiffness3d_wrapped(x, y, z),
            Kind::PowerGrid(n) => network::powergrid(n, self.seed),
            Kind::Tri2d(x, y) => mesh::tri_mesh2d(x, y, self.seed),
            Kind::Tet3d(x, y, z) => mesh::tet_mesh3d(x, y, z, self.seed),
            Kind::PowerLaw(n, m) => network::powerlaw(n, m, self.seed),
            Kind::Lp(blocks, size) => lp::hierarchical_lp(blocks, size, self.seed),
            Kind::Grid9(x, y) => grid::grid2d_9pt(x, y, false),
            Kind::Road(x, y) => network::roadnet(x, y, self.seed),
        }
    }

    /// The generator parameters of the instance at `scale`.
    fn scaled(&self, scale: f64) -> Kind {
        let s1 = scale.max(1e-4);
        let s2 = s1.sqrt();
        let s3 = s1.cbrt();
        let d2 = |v: usize| ((v as f64 * s2).round() as usize).max(4);
        let d3 = |v: usize| ((v as f64 * s3).round() as usize).max(3);
        let d1 = |v: usize| ((v as f64 * s1).round() as usize).max(16);
        match self.kind {
            Kind::LShape(n) => Kind::LShape((d2(n) / 2 * 2).max(4)),
            Kind::Stiffness(x, y, z) => Kind::Stiffness(d3(x), d3(y), d3(z)),
            // Thin shell (SHELL93): scale the surface dimensions only,
            // keeping the through-thickness layer count.
            Kind::StiffnessWrapped(x, y, z) if z <= 4 => {
                Kind::StiffnessWrapped(d2(x).max(3), d2(y), z)
            }
            Kind::StiffnessWrapped(x, y, z) => Kind::StiffnessWrapped(d3(x).max(3), d3(y), d3(z)),
            Kind::PowerGrid(n) => Kind::PowerGrid(d1(n)),
            Kind::Tri2d(x, y) => Kind::Tri2d(d2(x), d2(y)),
            Kind::Tet3d(x, y, z) => Kind::Tet3d(d3(x), d3(y), d3(z)),
            Kind::PowerLaw(n, m) => Kind::PowerLaw(d1(n), m),
            Kind::Lp(blocks, size) => Kind::Lp(d1(blocks).max(2), size.max(4)),
            Kind::Grid9(x, y) => Kind::Grid9(d2(x), d2(y)),
            Kind::Road(x, y) => Kind::Road(d2(x), d2(y)),
        }
    }
}

impl Kind {
    /// Vertices of the generated graph, as a float so that saturated
    /// dimensions cannot overflow the product.
    fn vertices(self) -> f64 {
        let f = |v: usize| v as f64;
        match self {
            Kind::LShape(n) => 0.75 * f(n) * f(n),
            Kind::Stiffness(x, y, z) | Kind::StiffnessWrapped(x, y, z) | Kind::Tet3d(x, y, z) => {
                f(x) * f(y) * f(z)
            }
            Kind::PowerGrid(n) | Kind::PowerLaw(n, _) => f(n),
            Kind::Tri2d(x, y) | Kind::Grid9(x, y) | Kind::Road(x, y) | Kind::Lp(x, y) => {
                f(x) * f(y)
            }
        }
    }
}

/// Check a user-supplied suite scale: it must be finite and positive, and
/// small enough that every suite entry's vertex count fits a [`Vid`].
/// Returns the scale, or a message saying why it is refused.
pub fn check_scale(scale: f64) -> Result<f64, String> {
    if !(scale.is_finite() && scale > 0.0) {
        return Err(format!(
            "scale must be a finite positive number, got {scale}"
        ));
    }
    for e in suite() {
        let n = e.scaled(scale).vertices();
        if n > Vid::MAX as f64 {
            return Err(format!(
                "scale {scale} would give {} about {n:.3e} vertices, more than a vertex id can index",
                e.key
            ));
        }
    }
    Ok(scale)
}

/// The full 24-entry suite mirroring Table 1, sorted by key.
pub fn suite() -> &'static [SuiteEntry] {
    const S: &[SuiteEntry] = &[
        SuiteEntry {
            key: "4ELT",
            paper_name: "4ELT",
            description: "2D finite element mesh",
            paper_order: 15606,
            paper_nonzeros: 45878,
            kind: Kind::Tri2d(125, 125),
            seed: 0x4e17,
        },
        SuiteEntry {
            key: "BC28",
            paper_name: "BCSSTK28",
            description: "solid element model",
            paper_order: 4410,
            paper_nonzeros: 107307,
            kind: Kind::Stiffness(17, 16, 16),
            seed: 28,
        },
        SuiteEntry {
            key: "BC29",
            paper_name: "BCSSTK29",
            description: "3D stiffness matrix",
            paper_order: 13992,
            paper_nonzeros: 302748,
            kind: Kind::Stiffness(24, 24, 24),
            seed: 29,
        },
        SuiteEntry {
            key: "BC30",
            paper_name: "BCSSTK30",
            description: "3D stiffness matrix",
            paper_order: 28294,
            paper_nonzeros: 1007284,
            kind: Kind::Stiffness(31, 31, 30),
            seed: 30,
        },
        SuiteEntry {
            key: "BC31",
            paper_name: "BCSSTK31",
            description: "3D stiffness matrix",
            paper_order: 35588,
            paper_nonzeros: 572914,
            kind: Kind::Stiffness(33, 33, 33),
            seed: 31,
        },
        SuiteEntry {
            key: "BC32",
            paper_name: "BCSSTK32",
            description: "3D stiffness matrix",
            paper_order: 44609,
            paper_nonzeros: 985046,
            kind: Kind::Stiffness(36, 35, 35),
            seed: 32,
        },
        SuiteEntry {
            key: "BC33",
            paper_name: "BCSSTK33",
            description: "3D stiffness matrix",
            paper_order: 8738,
            paper_nonzeros: 291583,
            kind: Kind::Stiffness(21, 21, 20),
            seed: 33,
        },
        SuiteEntry {
            key: "BRCK",
            paper_name: "BRACK2",
            description: "3D finite element mesh",
            paper_order: 62631,
            paper_nonzeros: 366559,
            kind: Kind::Tet3d(40, 40, 39),
            seed: 0xb2,
        },
        SuiteEntry {
            key: "BSP10",
            paper_name: "BCSPWR10",
            description: "Eastern US power network",
            paper_order: 5300,
            paper_nonzeros: 8271,
            kind: Kind::PowerGrid(5300),
            seed: 10,
        },
        SuiteEntry {
            key: "CANT",
            paper_name: "CANT",
            description: "3D stiffness matrix",
            paper_order: 54195,
            paper_nonzeros: 1960797,
            kind: Kind::Stiffness(38, 38, 38),
            seed: 0xca,
        },
        SuiteEntry {
            key: "COPT",
            paper_name: "COPTER2",
            description: "3D finite element mesh",
            paper_order: 55476,
            paper_nonzeros: 352238,
            kind: Kind::Tet3d(38, 38, 38),
            seed: 0xc0,
        },
        SuiteEntry {
            key: "CY93",
            paper_name: "CYLINDER93",
            description: "3D stiffness matrix",
            paper_order: 45594,
            paper_nonzeros: 1786726,
            kind: Kind::StiffnessWrapped(150, 19, 16),
            seed: 93,
        },
        SuiteEntry {
            key: "FINC",
            paper_name: "FINAN512",
            description: "linear programming",
            paper_order: 74752,
            paper_nonzeros: 335872,
            kind: Kind::Lp(512, 146),
            seed: 512,
        },
        SuiteEntry {
            key: "INPR",
            paper_name: "INPRO1",
            description: "3D stiffness matrix",
            paper_order: 46949,
            paper_nonzeros: 1117809,
            kind: Kind::Stiffness(36, 36, 36),
            seed: 0x1a,
        },
        SuiteEntry {
            key: "LHR",
            paper_name: "LHR71",
            description: "3D coefficient matrix",
            paper_order: 70304,
            paper_nonzeros: 1528092,
            kind: Kind::Tet3d(41, 41, 42),
            seed: 71,
        },
        SuiteEntry {
            key: "LS34",
            paper_name: "LSHP3466",
            description: "graded L-shape pattern",
            paper_order: 3466,
            paper_nonzeros: 10215,
            kind: Kind::LShape(68),
            seed: 34,
        },
        SuiteEntry {
            key: "MAP",
            paper_name: "MAP",
            description: "highway network",
            paper_order: 267241,
            paper_nonzeros: 937103,
            kind: Kind::Road(517, 517),
            seed: 0x3a9,
        },
        SuiteEntry {
            key: "MEM",
            paper_name: "MEMPLUS",
            description: "memory circuit",
            paper_order: 17758,
            paper_nonzeros: 126150,
            kind: Kind::PowerLaw(17758, 3),
            seed: 0x3e3,
        },
        SuiteEntry {
            key: "ROTR",
            paper_name: "ROTOR",
            description: "3D finite element mesh",
            paper_order: 99617,
            paper_nonzeros: 662431,
            kind: Kind::Tet3d(47, 46, 46),
            seed: 0x40,
        },
        SuiteEntry {
            key: "S38",
            paper_name: "S38584.1",
            description: "sequential circuit",
            paper_order: 22143,
            paper_nonzeros: 93359,
            kind: Kind::PowerLaw(22143, 2),
            seed: 0x385,
        },
        SuiteEntry {
            key: "SHEL",
            paper_name: "SHELL93",
            description: "3D stiffness matrix",
            paper_order: 181200,
            paper_nonzeros: 2313765,
            kind: Kind::StiffnessWrapped(302, 300, 2),
            seed: 0x93,
        },
        SuiteEntry {
            key: "SHYY",
            paper_name: "SHYY161",
            description: "CFD/Navier-Stokes",
            paper_order: 76480,
            paper_nonzeros: 329762,
            kind: Kind::Grid9(277, 276),
            seed: 161,
        },
        SuiteEntry {
            key: "TROL",
            paper_name: "TROLL",
            description: "3D stiffness matrix",
            paper_order: 213453,
            paper_nonzeros: 5885829,
            kind: Kind::Stiffness(60, 60, 60),
            seed: 0x7011,
        },
        SuiteEntry {
            key: "WAVE",
            paper_name: "WAVE",
            description: "3D finite element mesh",
            paper_order: 156317,
            paper_nonzeros: 1059331,
            kind: Kind::Tet3d(54, 54, 54),
            seed: 0x3a5e,
        },
    ];
    S
}

/// Look up an entry by key.
pub fn entry(key: &str) -> Option<&'static SuiteEntry> {
    suite().iter().find(|e| e.key == key)
}

/// The 12 rows used by Tables 2, 3 and 4 of the paper, in table order.
pub fn table_rows() -> [&'static str; 12] {
    [
        "BC31", "BC32", "BRCK", "CANT", "COPT", "CY93", "4ELT", "INPR", "ROTR", "SHEL", "TROL",
        "WAVE",
    ]
}

/// The 16 bars of Figures 1-4, in figure order.
pub fn figure_rows() -> [&'static str; 16] {
    [
        "BC30", "BC32", "BRCK", "CANT", "COPT", "CY93", "FINC", "LHR", "MAP", "MEM", "ROTR", "S38",
        "SHEL", "SHYY", "TROL", "WAVE",
    ]
}

/// The 18 bars of Figure 5 (ordering quality), in increasing matrix order as
/// the paper displays them.
pub fn fig5_rows() -> [&'static str; 18] {
    [
        "LS34", "BC28", "BSP10", "BC33", "BC29", "4ELT", "BC30", "BC31", "BC32", "CY93", "INPR",
        "CANT", "COPT", "BRCK", "ROTR", "WAVE", "SHEL", "TROL",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::is_connected;

    #[test]
    fn all_rows_resolve() {
        for k in table_rows()
            .iter()
            .chain(figure_rows().iter())
            .chain(fig5_rows().iter())
        {
            assert!(entry(k).is_some(), "missing suite entry {k}");
        }
    }

    #[test]
    fn suite_has_24_unique_keys() {
        let s = suite();
        assert_eq!(s.len(), 24);
        let mut keys: Vec<_> = s.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 24);
    }

    #[test]
    fn scaled_instances_are_valid_and_connected() {
        // Small scale so this test stays fast; every generator is exercised.
        for e in suite() {
            let g = e.generate_scaled(0.02);
            assert!(g.n() > 0, "{} empty", e.key);
            assert!(g.validate().is_ok(), "{} invalid", e.key);
            assert!(is_connected(&g), "{} disconnected", e.key);
        }
    }

    #[test]
    fn full_scale_order_is_close_to_paper() {
        // Cheap entries only (the big ones are exercised by the harness).
        for key in ["LS34", "BC28", "BSP10"] {
            let e = entry(key).unwrap();
            let g = e.generate();
            let ratio = g.n() as f64 / e.paper_order as f64;
            assert!(
                (0.8..1.25).contains(&ratio),
                "{key}: n={} paper={}",
                g.n(),
                e.paper_order
            );
        }
    }

    #[test]
    fn scaled_vertex_counts_match_the_generators() {
        for scale in [0.02, 0.1] {
            for e in suite() {
                let n = e.generate_scaled(scale).n();
                assert_eq!(e.scaled(scale).vertices(), n as f64, "{} @{scale}", e.key);
            }
        }
    }

    #[test]
    fn check_scale_refuses_what_cannot_be_generated() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0, -0.0] {
            let err = check_scale(bad).unwrap_err();
            assert!(err.contains("finite positive"), "{bad}: {err}");
        }
        for huge in [1e12, 1e6, f64::MAX] {
            let err = check_scale(huge).unwrap_err();
            assert!(err.contains("vertex id"), "{huge}: {err}");
        }
        for fine in [1e-9, 0.05, 1.0, 100.0] {
            assert_eq!(check_scale(fine), Ok(fine));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let e = entry("4ELT").unwrap();
        assert_eq!(e.generate_scaled(0.05), e.generate_scaled(0.05));
    }
}
