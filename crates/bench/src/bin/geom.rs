//! §1 companion experiment — geometric partitioners vs the multilevel
//! scheme on embedded meshes.
//!
//! Reproduces the paper's characterization of the geometric class:
//! "geometric partitioning algorithms tend to be fast but often yield
//! partitions that are worse than those obtained by spectral methods …
//! multiple trials are often required". RCB and inertial are near-instant
//! and cut more on irregular meshes; the randomized-separator scheme closes
//! part of the gap at the cost of its trials. The multilevel scheme cuts
//! least on the irregular 4ELT and WAVE meshes, but RCB's straight cuts
//! beat it on the regular SHYY grid and the LS34 L-shape.
//!
//! ```sh
//! cargo run --release -p mlgp-bench --bin geom [--scale F] [--parts 32]
//! ```

use mlgp_bench::{group_thousands, timed, BenchOpts};
use mlgp_geom::{inertial_partition, rcb_partition, sphere_kway};
use mlgp_graph::generators as gen;
use mlgp_graph::generators::Point;
use mlgp_graph::CsrGraph;
use mlgp_part::{edge_cut_kway, kway_partition, MlConfig};

fn embedded_workloads(scale: f64) -> Vec<(&'static str, CsrGraph, Vec<Point>)> {
    let s2 = scale.sqrt();
    let s3 = scale.cbrt();
    let d2 = |v: usize| ((v as f64 * s2).round() as usize).max(8);
    let d3 = |v: usize| ((v as f64 * s3).round() as usize).max(4);
    let (tx, ty) = (d2(125), d2(125));
    let (wx, wy, wz) = (d3(54), d3(54), d3(54));
    let (gx, gy) = (d2(277), d2(276));
    let ls = (d2(68) / 2 * 2).max(4);
    vec![
        (
            "4ELT",
            gen::tri_mesh2d(tx, ty, 0x4e17),
            gen::tri_mesh2d_coords(tx, ty, 0x4e17),
        ),
        (
            "WAVE",
            gen::tet_mesh3d(wx, wy, wz, 0x3a5e),
            gen::tet_mesh3d_coords(wx, wy, wz, 0x3a5e),
        ),
        (
            "SHYY",
            gen::grid2d_9pt(gx, gy, false),
            gen::grid2d_coords(gx, gy),
        ),
        ("LS34", gen::lshape(ls), gen::lshape_coords(ls)),
    ]
}

fn main() {
    let opts = BenchOpts::from_args();
    let k = opts
        .parts
        .as_ref()
        .and_then(|p| p.first().copied())
        .unwrap_or(32);
    opts.banner(&format!(
        "Geometric vs multilevel partitioning ({k}-way, embedded mesh workloads)"
    ));
    println!(
        "{:<6} {:>9} | {:>10} {:>7} | {:>10} {:>7} | {:>10} {:>7} | {:>10} {:>7}",
        "key", "n", "RCB", "t(s)", "inertial", "t(s)", "rand-sep", "t(s)", "multilevel", "t(s)"
    );
    for (key, g, pts) in embedded_workloads(opts.scale) {
        if let Some(keys) = &opts.keys {
            if !keys.iter().any(|x| x == key) {
                continue;
            }
        }
        let (rcb, t_rcb) = timed(|| rcb_partition(&pts, g.vwgt(), k));
        let (inr, t_inr) = timed(|| inertial_partition(&pts, g.vwgt(), k));
        let (sph, t_sph) = timed(|| sphere_kway(&g, &pts, k, 0x5e7a));
        let (ml, t_ml) = timed(|| kway_partition(&g, k, &MlConfig::default()));
        println!(
            "{:<6} {:>9} | {:>10} {:>7.3} | {:>10} {:>7.3} | {:>10} {:>7.3} | {:>10} {:>7.3}",
            key,
            group_thousands(g.n() as i64),
            group_thousands(edge_cut_kway(&g, &rcb)),
            t_rcb,
            group_thousands(edge_cut_kway(&g, &inr)),
            t_inr,
            group_thousands(edge_cut_kway(&g, &sph)),
            t_sph,
            group_thousands(ml.edge_cut),
            t_ml,
        );
    }
    println!("\n(geometric methods need coordinates: the circuit/LP/network workloads");
    println!("of the suite have none — the applicability limit §1 points out)");
}
