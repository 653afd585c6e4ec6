//! Geometric partitioning (§1's "other class"): RCB, inertial, and
//! randomized separators on an embedded FEM mesh, against the multilevel
//! scheme.
//!
//! ```sh
//! cargo run --release --example geometric_partition
//! ```

use mlgp::graph::generators as gen;
use mlgp::prelude::*;
use std::time::Instant;

fn main() {
    let (nx, ny) = (120, 120);
    let g = gen::tri_mesh2d(nx, ny, 0x4e17);
    let pts = gen::tri_mesh2d_coords(nx, ny, 0x4e17);
    let k = 16;
    println!(
        "irregular 2D mesh: {} vertices, {} edges; k = {k}\n",
        g.n(),
        g.m()
    );
    println!(
        "{:<18} {:>10} {:>10} {:>9}",
        "method", "edge-cut", "imbalance", "time(s)"
    );
    let show = |name: &str, part: Vec<u32>, secs: f64| {
        println!(
            "{name:<18} {:>10} {:>10.3} {:>9.4}",
            edge_cut_kway(&g, &part),
            imbalance(&g, &part, k),
            secs
        );
    };
    let t = Instant::now();
    let p = rcb_partition(&pts, g.vwgt(), k);
    show("coordinate (RCB)", p, t.elapsed().as_secs_f64());
    let t = Instant::now();
    let p = inertial_partition(&pts, g.vwgt(), k);
    show("inertial", p, t.elapsed().as_secs_f64());
    let t = Instant::now();
    let p = sphere_kway(&g, &pts, k, 0x5e7a);
    show("random separators", p, t.elapsed().as_secs_f64());
    let t = Instant::now();
    let p = kway_partition(&g, k, &MlConfig::default()).part;
    show("multilevel", p, t.elapsed().as_secs_f64());
    let t = Instant::now();
    let p = kway_partition_refined(&g, k, &MlConfig::default()).part;
    show("multilevel + kway", p, t.elapsed().as_secs_f64());
    println!("\n(geometric methods are fast but connectivity-blind — the paper's §1)");
}
