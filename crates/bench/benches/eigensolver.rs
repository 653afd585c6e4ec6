//! Criterion: the spectral substrate — dense Jacobi Fiedler, Lanczos, and
//! the multilevel (interpolate + RQI) Fiedler computation.

use criterion::{criterion_group, criterion_main, Criterion};
use mlgp_graph::generators::{grid2d, tri_mesh2d};
use mlgp_linalg::{fiedler_dense, lanczos_fiedler, LanczosOptions, Laplacian};
use mlgp_spectral::msb_fiedler;
use std::hint::black_box;

fn bench_eigen(c: &mut Criterion) {
    let small = grid2d(10, 10);
    let medium = tri_mesh2d(50, 50, 3);
    let mut group = c.benchmark_group("fiedler");
    group.sample_size(10);
    group.bench_function("dense_jacobi_100", |b| {
        b.iter(|| black_box(fiedler_dense(&small)))
    });
    group.bench_function("lanczos_2500", |b| {
        let lap = Laplacian::new(&medium);
        b.iter(|| black_box(lanczos_fiedler(&lap, &LanczosOptions::default()).lambda))
    });
    group.bench_function("multilevel_rqi_2500", |b| {
        b.iter(|| black_box(msb_fiedler(&medium, 777)))
    });
    group.finish();
}

criterion_group!(benches, bench_eigen);
criterion_main!(benches);
