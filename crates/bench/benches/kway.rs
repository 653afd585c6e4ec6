//! Criterion: k-way recursive bisection, our method vs the spectral
//! baselines (the quantity behind Figure 4).

use criterion::{criterion_group, criterion_main, Criterion};
use mlgp_graph::generators::tet_mesh3d;
use mlgp_part::{kway_partition, MlConfig};
use mlgp_spectral::{chaco_ml_kway, msb_kway};
use std::hint::black_box;

fn bench_kway(c: &mut Criterion) {
    let g = tet_mesh3d(16, 16, 16, 5);
    let mut group = c.benchmark_group("kway32_4k_tet");
    group.sample_size(10);
    group.bench_function("multilevel", |b| {
        b.iter(|| black_box(kway_partition(&g, 32, &MlConfig::default()).edge_cut))
    });
    group.bench_function("chaco_ml", |b| {
        b.iter(|| black_box(chaco_ml_kway(&g, 32, 1919)))
    });
    group.bench_function("msb", |b| b.iter(|| black_box(msb_kway(&g, 32, 777))));
    group.finish();
}

criterion_group!(benches, bench_kway);
criterion_main!(benches);
