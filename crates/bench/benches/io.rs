//! Criterion: graph ingest (`mlgp_graph::io`) at kernel granularity, with
//! byte throughput, so a parsing regression shows up without the
//! partitioner around it.
//!
//! * `io_mesh2d_25k` — a 25k-vertex triangle mesh (≈ 6 entries a row);
//! * `io_stiffness_24k` — a 29³ 27-point stiffness grid (≈ 26 a row).
//!
//! Each group reads the same graph as Chaco text (fmt `11`, what
//! `write_chaco` emits) and as a symmetric MatrixMarket pattern file.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mlgp_graph::generators::{stiffness3d, tri_mesh2d};
use mlgp_graph::io::{read_chaco, read_matrix_market, write_chaco, write_matrix_market};
use mlgp_graph::CsrGraph;
use std::hint::black_box;

fn bench_formats(c: &mut Criterion, group: &str, g: &CsrGraph) {
    let mut chaco = Vec::new();
    write_chaco(g, &mut chaco).expect("writing to memory cannot fail");
    let mut mtx = Vec::new();
    write_matrix_market(g, &mut mtx).expect("writing to memory cannot fail");
    let mut group = c.benchmark_group(group);
    group.sample_size(20);
    group.throughput(Throughput::Bytes(chaco.len() as u64));
    group.bench_function("chaco", |b| {
        b.iter(|| black_box(read_chaco(chaco.as_slice()).expect("valid Chaco")))
    });
    group.throughput(Throughput::Bytes(mtx.len() as u64));
    group.bench_function("matrix_market", |b| {
        b.iter(|| black_box(read_matrix_market(mtx.as_slice()).expect("valid MatrixMarket")))
    });
    group.finish();
}

fn bench_io(c: &mut Criterion) {
    bench_formats(c, "io_mesh2d_25k", &tri_mesh2d(158, 158, 7));
    bench_formats(c, "io_stiffness_24k", &stiffness3d(29, 29, 29));
}

criterion_group!(benches, bench_io);
criterion_main!(benches);
