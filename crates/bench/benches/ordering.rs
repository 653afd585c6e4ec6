//! Criterion: fill-reducing orderings (MLND vs MMD vs SND) on a 3D
//! stiffness graph (§4.3), and the two ordering kernels they share:
//! separator refinement and symbolic analysis.

use criterion::{criterion_group, criterion_main, Criterion};
use mlgp_graph::generators::stiffness3d;
use mlgp_order::{
    analyze_ordering, mlnd_order, mmd_order, refine_separator, snd_order, vertex_separator,
    SepRefineOptions,
};
use mlgp_part::{bisect, MlConfig};
use std::hint::black_box;

fn bench_ordering(c: &mut Criterion) {
    let g = stiffness3d(12, 12, 12);
    let mut group = c.benchmark_group("order_1.7k_stiffness");
    group.sample_size(10);
    group.bench_function("mlnd", |b| b.iter(|| black_box(mlnd_order(&g))));
    group.bench_function("mmd", |b| b.iter(|| black_box(mmd_order(&g))));
    group.bench_function("snd", |b| b.iter(|| black_box(snd_order(&g))));
    let p = mlnd_order(&g);
    group.bench_function("symbolic_analysis", |b| {
        b.iter(|| black_box(analyze_ordering(&g, &p)))
    });
    // MMD leaves the most fill, so its symbolic analysis is the costliest.
    let p_mmd = mmd_order(&g);
    group.bench_function("symbolic_analysis_mmd", |b| {
        b.iter(|| black_box(analyze_ordering(&g, &p_mmd)))
    });
    // Refinement of the minimum-cover separator of one multilevel
    // bisection; each iteration starts again from the same labels.
    let labels = vertex_separator(&g, &bisect(&g, &MlConfig::default()).part);
    let opts = SepRefineOptions::default();
    group.bench_function("separator_refinement", |b| {
        b.iter(|| {
            let mut l = labels.clone();
            black_box(refine_separator(&g, &mut l, &opts))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ordering);
criterion_main!(benches);
