//! Differential determinism suite for the spectral stack.
//!
//! PR 2/3 established the determinism contract for the integer kernels
//! (coarsening, uncoarsening); this suite extends it to floating point:
//! with a fixed seed, the Lanczos Fiedler pair, the MSB multilevel
//! Fiedler vector and bisection, spectral nested dissection, and the
//! Chaco-ML baseline are **bit-identical** for every thread count. The
//! guarantee rests on the deterministic chunked-pairwise reductions in
//! `mlgp_linalg::vecops` (fixed 4k-element chunk layout + fixed-shape
//! combination tree), the serial kernels below the recursion forks, and
//! the forks' independence — see DESIGN.md §10.
//!
//! Mirrors `crates/part/tests/determinism.rs`: threads {1, 2, 8} plus an
//! optional `MLGP_THREADS` from the CI thread-matrix job, each run under a
//! pool installed with `with_fanout`.

use mlgp_graph::generators::{lshape, tri_mesh2d};
use mlgp_linalg::{lanczos_fiedler, with_fanout, LanczosOptions, Laplacian};
use mlgp_order::{nested_dissection, NdConfig};
use mlgp_spectral::{chaco_ml_bisect, msb_bisect, msb_fiedler};

/// Thread counts under test: the ISSUE's {1, 2, 8} plus an optional
/// `MLGP_THREADS` override from the CI matrix.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
    if let Ok(v) = std::env::var("MLGP_THREADS") {
        if let Ok(t) = v.trim().parse::<usize>() {
            if t > 0 && !counts.contains(&t) {
                counts.push(t);
            }
        }
    }
    counts
}

/// f64 vectors compared bit-for-bit (NaN-safe, no epsilon).
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn lanczos_fiedler_is_bit_identical_across_thread_counts() {
    // 3600 vertices: above DENSE_FIEDLER_LIMIT, so this is the real
    // Lanczos path with reorthogonalization over the chunked reductions.
    let g = tri_mesh2d(60, 60, 7);
    let opts = LanczosOptions {
        seed: 0xfeed,
        ..LanczosOptions::default()
    };
    let run = |t| with_fanout(t, || lanczos_fiedler(&Laplacian::new(&g), &opts));
    let reference = run(1);
    for &t in &thread_counts()[1..] {
        let r = run(t);
        assert_eq!(
            r.lambda.to_bits(),
            reference.lambda.to_bits(),
            "lambda differs at {t} threads"
        );
        assert_eq!(
            bits(&r.vector),
            bits(&reference.vector),
            "Fiedler vector differs at {t} threads"
        );
        assert_eq!(r.matvecs, reference.matvecs, "matvec count at {t} threads");
    }
}

#[test]
fn lanczos_above_parallel_spmv_threshold_is_thread_invariant() {
    // ~25.6k vertices: large enough that a kernel path chosen by size and
    // pool would run here. Capped steps keep the test quick — convergence
    // is irrelevant here, only bit-identity.
    let g = tri_mesh2d(160, 160, 7);
    let opts = LanczosOptions {
        max_steps: 25,
        max_restarts: 1,
        tol: 1e-6,
        seed: 0x5eed,
    };
    let run = |t| with_fanout(t, || lanczos_fiedler(&Laplacian::new(&g), &opts));
    let reference = run(1);
    for &t in &thread_counts()[1..] {
        let r = run(t);
        assert_eq!(
            bits(&r.vector),
            bits(&reference.vector),
            "Fiedler vector differs at {t} threads"
        );
    }
}

#[test]
fn rayleigh_quotient_is_bit_identical_across_thread_counts() {
    let g = tri_mesh2d(90, 90, 3);
    let x: Vec<f64> = (0..g.n())
        .map(|i| ((i * 37) % 101) as f64 / 17.0 - 2.5)
        .collect();
    let run = |t| with_fanout(t, || Laplacian::new(&g).rayleigh(&x));
    let reference = run(1);
    for &t in &thread_counts()[1..] {
        let rho = run(t);
        assert_eq!(
            rho.to_bits(),
            reference.to_bits(),
            "rayleigh differs at {t} threads"
        );
    }
}

#[test]
fn msb_is_bit_identical_across_thread_counts() {
    // The full multilevel spectral pipeline: RM coarsening, coarsest dense
    // solve, per-level interpolation + RQI (inner MINRES) refinement.
    let g = tri_mesh2d(40, 40, 9);
    let f_ref = with_fanout(1, || msb_fiedler(&g, 777));
    let (p_ref, c_ref) = with_fanout(1, || msb_bisect(&g, 777));
    for &t in &thread_counts()[1..] {
        let f = with_fanout(t, || msb_fiedler(&g, 777));
        assert_eq!(
            bits(&f),
            bits(&f_ref),
            "MSB Fiedler vector differs at {t} threads"
        );
        let (p, c) = with_fanout(t, || msb_bisect(&g, 777));
        assert_eq!(c, c_ref, "MSB cut differs at {t} threads");
        assert_eq!(p, p_ref, "MSB bisection differs at {t} threads");
    }
}

#[test]
fn chaco_ml_is_bit_identical_across_thread_counts() {
    // Chaco-ML routes through the initial-partition trials (spectral
    // initial partitioning on the coarsest graph) plus KL refinement.
    let g = tri_mesh2d(36, 36, 5);
    let run = |t| with_fanout(t, || chaco_ml_bisect(&g, 1919));
    let reference = run(1);
    for &t in &thread_counts()[1..] {
        let r = run(t);
        assert_eq!(r.1, reference.1, "Chaco-ML cut differs at {t} threads");
        assert_eq!(
            r.0, reference.0,
            "Chaco-ML bisection differs at {t} threads"
        );
    }
}

#[test]
fn spectral_nested_dissection_is_bit_identical_across_thread_counts() {
    // SND stacks every layer: recursive forks, MSB bisections (RQI +
    // Lanczos fallback), separator extraction, MMD leaves. Use a small
    // parallel_threshold so the recursion actually forks.
    let g = lshape(40);
    let cfg = NdConfig {
        parallel_threshold: 256,
        ..NdConfig::snd()
    };
    let run = |t| with_fanout(t, || nested_dissection(&g, &cfg));
    let reference = run(1);
    for &t in &thread_counts()[1..] {
        let p = run(t);
        assert_eq!(
            p.perm(),
            reference.perm(),
            "SND ordering differs at {t} threads"
        );
    }
}

#[test]
fn mlnd_with_parallel_trials_is_bit_identical_across_thread_counts() {
    // MLND drives the multilevel bisector, whose initial partitioning now
    // fans trials out in parallel; the ordering must stay a pure function
    // of (graph, config, seed).
    let g = tri_mesh2d(34, 30, 2);
    let cfg = NdConfig {
        parallel_threshold: 256,
        ..NdConfig::mlnd()
    };
    let run = |t| with_fanout(t, || nested_dissection(&g, &cfg));
    let reference = run(1);
    for &t in &thread_counts()[1..] {
        let p = run(t);
        assert_eq!(
            p.perm(),
            reference.perm(),
            "MLND ordering differs at {t} threads"
        );
    }
}
