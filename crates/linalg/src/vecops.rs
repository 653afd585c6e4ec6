//! Dense vector kernels used by the iterative eigensolvers, built on
//! **deterministic chunked pairwise reductions**.
//!
//! Floating-point addition is not associative, so a reduction's bits
//! depend on the order it adds in. Every reduction here adds in one fixed
//! order, a function of the input length alone (the determinism contract,
//! DESIGN.md §10):
//!
//! 1. the input is cut into fixed [`REDUCTION_CHUNK`]-element chunks;
//! 2. each chunk is reduced serially (LLVM auto-vectorizes the inner
//!    loops — these are memory-bound level-1 BLAS operations);
//! 3. the per-chunk partials are combined by a **fixed-shape pairwise
//!    tree** (split at `len / 2`, recurse).
//!
//! The result differs from a naive left-to-right serial sum in the last
//! ulps (pairwise summation also has *better* worst-case error: O(log n)
//! vs O(n) ulp growth), but it is a pure function of the input. Every
//! kernel runs serially on the calling thread; the installed pool reaches
//! only the recursion forks above the eigensolvers, which [`with_fanout`]
//! caps for an entry point holding a `threads` setting.

/// Elements per reduction chunk. 4096 f64s = 32 KiB, half a typical L1 —
/// small enough that a chunk's serial reduction stays cache-resident,
/// large enough that the pairwise tree over partials is negligible.
pub const REDUCTION_CHUNK: usize = 4096;

/// Combine partials with a fixed-shape pairwise tree (split at `len/2`).
/// The shape depends only on `p.len()`.
fn pairwise_sum(p: &[f64]) -> f64 {
    match p.len() {
        0 => 0.0,
        1 => p[0],
        2 => p[0] + p[1],
        n => {
            let mid = n / 2;
            pairwise_sum(&p[..mid]) + pairwise_sum(&p[mid..])
        }
    }
}

/// Run `f` under a fan-out cap: `threads == 0` leaves the installed pool
/// untouched, any other value caps the recursion forks inside `f` at
/// `threads` threads. The one place that turns a `threads` setting into an
/// installed pool; entry points holding such a setting call it once.
pub fn with_fanout<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    if threads == 0 {
        return f();
    }
    // LINT: allow(panic, pool construction fails only on thread-spawn resource exhaustion; no recovery is possible)
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("advisory thread pool")
        .install(f)
}

/// Deterministic chunked-pairwise reduction over an index space: cut
/// `0..n` into [`REDUCTION_CHUNK`] chunks, reduce each with
/// `reduce_chunk(lo, hi)`, combine the partials with the fixed pairwise
/// tree. The result is a pure function of `(n, reduce_chunk)`. This is
/// the building block behind `dot`/`norm`/`sum` and the Laplacian's
/// edge-wise Rayleigh quotient.
pub fn chunked_reduce(n: usize, reduce_chunk: impl Fn(usize, usize) -> f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if n <= REDUCTION_CHUNK {
        return reduce_chunk(0, n);
    }
    let partials: Vec<f64> = (0..n)
        .step_by(REDUCTION_CHUNK)
        .map(|lo| reduce_chunk(lo, (lo + REDUCTION_CHUNK).min(n)))
        .collect();
    pairwise_sum(&partials)
}

/// Dot product over one chunk; plain slice loop, auto-vectorized.
#[inline]
fn dot_chunk(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Dot product (deterministic chunked-pairwise).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    chunked_reduce(a.len(), |lo, hi| dot_chunk(&a[lo..hi], &b[lo..hi]))
}

/// Euclidean norm (deterministic chunked-pairwise).
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Sum of all elements (deterministic chunked-pairwise).
pub fn sum(a: &[f64]) -> f64 {
    chunked_reduce(a.len(), |lo, hi| a[lo..hi].iter().sum())
}

/// `y += alpha * x` (elementwise).
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha` (elementwise).
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Normalize `x` to unit norm.
///
/// Always returns the **pre-scale** Euclidean norm of `x`, whatever its
/// value. `x` is rescaled only when that norm is a positive *normal*
/// float: a zero vector is left untouched (returning `0.0`), and a vector
/// whose norm underflows to a denormal is also left untouched (dividing
/// by a denormal would overflow every component to ±inf) — callers that
/// need a direction from such a vector should rescale it first.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm(x);
    if n.is_normal() && n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Remove the component of `x` along (unit or non-unit) `q`:
/// `x -= (x·q / q·q) q`.
///
/// Skips (leaves `x` untouched) when `q·q` underflows to zero or to a
/// denormal: a zero `q` spans nothing to project out, and dividing by a
/// denormal `q·q` overflows the coefficient to ±inf and would destroy
/// `x`. The skip threshold is `f64::MIN_POSITIVE` (smallest normal).
pub fn orthogonalize_against(x: &mut [f64], q: &[f64]) {
    let qq = dot(q, q);
    if qq >= f64::MIN_POSITIVE {
        let coeff = dot(x, q) / qq;
        axpy(-coeff, q, x);
    }
}

/// Remove the mean of `x` (orthogonalize against the constant vector, the
/// Laplacian's null space).
pub fn deflate_constant(x: &mut [f64]) {
    let n = x.len();
    if n == 0 {
        return;
    }
    let mean = sum(x) / n as f64;
    for xi in x {
        *xi -= mean;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn axpy_scale() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![3.5, 4.5]);
    }

    #[test]
    fn normalize_unit() {
        let mut x = vec![0.0, 3.0, 4.0];
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < 1e-15);
        assert!((norm(&x) - 1.0).abs() < 1e-15);
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
    }

    #[test]
    fn normalize_zero_and_denormal_left_untouched() {
        // Zero vector: reports norm 0, untouched.
        let mut z = vec![0.0; 5];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, vec![0.0; 5]);
        // Denormal vector: the norm underflows below the smallest normal;
        // the reported value is the true pre-scale norm and the vector is
        // left untouched instead of overflowing to ±inf.
        let d = f64::MIN_POSITIVE / 4.0; // subnormal after squaring
        let mut x = vec![d * 1e-20, -d * 1e-20];
        let before = x.clone();
        let n = normalize(&mut x);
        assert!(n < f64::MIN_POSITIVE, "norm {n} should be denormal/zero");
        assert_eq!(x, before, "denormal vector must not be rescaled");
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn orthogonalization() {
        let q = vec![1.0, 1.0];
        let mut x = vec![2.0, 0.0];
        orthogonalize_against(&mut x, &q);
        assert!(dot(&x, &q).abs() < 1e-14);
    }

    #[test]
    fn orthogonalize_against_zero_vector_is_a_noop() {
        let q = vec![0.0; 4];
        let mut x = vec![1.0, -2.0, 3.0, -4.0];
        let before = x.clone();
        orthogonalize_against(&mut x, &q);
        assert_eq!(x, before);
    }

    #[test]
    fn orthogonalize_against_denormal_vector_skips() {
        // q·q underflows to a denormal (or zero); dividing by it would
        // overflow the coefficient — the kernel must skip instead.
        let tiny = 1e-200; // tiny^2 = 1e-400 underflows to 0
        let q = vec![tiny, tiny];
        let mut x = vec![5.0, -7.0];
        let before = x.clone();
        orthogonalize_against(&mut x, &q);
        assert_eq!(x, before);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deflation_removes_mean() {
        let mut x = vec![1.0, 2.0, 3.0, 6.0];
        deflate_constant(&mut x);
        assert!(x.iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn chunked_dot_close_to_serial_and_thread_invariant() {
        // > REDUCTION_CHUNK so the pairwise tree actually engages.
        let n = 3 * REDUCTION_CHUNK + 917;
        let a: Vec<f64> = (0..n)
            .map(|i| ((i * 37) % 101) as f64 / 17.0 - 2.5)
            .collect();
        let b: Vec<f64> = (0..n)
            .map(|i| ((i * 53) % 97) as f64 / 13.0 - 3.5)
            .collect();
        let serial: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let chunked = dot(&a, &b);
        assert!(
            (chunked - serial).abs() <= 1e-12 * serial.abs().max(1.0),
            "chunked {chunked} vs serial {serial}"
        );
        // Bit-identical under every installed fan-out.
        for t in [1usize, 2, 3, 8] {
            assert_eq!(
                with_fanout(t, || dot(&a, &b)).to_bits(),
                chunked.to_bits(),
                "dot differs at {t} threads"
            );
        }
    }

    #[test]
    fn sum_and_deflate_thread_invariant() {
        let n = 32 * REDUCTION_CHUNK + 311;
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 29) % 113) as f64 / 7.0 - 8.0)
            .collect();
        let s1 = with_fanout(1, || sum(&x));
        for t in [2usize, 5, 8] {
            assert_eq!(with_fanout(t, || sum(&x)).to_bits(), s1.to_bits());
        }
        let mut a = x.clone();
        let mut b = x.clone();
        with_fanout(1, || deflate_constant(&mut a));
        with_fanout(8, || deflate_constant(&mut b));
        assert_eq!(a, b);
    }

    #[test]
    fn axpy_scale_thread_invariant_on_large_vectors() {
        let n = 16 * REDUCTION_CHUNK + 1234;
        let x: Vec<f64> = (0..n).map(|i| (i % 31) as f64 * 0.25 - 3.0).collect();
        let mut y1: Vec<f64> = (0..n).map(|i| (i % 17) as f64 * 0.5).collect();
        let mut y8 = y1.clone();
        with_fanout(1, || axpy(0.37, &x, &mut y1));
        with_fanout(8, || axpy(0.37, &x, &mut y8));
        assert_eq!(y1, y8);
        with_fanout(1, || scale(1.0 / 3.0, &mut y1));
        with_fanout(8, || scale(1.0 / 3.0, &mut y8));
        assert_eq!(y1, y8);
    }

    #[test]
    fn pairwise_tree_shape_is_fixed() {
        // The tree splits at len/2 regardless of anything else; spot-check
        // against a hand-computed shape for 5 partials:
        // pairwise([a,b,c,d,e]) = (a+b) + (c + (d+e))
        let p = [1e16, 1.0, -1e16, 1.0, 1.0];
        let expect: f64 = (1e16 + 1.0) + (-1e16 + (1.0 + 1.0));
        assert_eq!(pairwise_sum(&p).to_bits(), expect.to_bits());
    }
}
