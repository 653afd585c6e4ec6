//! Shard sizing shared by the parallel kernels (refinement state, k-way
//! sweep, contraction, metrics reductions).

/// Below this vertex count the auto-threaded kernels stay on one shard
/// (the cost of handing shards to pool workers would dominate). Explicit
/// thread requests are honored exactly, whatever the size — the result is
/// identical either way.
pub(crate) const MIN_PARALLEL_N: usize = 8192;

/// Shard count: explicit requests are honored exactly (so tests can force
/// any fan-out); auto mode follows the rayon fan-out with a size floor.
pub(crate) fn resolve_shards(n: usize, threads: usize) -> usize {
    let t = if threads == 0 {
        if n < MIN_PARALLEL_N {
            1
        } else {
            rayon::current_num_threads()
        }
    } else {
        threads
    };
    t.clamp(1, n.max(1))
}

/// Even contiguous vertex ranges, one per shard.
pub(crate) fn shard_bounds(n: usize, nshards: usize) -> Vec<(usize, usize)> {
    (0..nshards)
        .map(|i| (i * n / nshards, (i + 1) * n / nshards))
        .collect()
}
