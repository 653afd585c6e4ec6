//! Shard sizing shared by the parallel kernels (refinement state, k-way
//! sweep, contraction).
//!
//! The installed pool is the only parallelism control: a kernel splits a
//! level into [`shard_count`] contiguous vertex ranges, one per thread of
//! the pool the caller installed (`ThreadPool::install`, the CLI's
//! `--threads`), and a level below [`MIN_PARALLEL_N`] vertices stays on one
//! shard. No thread count reaches a kernel. Every kernel's output is
//! bit-identical at every shard count, so the choice only moves time.
//!
//! Unit tests pin the shard count with [`with_shards`], a `#[cfg(test)]`
//! thread-local override, so that differential tests run multi-shard
//! kernels on small graphs.

/// Below this vertex count a level stays on one shard: handing shards to
/// pool workers would cost more than it saves.
pub(crate) const MIN_PARALLEL_N: usize = 8192;

/// Shards for a level of `n` vertices: one below [`MIN_PARALLEL_N`], else
/// one per thread of the installed pool.
pub(crate) fn shard_count(n: usize) -> usize {
    #[cfg(test)]
    if let Some(forced) = forced_shards() {
        return forced.clamp(1, n.max(1));
    }
    if n < MIN_PARALLEL_N {
        1
    } else {
        rayon::current_num_threads().clamp(1, n)
    }
}

/// Even contiguous vertex ranges, one per shard.
pub(crate) fn shard_bounds(n: usize, nshards: usize) -> Vec<(usize, usize)> {
    (0..nshards)
        .map(|i| (i * n / nshards, (i + 1) * n / nshards))
        .collect()
}

#[cfg(test)]
thread_local! {
    /// Shard count forced by [`with_shards`] on this thread (0 = none).
    static FORCED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn forced_shards() -> Option<usize> {
    Some(FORCED.get()).filter(|&s| s > 0)
}

/// Run `f` with every [`shard_count`] call made on this thread returning
/// `shards` (clamped to the level size), whatever the level size or pool.
#[cfg(test)]
pub(crate) fn with_shards<R>(shards: usize, f: impl FnOnce() -> R) -> R {
    /// Restores the previous override, also on unwind.
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.set(self.0);
        }
    }
    let _restore = Restore(FORCED.replace(shards));
    f()
}

/// Shard counts for the differential tests, plus `MLGP_THREADS` when it is
/// set.
#[cfg(test)]
pub(crate) fn shard_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 3, 4, 8];
    if let Some(t) = std::env::var("MLGP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        if t > 0 && !counts.contains(&t) {
            counts.push(t);
        }
    }
    counts
}
