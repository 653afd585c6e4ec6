//! Small deterministic RNG helpers shared across the workspace.
//!
//! All randomized algorithms in the reproduction take explicit seeds (the
//! paper fixes its seed for all experiments, §4); these helpers keep the
//! sampling primitives in one place so every crate draws numbers the same
//! way.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// The workspace-standard seeded RNG.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// SplitMix64 finalizer of `seed + k·φ` (φ = 0x9E3779B97F4A7C15, the
/// golden-ratio increment): the `k`-th output of a SplitMix64 stream
/// started at `seed`. Derives decorrelated seeds and hashes from a base
/// seed without an RNG.
#[inline]
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// In-place Fisher-Yates shuffle.
pub fn shuffle<T, R: Rng>(rng: &mut R, s: &mut [T]) {
    for i in (1..s.len()).rev() {
        let j = rng.random_range(0..=i);
        s.swap(i, j);
    }
}

/// A random permutation of `0..n` as a `Vec<u32>`.
pub fn random_order<R: Rng>(rng: &mut R, n: usize) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    shuffle(rng, &mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = seeded(7);
        let mut v: Vec<u32> = (0..50).collect();
        shuffle(&mut rng, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn seeded_is_deterministic() {
        let a = random_order(&mut seeded(3), 20);
        let b = random_order(&mut seeded(3), 20);
        assert_eq!(a, b);
        let c = random_order(&mut seeded(4), 20);
        assert_ne!(a, c);
    }

    #[test]
    fn mix_is_the_splitmix64_stream() {
        // Reference values of SplitMix64 seeded with 0.
        assert_eq!(mix(0, 1), 0xE220A8397B1DCDAF);
        assert_eq!(mix(0, 2), 0x6E789E6AA1B965F4);
    }

    #[test]
    fn shuffle_handles_tiny_slices() {
        let mut rng = seeded(1);
        let mut empty: [u32; 0] = [];
        shuffle(&mut rng, &mut empty);
        let mut one = [9u32];
        shuffle(&mut rng, &mut one);
        assert_eq!(one, [9]);
    }
}
