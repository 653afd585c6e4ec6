//! Summary statistics and output fingerprints.

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// How many of `n` samples lie beyond the nearest-rank `q`-percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank `q`-percentile of `xs`, or `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it (too few to report).
pub fn tail_percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || samples_beyond(xs.len(), q) < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    Some(v[rank.max(1) - 1])
}

/// FNV-1a over a sequence of 32-bit words: the output fingerprint that
/// repeats and the traced rebuild are compared by.
pub fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(tail_percentile(&xs, 0.9), Some(90.0));
        // 99 samples leave only 9 beyond the 90th percentile.
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(tail_percentile(&xs[..99], 0.9), None);
        // The median of 20 samples has 10 beyond it.
        assert!(tail_percentile(&xs[..20], 0.5).is_some());
        assert!(tail_percentile(&xs[..19], 0.5).is_none());
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        assert_eq!(fnv1a([1, 2, 3]), fnv1a([1, 2, 3]));
        assert_ne!(fnv1a([1, 2, 3]), fnv1a([3, 2, 1]));
    }
}
