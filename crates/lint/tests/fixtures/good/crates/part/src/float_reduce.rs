//! Fixture: D2-clean — reductions routed through chunked_reduce.
use rayon::prelude::*;

pub fn scale(xs: &mut [f64]) {
    xs.par_iter_mut().for_each(|x| *x *= 2.0);
}

pub fn total(xs: &[f64]) -> f64 {
    mlgp_linalg::vecops::chunked_reduce(xs.len(), |lo, hi| {
        let mut acc = 0.0;
        for x in &xs[lo..hi] {
            acc += *x;
        }
        acc
    })
}
