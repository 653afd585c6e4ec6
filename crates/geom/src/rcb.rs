//! Recursive coordinate bisection (RCB).
//!
//! The simplest geometric partitioner (§1 of the paper, Nour-Omid et al.):
//! split the point set at the weighted median along its widest axis,
//! recurse. Fast and balance-exact but blind to connectivity, which is why
//! its cuts trail spectral/multilevel quality.

use mlgp_graph::generators::Point;
use mlgp_graph::{Vid, Wgt};

/// Recursively bisect `points` into `k` parts by coordinate medians.
/// Returns one label in `0..k` per point.
pub fn rcb_partition(points: &[Point], vwgt: &[Wgt], k: usize) -> Vec<u32> {
    assert_eq!(points.len(), vwgt.len());
    assert!(k >= 1);
    let mut labels = vec![0u32; points.len()];
    let mut ids: Vec<Vid> = (0..points.len() as Vid).collect();
    median_split(vwgt, &mut ids, k, 0, &mut labels, &|ids: &mut [Vid]| {
        let axis = widest_axis(points, ids);
        sort_by_f64_key(ids, |v| points[v as usize][axis]);
    });
    labels
}

/// The recursion RCB and inertial bisection share: `sort` orders the
/// current point set along its cut direction, the set is split where the
/// running weight first reaches `⌈k/2⌉/k` of its total, and each half
/// recurses with its share of the `k` labels starting at `base`.
pub(crate) fn median_split<S>(
    vwgt: &[Wgt],
    ids: &mut [Vid],
    k: usize,
    base: u32,
    labels: &mut [u32],
    sort: &S,
) where
    S: Fn(&mut [Vid]),
{
    if k <= 1 || ids.is_empty() {
        for &v in ids.iter() {
            labels[v as usize] = base;
        }
        return;
    }
    let k0 = k.div_ceil(2);
    sort(ids);
    let total: Wgt = ids.iter().map(|&v| vwgt[v as usize]).sum();
    let target0 = (total as i128 * k0 as i128 / k as i128) as Wgt;
    let mut acc = 0;
    let mut split = ids.len();
    for (i, &v) in ids.iter().enumerate() {
        if acc >= target0 {
            split = i;
            break;
        }
        acc += vwgt[v as usize];
    }
    let (left, right) = ids.split_at_mut(split);
    median_split(vwgt, left, k0, base, labels, sort);
    median_split(vwgt, right, k - k0, base + k0 as u32, labels, sort);
}

/// Sort `ids` by an `f64` key, treating incomparable keys as equal.
pub(crate) fn sort_by_f64_key(ids: &mut [Vid], key: impl Fn(Vid) -> f64) {
    ids.sort_by(|&a, &b| {
        key(a)
            .partial_cmp(&key(b))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

/// Index (0/1/2) of the axis with the largest extent over `ids`.
pub(crate) fn widest_axis(points: &[Point], ids: &[Vid]) -> usize {
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for &v in ids {
        let p = points[v as usize];
        for d in 0..3 {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    let mut best = 0;
    for d in 1..3 {
        if hi[d] - lo[d] > hi[best] - lo[best] {
            best = d;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgp_graph::generators::{grid2d, grid2d_coords};
    use mlgp_part::{edge_cut_kway, imbalance, part_weights};

    #[test]
    fn splits_grid_along_long_axis() {
        // 16x4 grid: the first split must be along x, cutting 4 edges.
        let g = grid2d(16, 4);
        let pts = grid2d_coords(16, 4);
        let part = rcb_partition(&pts, g.vwgt(), 2);
        assert_eq!(edge_cut_kway(&g, &part), 4);
        assert_eq!(part_weights(&g, &part, 2), vec![32, 32]);
    }

    #[test]
    fn kway_balance_is_exact_on_unit_weights() {
        let g = grid2d(16, 16);
        let pts = grid2d_coords(16, 16);
        for k in [2, 3, 4, 7, 8] {
            let part = rcb_partition(&pts, g.vwgt(), k);
            let imb = imbalance(&g, &part, k);
            assert!(imb <= 1.05, "k={k}: {imb}");
            assert_eq!(part.iter().map(|&p| p as usize).max().unwrap(), k - 1);
        }
    }

    #[test]
    fn respects_vertex_weights() {
        // Two heavy points on the left balance many light ones on the right.
        let pts: Vec<Point> = (0..10).map(|i| [i as f64, 0.0, 0.0]).collect();
        let vwgt: Vec<i64> = vec![8, 8, 1, 1, 1, 1, 1, 1, 1, 1];
        let part = rcb_partition(&pts, &vwgt, 2);
        let w0: i64 = (0..10).filter(|&i| part[i] == 0).map(|i| vwgt[i]).sum();
        // Ideal is 12, but a weight-8 point straddles the median; either
        // side of it (8 or 16) is the best achievable split.
        assert!((8..=16).contains(&w0), "w0={w0}");
        // Count-wise the heavy points must land together on the left.
        assert_eq!(part[0], part[1]);
    }

    #[test]
    fn single_part_is_identity() {
        let pts = grid2d_coords(3, 3);
        let part = rcb_partition(&pts, &[1; 9], 1);
        assert!(part.iter().all(|&p| p == 0));
    }
}
