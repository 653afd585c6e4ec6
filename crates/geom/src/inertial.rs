//! Inertial bisection: split perpendicular to the principal axis of the
//! point cloud (the classical geometric scheme of Nour-Omid, Raefsky &
//! Lyzenga cited in §1). Slightly better than plain coordinate bisection
//! on skewed geometries because the cut plane follows the data rather than
//! the coordinate frame.

use crate::rcb::{median_split, sort_by_f64_key};
use mlgp_graph::generators::Point;
use mlgp_graph::{Vid, Wgt};

/// Recursively bisect by principal-axis medians into `k` parts.
pub fn inertial_partition(points: &[Point], vwgt: &[Wgt], k: usize) -> Vec<u32> {
    assert_eq!(points.len(), vwgt.len());
    assert!(k >= 1);
    let mut labels = vec![0u32; points.len()];
    let mut ids: Vec<Vid> = (0..points.len() as Vid).collect();
    median_split(vwgt, &mut ids, k, 0, &mut labels, &|ids: &mut [Vid]| {
        // Project onto the principal axis and split at the weighted median.
        let axis = principal_axis(points, ids);
        sort_by_f64_key(ids, |v| {
            let p = points[v as usize];
            p[0] * axis[0] + p[1] * axis[1] + p[2] * axis[2]
        });
    });
    labels
}

/// Principal axis (dominant eigenvector of the 3x3 covariance) of the
/// selected points, via a deterministic power iteration.
pub(crate) fn principal_axis(points: &[Point], ids: &[Vid]) -> [f64; 3] {
    let n = ids.len().max(1) as f64;
    let mut mean = [0.0f64; 3];
    for &v in ids {
        for d in 0..3 {
            mean[d] += points[v as usize][d];
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    // Covariance (symmetric 3x3).
    let mut c = [[0.0f64; 3]; 3];
    for &v in ids {
        let p = points[v as usize];
        let d = [p[0] - mean[0], p[1] - mean[1], p[2] - mean[2]];
        for i in 0..3 {
            for j in 0..3 {
                c[i][j] += d[i] * d[j];
            }
        }
    }
    // Power iteration from a fixed, non-axis-aligned start.
    let mut x = [1.0f64, 0.7548776662, 0.5698402910]; // plastic-number mix
    for _ in 0..50 {
        let y = [
            c[0][0] * x[0] + c[0][1] * x[1] + c[0][2] * x[2],
            c[1][0] * x[0] + c[1][1] * x[1] + c[1][2] * x[2],
            c[2][0] * x[0] + c[2][1] * x[1] + c[2][2] * x[2],
        ];
        let norm = (y[0] * y[0] + y[1] * y[1] + y[2] * y[2]).sqrt();
        if norm < 1e-30 {
            break; // degenerate cloud (single point); any axis works
        }
        x = [y[0] / norm, y[1] / norm, y[2] / norm];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgp_graph::generators::{grid2d, grid2d_coords};
    use mlgp_part::{edge_cut_kway, imbalance};

    #[test]
    fn principal_axis_of_elongated_cloud() {
        // Points along the line y = x: principal axis ≈ (1,1,0)/√2.
        let pts: Vec<Point> = (0..50).map(|i| [i as f64, i as f64, 0.0]).collect();
        let ids: Vec<u32> = (0..50).collect();
        let a = principal_axis(&pts, &ids);
        let dot = (a[0] + a[1]).abs() / 2f64.sqrt();
        assert!(dot > 0.999, "{a:?}");
        assert!(a[2].abs() < 1e-6);
    }

    #[test]
    fn bisects_rotated_strip_well() {
        // A 24x4 grid is elongated along x: inertial must split across x,
        // cutting exactly the short dimension.
        let g = grid2d(24, 4);
        let pts = grid2d_coords(24, 4);
        let part = inertial_partition(&pts, g.vwgt(), 2);
        assert_eq!(edge_cut_kway(&g, &part), 4);
    }

    #[test]
    fn kway_is_balanced() {
        let g = grid2d(20, 20);
        let pts = grid2d_coords(20, 20);
        for k in [4, 5, 8] {
            let part = inertial_partition(&pts, g.vwgt(), k);
            assert!(imbalance(&g, &part, k) < 1.06, "k={k}");
        }
    }

    #[test]
    fn handles_degenerate_cloud() {
        let pts = vec![[1.0, 1.0, 1.0]; 5];
        let part = inertial_partition(&pts, &[1; 5], 2);
        // Balance still holds even with identical points.
        assert_eq!(part.iter().filter(|&&p| p == 0).count(), 2);
    }
}
