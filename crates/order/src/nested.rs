//! Nested dissection orderings (§4.3): MLND (multilevel nested dissection,
//! the paper's contribution) and SND (spectral nested dissection,
//! Pothen-Simon-Wang), sharing one recursive driver.
//!
//! At each level the graph is bisected, the edge separator is converted to
//! a minimum-vertex-cover vertex separator, the two sides are ordered
//! recursively (in parallel), and the separator is numbered last. Pieces
//! below `leaf_size` are ordered with MMD, the standard practice for
//! incomplete nested dissection.

use crate::mmd::mmd_order;
use crate::vcover::{vertex_separator, SEPARATOR, SIDE_A, SIDE_B};
use mlgp_graph::{split_by_part, CsrGraph, Permutation, Vid};
use mlgp_part::{bisect_targets_traced, MlConfig};
use mlgp_spectral::{msb_bisect_targets, MsbConfig};
use mlgp_trace::{Event, Trace};

/// Which bisection engine drives the dissection.
#[derive(Clone, Copy, Debug)]
pub enum NdBisector {
    /// Multilevel bisection with the given configuration (MLND).
    Multilevel(MlConfig),
    /// Multilevel-accelerated spectral bisection (SND). Quality matches
    /// running Lanczos on each subgraph; see DESIGN.md §2.
    Spectral(MsbConfig),
}

/// Nested dissection configuration.
#[derive(Clone, Copy, Debug)]
pub struct NdConfig {
    /// Bisection engine.
    pub bisector: NdBisector,
    /// Subgraphs at or below this size are ordered with MMD.
    pub leaf_size: usize,
    /// Fork the recursion in parallel above this size.
    pub parallel_threshold: usize,
    /// Apply FM-style separator refinement after the minimum vertex cover
    /// (see [`crate::seprefine`]).
    pub refine_separator: bool,
    /// Ignored. The recursion forks use the pool the caller installed
    /// (`ThreadPool::install`, the CLI's `--threads`); the bisector's
    /// kernels are serial, and orderings are bit-identical at every pool
    /// size. The field stays only for callers that still set it.
    pub threads: usize,
}

impl Default for NdConfig {
    fn default() -> Self {
        Self {
            bisector: NdBisector::Multilevel(MlConfig::default()),
            leaf_size: 120,
            parallel_threshold: 4096,
            refine_separator: true,
            threads: 0,
        }
    }
}

impl NdConfig {
    /// MLND with the paper's recommended multilevel configuration.
    pub fn mlnd() -> Self {
        Self::default()
    }

    /// SND configuration.
    pub fn snd() -> Self {
        Self {
            bisector: NdBisector::Spectral(MsbConfig::default()),
            ..Self::default()
        }
    }
}

/// Compute a fill-reducing nested dissection ordering of `g`.
pub fn nested_dissection(g: &CsrGraph, cfg: &NdConfig) -> Permutation {
    nested_dissection_traced(g, cfg, &Trace::disabled())
}

/// [`nested_dissection`] with telemetry: one `separator` event per
/// dissection split (depth, subgraph size, separator size) plus phase spans
/// (`nd/bisect`, `nd/separator`, `nd/mmd`) and a `separator_vertices`
/// counter. The multilevel bisector additionally records its own per-level
/// coarsening/refinement events.
pub fn nested_dissection_traced(g: &CsrGraph, cfg: &NdConfig, trace: &Trace) -> Permutation {
    let mut seq = Vec::with_capacity(g.n());
    let all: Vec<Vid> = (0..g.n() as Vid).collect();
    order_rec(g, &all, cfg, 1, &mut seq, trace);
    debug_assert_eq!(seq.len(), g.n());
    Permutation::from_inverse(seq)
}

/// Multilevel nested dissection with default settings.
pub fn mlnd_order(g: &CsrGraph) -> Permutation {
    nested_dissection(g, &NdConfig::mlnd())
}

/// Spectral nested dissection with default settings.
pub fn snd_order(g: &CsrGraph) -> Permutation {
    nested_dissection(g, &NdConfig::snd())
}

/// Order the subgraph `sub` (whose vertices map to original ids via `orig`)
/// and append the elimination sequence (original ids) to `seq`.
fn order_rec(
    sub: &CsrGraph,
    orig: &[Vid],
    cfg: &NdConfig,
    salt: u64,
    seq: &mut Vec<Vid>,
    trace: &Trace,
) {
    let n = sub.n();
    if n == 0 {
        return;
    }
    if n <= cfg.leaf_size {
        let t = trace.start();
        let p = mmd_order(sub);
        trace.stop(t, "nd/mmd");
        seq.extend(p.iperm().iter().map(|&v| orig[v as usize]));
        return;
    }
    // Bisect, then lift the edge separator to a vertex separator.
    let total = sub.total_vwgt();
    let targets = [total / 2, total - total / 2];
    let t = trace.start();
    let part = match &cfg.bisector {
        NdBisector::Multilevel(ml) => {
            bisect_targets_traced(sub, &ml.reseed(salt), targets, trace).part
        }
        NdBisector::Spectral(sc) => {
            let mut c = *sc;
            c.seed = sc.seed.wrapping_add(salt);
            msb_bisect_targets(sub, &c, targets)
        }
    };
    trace.stop(t, "nd/bisect");
    let t = trace.start();
    let mut labels = vertex_separator(sub, &part);
    if cfg.refine_separator {
        crate::seprefine::refine_separator(
            sub,
            &mut labels,
            &crate::seprefine::SepRefineOptions::default(),
        );
    }
    trace.stop(t, "nd/separator");
    let sep_count = labels.iter().filter(|&&l| l == SEPARATOR).count();
    // The recursion salt doubles per level, so its bit length is the depth.
    let depth = (u64::BITS - 1 - salt.leading_zeros()) as usize;
    trace.record(|| Event::Separator {
        depth,
        vertices: n,
        separator: sep_count,
    });
    trace.count("separator_vertices", sep_count as u64);
    if sep_count == 0 || sep_count == n {
        // Degenerate split (e.g. everything became separator, or the graph
        // was disconnected with an empty cut): fall back to MMD to
        // guarantee progress.
        let p = mmd_order(sub);
        seq.extend(p.iperm().iter().map(|&v| orig[v as usize]));
        return;
    }
    // One split by label (SIDE_A, SIDE_B, SEPARATOR); the separator's piece
    // is freed before the recursion.
    let label_part: Vec<u32> = labels.iter().map(|&l| u32::from(l)).collect();
    let mut pieces = split_by_part(sub, &label_part, 3);
    pieces.truncate(2);
    let (sub_a, sub_b) = (&pieces[SIDE_A as usize], &pieces[SIDE_B as usize]);
    let orig_a: Vec<Vid> = sub_a.orig.iter().map(|&v| orig[v as usize]).collect();
    let orig_b: Vec<Vid> = sub_b.orig.iter().map(|&v| orig[v as usize]).collect();
    let mut seq_a = Vec::with_capacity(sub_a.graph.n());
    let mut seq_b = Vec::with_capacity(sub_b.graph.n());
    if n >= cfg.parallel_threshold {
        rayon::join(
            || order_rec(&sub_a.graph, &orig_a, cfg, salt * 2, &mut seq_a, trace),
            || order_rec(&sub_b.graph, &orig_b, cfg, salt * 2 + 1, &mut seq_b, trace),
        );
    } else {
        order_rec(&sub_a.graph, &orig_a, cfg, salt * 2, &mut seq_a, trace);
        order_rec(&sub_b.graph, &orig_b, cfg, salt * 2 + 1, &mut seq_b, trace);
    }
    seq.append(&mut seq_a);
    seq.append(&mut seq_b);
    // Separator vertices are numbered last.
    for v in 0..n {
        if labels[v] == SEPARATOR {
            seq.push(orig[v]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::analyze_ordering;
    use mlgp_graph::generators::{grid2d, lshape, stiffness3d, tri_mesh2d};

    fn is_perm(p: &Permutation, n: usize) -> bool {
        let mut seen = vec![false; n];
        for v in 0..n as u32 {
            seen[p.apply(v) as usize] = true;
        }
        seen.iter().all(|&s| s)
    }

    #[test]
    fn mlnd_is_a_permutation() {
        let g = grid2d(20, 20);
        let p = mlnd_order(&g);
        assert!(is_perm(&p, g.n()));
    }

    #[test]
    fn small_graph_delegates_to_mmd() {
        let g = grid2d(6, 6);
        let p = mlnd_order(&g);
        let m = mmd_order(&g);
        assert_eq!(p.perm(), m.perm());
    }

    #[test]
    fn mlnd_beats_natural_order_on_grid() {
        let g = grid2d(24, 24);
        let nd = analyze_ordering(&g, &mlnd_order(&g));
        let nat = analyze_ordering(&g, &Permutation::identity(g.n()));
        assert!(
            nd.opcount < nat.opcount,
            "{} vs {}",
            nd.opcount,
            nat.opcount
        );
    }

    #[test]
    fn mlnd_flattens_the_etree_relative_to_mmd() {
        // The paper's concurrency argument: ND orderings have shallower,
        // better-balanced elimination trees than MMD.
        let g = stiffness3d(9, 9, 9);
        let nd = analyze_ordering(&g, &mlnd_order(&g));
        let md = analyze_ordering(&g, &mmd_order(&g));
        assert!(
            nd.height as f64 <= 1.2 * md.height as f64,
            "ND height {} vs MMD {}",
            nd.height,
            md.height
        );
    }

    #[test]
    fn mlnd_competitive_with_mmd_on_3d() {
        // On 3D stiffness-like problems the paper finds MLND clearly better;
        // at this small scale require at least rough parity (within 1.5x).
        let g = stiffness3d(8, 8, 8);
        let nd = analyze_ordering(&g, &mlnd_order(&g));
        let md = analyze_ordering(&g, &mmd_order(&g));
        assert!(
            nd.opcount < 1.5 * md.opcount,
            "ND {} vs MMD {}",
            nd.opcount,
            md.opcount
        );
    }

    #[test]
    fn snd_is_a_valid_ordering() {
        let g = tri_mesh2d(16, 16, 7);
        let p = snd_order(&g);
        assert!(is_perm(&p, g.n()));
        let snd = analyze_ordering(&g, &p);
        let nat = analyze_ordering(&g, &Permutation::identity(g.n()));
        assert!(snd.opcount < nat.opcount);
    }

    #[test]
    fn deterministic() {
        let g = lshape(30);
        let a = mlnd_order(&g);
        let b = mlnd_order(&g);
        assert_eq!(a.perm(), b.perm());
    }

    #[test]
    fn handles_disconnected_input() {
        // Two disjoint grids glued as one graph.
        let g1 = grid2d(12, 12);
        let mut b = mlgp_graph::GraphBuilder::new(288);
        for v in 0..144u32 {
            for (u, _) in g1.adj(v) {
                if u > v {
                    b.add_edge(v, u);
                    b.add_edge(v + 144, u + 144);
                }
            }
        }
        let g = b.build();
        let p = nested_dissection(
            &g,
            &NdConfig {
                leaf_size: 20,
                ..NdConfig::mlnd()
            },
        );
        assert!(is_perm(&p, 288));
    }
}
