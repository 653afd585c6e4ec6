//! The coarsening phase: iterate matching + contraction until the graph is
//! small (§3.1).

use crate::config::MlConfig;
use crate::contract::contract_threads;
use crate::matching::compute_matching_threads;
use mlgp_graph::{CsrGraph, Vid};
use mlgp_trace::Trace;
use rand::Rng;

/// The multilevel hierarchy `G_0 ⊐ G_1 ⊐ … ⊐ G_m`.
///
/// `graphs[0]` is the input; `cmaps[i]` maps vertices of `graphs[i]` to
/// vertices of `graphs[i + 1]` (so `cmaps.len() == graphs.len() - 1`).
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// The graphs, finest first.
    pub graphs: Vec<CsrGraph>,
    /// Level-to-level coarse maps.
    pub cmaps: Vec<Vec<Vid>>,
}

impl Hierarchy {
    /// Number of levels (≥ 1).
    pub fn levels(&self) -> usize {
        self.graphs.len()
    }

    /// The coarsest graph.
    pub fn coarsest(&self) -> &CsrGraph {
        // LINT: allow(panic, hierarchy invariant — graphs always holds at least the input level)
        self.graphs.last().unwrap()
    }

    /// Project a partition of level `i + 1` onto level `i`: each fine
    /// vertex reads the label of its coarse vertex.
    pub fn project(&self, level: usize, coarse_part: &[u8]) -> Vec<u8> {
        assert_eq!(coarse_part.len(), self.graphs[level + 1].n());
        self.cmaps[level]
            .iter()
            .map(|&c| coarse_part[c as usize])
            .collect()
    }
}

/// Coarsen `g` according to `cfg` (matching scheme, size target, stagnation
/// guard). The RNG drives the random vertex visit orders.
pub fn coarsen<R: Rng>(g: &CsrGraph, cfg: &MlConfig, rng: &mut R) -> Hierarchy {
    coarsen_traced(g, cfg, rng, &Trace::disabled())
}

/// [`coarsen`] with kernel telemetry: records per-level kernel counters
/// (`match_edges_scanned`, `contract_entries`) into `trace` when it is
/// enabled. The hierarchy itself is identical to [`coarsen`]'s — tracing
/// never perturbs the result.
pub fn coarsen_traced<R: Rng>(
    g: &CsrGraph,
    cfg: &MlConfig,
    rng: &mut R,
    trace: &Trace,
) -> Hierarchy {
    let mut graphs = vec![g.clone()];
    let mut cmaps: Vec<Vec<Vid>> = Vec::new();
    let mut cewgt = vec![0; g.n()];
    loop {
        // LINT: allow(panic, graphs is seeded with the input level and only grows)
        let cur = graphs.last().unwrap();
        let n = cur.n();
        if n <= cfg.coarsen_to.max(2) || cur.m() == 0 {
            break;
        }
        let (m, mstats) = compute_matching_threads(cur, cfg.matching, &cewgt, rng, 0);
        let (cmap, nc) = m.to_cmap();
        if nc as f64 > cfg.min_coarsen_shrink * n as f64 {
            // Matching stagnated (e.g. star graphs); stop coarsening.
            break;
        }
        let (c, cstats) = contract_threads(cur, &cmap, nc, &cewgt, 0);
        if trace.is_enabled() {
            trace.count("match_edges_scanned", mstats.edges_scanned);
            trace.count("contract_entries", cstats.entries.iter().sum());
        }
        cewgt = c.cewgt;
        graphs.push(c.graph);
        cmaps.push(cmap);
    }
    Hierarchy { graphs, cmaps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatchingScheme;
    use mlgp_graph::generators::{grid2d, powerlaw, tri_mesh2d};
    use mlgp_graph::rng::seeded;
    use mlgp_graph::GraphBuilder;

    fn cfg_with(matching: MatchingScheme, coarsen_to: usize) -> MlConfig {
        MlConfig {
            matching,
            coarsen_to,
            ..MlConfig::default()
        }
    }

    #[test]
    fn coarsens_grid_below_threshold() {
        let g = grid2d(32, 32);
        for scheme in MatchingScheme::all() {
            let h = coarsen(&g, &cfg_with(scheme, 100), &mut seeded(1));
            assert!(h.coarsest().n() <= 100 || h.levels() == 1, "{scheme:?}");
            assert!(h.levels() >= 3, "{scheme:?} produced too few levels");
            // Vertex weight is conserved at every level.
            for lvl in &h.graphs {
                assert_eq!(lvl.total_vwgt(), g.total_vwgt());
            }
            // Sizes strictly decrease.
            for w in h.graphs.windows(2) {
                assert!(w[1].n() < w[0].n());
            }
        }
    }

    #[test]
    fn projection_round_trip() {
        let g = tri_mesh2d(16, 16, 2);
        let h = coarsen(&g, &cfg_with(MatchingScheme::HeavyEdge, 60), &mut seeded(2));
        // All-zeros and alternating partitions project consistently.
        let nc = h.coarsest().n();
        let cpart: Vec<u8> = (0..nc).map(|i| (i % 2) as u8).collect();
        let mut part = cpart;
        for level in (0..h.levels() - 1).rev() {
            let fine = h.project(level, &part);
            assert_eq!(fine.len(), h.graphs[level].n());
            // Projected cut equals coarse cut (contraction preserves cuts).
            assert_eq!(
                crate::metrics::edge_cut_bisection(&h.graphs[level], &fine),
                crate::metrics::edge_cut_bisection(&h.graphs[level + 1], &part),
            );
            part = fine;
        }
    }

    #[test]
    fn stagnation_guard_stops_on_star() {
        // A star can only shrink by one vertex per level via matching; the
        // shrink guard must terminate coarsening.
        let mut b = GraphBuilder::new(101);
        for i in 1..101 {
            b.add_edge(0, i);
        }
        let g = b.build();
        let h = coarsen(&g, &cfg_with(MatchingScheme::Random, 10), &mut seeded(3));
        assert!(h.levels() < 20, "guard failed: {} levels", h.levels());
    }

    #[test]
    fn small_graph_is_left_alone() {
        let g = grid2d(5, 5);
        let h = coarsen(
            &g,
            &cfg_with(MatchingScheme::HeavyEdge, 100),
            &mut seeded(4),
        );
        assert_eq!(h.levels(), 1);
        assert!(h.cmaps.is_empty());
    }

    #[test]
    fn powerlaw_graph_coarsens() {
        let g = powerlaw(3000, 3, 7);
        let h = coarsen(
            &g,
            &cfg_with(MatchingScheme::HeavyEdge, 100),
            &mut seeded(5),
        );
        assert!(h.coarsest().n() < 3000);
        for lvl in &h.graphs {
            assert!(lvl.validate().is_ok());
        }
    }

    #[test]
    fn hem_reduces_edge_weight_fast() {
        // HEM removes at least as much edge weight per level as LEM on a
        // weighted graph (fixed seed).
        let g0 = grid2d(24, 24);
        let mut b = GraphBuilder::new(g0.n());
        for v in 0..g0.n() as Vid {
            for (u, _) in g0.adj(v) {
                if u > v {
                    b.add_weighted_edge(v, u, 1 + ((v + 3 * u) % 7) as i64);
                }
            }
        }
        let g = b.build();
        let hem = coarsen(&g, &cfg_with(MatchingScheme::HeavyEdge, 50), &mut seeded(6));
        let lem = coarsen(&g, &cfg_with(MatchingScheme::LightEdge, 50), &mut seeded(6));
        assert!(
            hem.graphs[1].total_adjwgt() < lem.graphs[1].total_adjwgt(),
            "HEM {} vs LEM {}",
            hem.graphs[1].total_adjwgt(),
            lem.graphs[1].total_adjwgt()
        );
    }
}
