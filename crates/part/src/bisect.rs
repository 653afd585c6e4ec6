//! The multilevel bisection driver (§3): coarsen, partition the coarsest
//! graph, uncoarsen with refinement. Phase timings are trace spans in the
//! paper's vocabulary (CTime; UTime = ITime + RTime + PTime).

use crate::coarsen::{coarsen_traced, Hierarchy};
use crate::config::MlConfig;
use crate::initpart::initial_partition_traced;
use crate::refine::fm::BalanceTargets;
use crate::refine::{refine_level_stats, BisectState};
use mlgp_graph::rng::seeded;
use mlgp_graph::{CsrGraph, Wgt};
use mlgp_trace::{Event, Trace, SPAN_COARSEN, SPAN_INIT, SPAN_PROJECT, SPAN_REFINE};

/// Output of a multilevel bisection.
#[derive(Clone, Debug)]
pub struct BisectionResult {
    /// Side (0/1) per vertex.
    pub part: Vec<u8>,
    /// Edge-cut of the final partition.
    pub cut: Wgt,
    /// Vertex weight per side.
    pub pwgts: [Wgt; 2],
    /// Number of levels in the hierarchy (1 = no coarsening happened).
    pub levels: usize,
}

/// Bisect into two halves of (near-)equal vertex weight.
pub fn bisect(g: &CsrGraph, cfg: &MlConfig) -> BisectionResult {
    bisect_traced(g, cfg, &Trace::disabled())
}

/// [`bisect`] with telemetry: phase spans (the paper's CTime and
/// UTime = ITime + RTime + PTime), one `coarsen_level` event per hierarchy
/// level and one `refine_level` event per uncoarsening level.
pub fn bisect_traced(g: &CsrGraph, cfg: &MlConfig, trace: &Trace) -> BisectionResult {
    let total = g.total_vwgt();
    let half = total / 2;
    bisect_targets_traced(g, cfg, [half, total - half], trace)
}

/// Bisect with explicit per-side weight targets (used by recursive k-way
/// for non-power-of-two part counts).
pub fn bisect_targets(g: &CsrGraph, cfg: &MlConfig, target: [Wgt; 2]) -> BisectionResult {
    bisect_targets_traced(g, cfg, target, &Trace::disabled())
}

/// [`bisect_targets`] with telemetry.
pub fn bisect_targets_traced(
    g: &CsrGraph,
    cfg: &MlConfig,
    target: [Wgt; 2],
    trace: &Trace,
) -> BisectionResult {
    bisect_targets_branch(g, cfg, target, trace, 1)
}

/// Record one `coarsen_level` event per level of `h` under recursion
/// branch `branch`.
fn record_coarsen_levels(h: &Hierarchy, cfg: &MlConfig, trace: &Trace, branch: u64) {
    if !trace.is_enabled() {
        return;
    }
    // W(E_{i+1}) = W(E_i) − W(M_i): the contracted weight is the edge
    // weight the hierarchy has absorbed into multinodes so far.
    let w0 = h.graphs[0].total_adjwgt();
    for (i, lvl) in h.graphs.iter().enumerate() {
        let edge_wgt = lvl.total_adjwgt();
        // Every coarse vertex of level i+1 merges either a matched pair or
        // a single unmatched vertex, so pairs = n_i − n_{i+1}.
        let matched_fraction = if i + 1 < h.levels() && lvl.n() > 0 {
            let pairs = lvl.n() - h.graphs[i + 1].n();
            (2 * pairs) as f64 / lvl.n() as f64
        } else {
            0.0
        };
        trace.record(|| Event::CoarsenLevel {
            branch,
            level: i,
            vertices: lvl.n(),
            edges: lvl.m(),
            total_vwgt: lvl.total_vwgt(),
            edge_wgt,
            contracted_wgt: w0 - edge_wgt,
            matched_fraction,
            scheme: cfg.matching.abbrev(),
        });
    }
}

/// Run refinement on one level and record its `refine_level` event plus the
/// workspace-wide FM counters.
fn refine_level_recorded(
    state: &mut BisectState<'_>,
    bt: &BalanceTargets,
    cfg: &MlConfig,
    orig_n: usize,
    trace: &Trace,
    branch: u64,
    level: usize,
) {
    let cut_before = state.cut;
    let stats = refine_level_stats(state, bt, cfg.refinement, cfg, orig_n);
    if trace.is_enabled() {
        trace.count("fm_passes", stats.passes as u64);
        trace.count("fm_moves", stats.moves as u64);
        trace.count("fm_rollbacks", stats.rollbacks as u64);
        trace.count("early_exit_triggers", stats.early_exit_triggers as u64);
        trace.record(|| Event::RefineLevel {
            branch,
            level,
            vertices: state.graph().n(),
            boundary: state.boundary_count(),
            passes: stats.passes,
            moves: stats.moves,
            rollbacks: stats.rollbacks,
            early_exit_triggers: stats.early_exit_triggers,
            cut_before,
            cut_after: state.cut,
            policy: cfg.refinement.abbrev(),
        });
    }
}

/// The traced bisection worker. `branch` identifies the recursion path when
/// called from k-way (1 for a stand-alone bisection); it salts the emitted
/// events so per-level records from different subproblems stay separable.
pub(crate) fn bisect_targets_branch(
    g: &CsrGraph,
    cfg: &MlConfig,
    target: [Wgt; 2],
    trace: &Trace,
    branch: u64,
) -> BisectionResult {
    assert_eq!(
        target[0] + target[1],
        g.total_vwgt(),
        "targets must sum to the total vertex weight"
    );
    let n = g.n();
    if n == 0 {
        return BisectionResult {
            part: Vec::new(),
            cut: 0,
            pwgts: [0, 0],
            levels: 0,
        };
    }
    let mut rng = seeded(cfg.seed);
    let bt = BalanceTargets::new(target, cfg.imbalance);

    // Coarsening phase. The trace is the one record of phase times; a
    // disabled trace takes no timestamps at all.
    let t = trace.start();
    let h = coarsen_traced(g, cfg, &mut rng, trace);
    trace.stop(t, SPAN_COARSEN);
    record_coarsen_levels(&h, cfg, trace, branch);

    // Initial partitioning of the coarsest graph.
    let t = trace.start();
    let coarse_part = initial_partition_traced(
        h.coarsest(),
        &bt,
        cfg.initial,
        cfg.trials(),
        &mut rng,
        0,
        trace,
    );
    trace.stop(t, SPAN_INIT);

    // Refine the coarsest-level partition, then uncoarsen level by level:
    // each finer state is projected from the refined coarser one.
    let t = trace.start();
    let mut state = BisectState::new(h.coarsest(), coarse_part);
    refine_level_recorded(&mut state, &bt, cfg, n, trace, branch, h.levels() - 1);
    trace.stop(t, SPAN_REFINE);
    for level in (0..h.levels() - 1).rev() {
        let t = trace.start();
        state = BisectState::project(&h.graphs[level], &state, &h.cmaps[level]);
        trace.stop(t, SPAN_PROJECT);
        let t = trace.start();
        refine_level_recorded(&mut state, &bt, cfg, n, trace, branch, level);
        trace.stop(t, SPAN_REFINE);
    }
    // The last state refined is level 0's, the input graph itself, so its
    // cut and part weights are the result's.
    BisectionResult {
        cut: state.cut,
        pwgts: state.pwgts,
        part: state.part,
        levels: h.levels(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InitialPartitioning, MatchingScheme, RefinementPolicy};
    use crate::metrics::edge_cut_bisection;
    use mlgp_graph::generators::{
        grid2d, hierarchical_lp, lshape, powergrid, powerlaw, stiffness3d, tri_mesh2d,
    };

    #[test]
    fn grid_bisection_near_optimal() {
        // 32x32 grid: optimal bisection cut = 32. The multilevel default
        // should come close.
        let g = grid2d(32, 32);
        let r = bisect(&g, &MlConfig::default());
        assert_eq!(r.cut, edge_cut_bisection(&g, &r.part));
        assert!(r.cut <= 48, "cut {}", r.cut);
        let bt = BalanceTargets::even(g.total_vwgt(), 1.03);
        assert!(bt.balanced(r.pwgts), "{:?}", r.pwgts);
        assert!(r.levels > 1);
    }

    #[test]
    fn all_scheme_combinations_produce_valid_bisections() {
        let g = tri_mesh2d(20, 20, 6);
        let bt = BalanceTargets::even(g.total_vwgt(), 1.03);
        for matching in MatchingScheme::all() {
            for initial in InitialPartitioning::all() {
                for refinement in RefinementPolicy::evaluated() {
                    let cfg = MlConfig {
                        matching,
                        initial,
                        refinement,
                        ..MlConfig::default()
                    };
                    let r = bisect(&g, &cfg);
                    assert_eq!(r.cut, edge_cut_bisection(&g, &r.part));
                    assert!(
                        bt.balanced(r.pwgts),
                        "{matching:?}/{initial:?}/{refinement:?}: {:?}",
                        r.pwgts
                    );
                    assert!(r.cut > 0 && r.cut < g.total_adjwgt() / 4);
                }
            }
        }
    }

    #[test]
    fn uneven_targets_respected() {
        let g = grid2d(20, 20);
        let total = g.total_vwgt();
        let t0 = total / 4;
        let cfg = MlConfig::default();
        let r = bisect_targets(&g, &cfg, [t0, total - t0]);
        let bt = BalanceTargets::new([t0, total - t0], cfg.imbalance);
        assert!(bt.balanced(r.pwgts), "{:?} target {t0}", r.pwgts);
    }

    #[test]
    fn refinement_improves_over_none() {
        let g = lshape(40);
        let none = bisect(
            &g,
            &MlConfig {
                refinement: RefinementPolicy::None,
                ..MlConfig::default()
            },
        );
        let refined = bisect(&g, &MlConfig::default());
        assert!(
            refined.cut <= none.cut,
            "refined {} vs unrefined {}",
            refined.cut,
            none.cut
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = tri_mesh2d(15, 15, 8);
        let a = bisect(&g, &MlConfig::default());
        let b = bisect(&g, &MlConfig::default());
        assert_eq!(a.part, b.part);
        assert_eq!(a.cut, b.cut);
    }

    #[test]
    fn small_graph_skips_coarsening() {
        let g = grid2d(6, 6);
        let r = bisect(&g, &MlConfig::default());
        assert_eq!(r.levels, 1);
        assert!(r.cut >= 6); // optimal is 6
        assert!(r.cut <= 10);
    }

    #[test]
    fn handles_powerlaw_graphs() {
        let g = powerlaw(4000, 2, 5);
        let r = bisect(&g, &MlConfig::default());
        let bt = BalanceTargets::even(g.total_vwgt(), 1.03);
        assert!(bt.balanced(r.pwgts));
        assert_eq!(r.cut, edge_cut_bisection(&g, &r.part));
    }

    #[test]
    fn trace_records_one_event_per_hierarchy_level() {
        let g = grid2d(40, 40);
        let trace = Trace::enabled();
        let r = bisect_traced(&g, &MlConfig::default(), &trace);
        let events = trace.events();
        let coarsen: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, Event::CoarsenLevel { .. }))
            .collect();
        let refine: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, Event::RefineLevel { .. }))
            .collect();
        assert_eq!(coarsen.len(), r.levels);
        assert_eq!(refine.len(), r.levels);
        // Level 0 describes the input graph; matched fractions are sane.
        for e in &coarsen {
            let Event::CoarsenLevel {
                level,
                vertices,
                matched_fraction,
                ..
            } = e
            else {
                unreachable!()
            };
            if *level == 0 {
                assert_eq!(*vertices, g.n());
            }
            assert!((0.0..=1.0).contains(matched_fraction));
        }
        // Refinement never worsens the cut at any level.
        for e in &refine {
            let Event::RefineLevel {
                cut_before,
                cut_after,
                ..
            } = e
            else {
                unreachable!()
            };
            assert!(cut_after <= cut_before);
        }
        // The finest level's cut-after equals the returned cut.
        let Some(Event::RefineLevel {
            level: 0,
            cut_after,
            ..
        }) = events
            .iter()
            .rfind(|e| matches!(e, Event::RefineLevel { level: 0, .. }))
        else {
            panic!("no finest-level refine event");
        };
        assert_eq!(*cut_after, r.cut as i64);
    }

    /// `BisectState::project` must equal a from-scratch state on the
    /// projected partition, field by field, at every level of one
    /// hierarchy per request class, starting from the refined partitions
    /// the driver produces; the walk must end at the driver's result.
    #[test]
    fn projected_state_equals_a_fresh_build_at_every_level() {
        let graphs = [
            ("mesh2d", tri_mesh2d(45, 45, 3)),
            ("stiffness3d", stiffness3d(12, 12, 12)),
            ("power", powergrid(2000, 5)),
            ("circuit", powerlaw(2000, 3, 7)),
            ("lp", hierarchical_lp(14, 146, 9)),
        ];
        for (name, g) in &graphs {
            let cfg = MlConfig::default();
            let total = g.total_vwgt();
            let target = [total / 2, total - total / 2];
            let bt = BalanceTargets::new(target, cfg.imbalance);
            let mut rng = seeded(cfg.seed);
            let h = coarsen_traced(g, &cfg, &mut rng, &Trace::disabled());
            assert!(h.levels() >= 3, "{name}: {} levels", h.levels());
            let coarse_part = initial_partition_traced(
                h.coarsest(),
                &bt,
                cfg.initial,
                cfg.trials(),
                &mut rng,
                0,
                &Trace::disabled(),
            );
            let mut state = BisectState::new(h.coarsest(), coarse_part);
            refine_level_stats(&mut state, &bt, cfg.refinement, &cfg, g.n());
            for level in (0..h.levels() - 1).rev() {
                let projected = BisectState::project(&h.graphs[level], &state, &h.cmaps[level]);
                let fresh = BisectState::new(&h.graphs[level], h.project(level, &state.part));
                let ctx = format!("{name} level {level}");
                assert_eq!(projected.part, fresh.part, "{ctx}");
                assert_eq!(projected.ed, fresh.ed, "{ctx}");
                assert_eq!(projected.id, fresh.id, "{ctx}");
                assert_eq!(projected.pwgts, fresh.pwgts, "{ctx}");
                assert_eq!(projected.cut, fresh.cut, "{ctx}");
                state = projected;
                refine_level_stats(&mut state, &bt, cfg.refinement, &cfg, g.n());
            }
            let r = bisect_targets(g, &cfg, target);
            assert_eq!(state.part, r.part, "{name}");
            assert_eq!((state.cut, state.pwgts), (r.cut, r.pwgts), "{name}");
        }
    }
}
