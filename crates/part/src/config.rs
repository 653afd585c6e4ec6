//! Configuration of the multilevel algorithm: one knob per phase, matching
//! the design space explored in §3 of the paper.

/// Matching scheme used during coarsening (§3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatchingScheme {
    /// RM — random maximal matching.
    Random,
    /// HEM — heavy-edge matching (the paper's new heuristic).
    HeavyEdge,
    /// LEM — light-edge matching (contrast scheme).
    LightEdge,
    /// HCM — heavy-clique matching (edge-density driven).
    HeavyClique,
}

impl MatchingScheme {
    /// Paper abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            MatchingScheme::Random => "RM",
            MatchingScheme::HeavyEdge => "HEM",
            MatchingScheme::LightEdge => "LEM",
            MatchingScheme::HeavyClique => "HCM",
        }
    }

    /// All schemes, in the order of the paper's Table 2.
    pub fn all() -> [MatchingScheme; 4] {
        [
            MatchingScheme::Random,
            MatchingScheme::HeavyEdge,
            MatchingScheme::LightEdge,
            MatchingScheme::HeavyClique,
        ]
    }
}

/// Algorithm for partitioning the coarsest graph (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InitialPartitioning {
    /// GGP — breadth-first graph growing.
    GraphGrowing,
    /// GGGP — greedy (gain-driven) graph growing. The paper's choice.
    GreedyGraphGrowing,
    /// SBP — spectral bisection of the coarse graph.
    Spectral,
}

impl InitialPartitioning {
    /// Paper abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            InitialPartitioning::GraphGrowing => "GGP",
            InitialPartitioning::GreedyGraphGrowing => "GGGP",
            InitialPartitioning::Spectral => "SBP",
        }
    }

    /// All schemes.
    pub fn all() -> [InitialPartitioning; 3] {
        [
            InitialPartitioning::GraphGrowing,
            InitialPartitioning::GreedyGraphGrowing,
            InitialPartitioning::Spectral,
        ]
    }

    /// Number of random starting vertices the paper uses per scheme
    /// (§3.2: 10 for GGP, 5 for GGGP).
    pub fn default_trials(self) -> usize {
        match self {
            InitialPartitioning::GraphGrowing => 10,
            InitialPartitioning::GreedyGraphGrowing => 5,
            InitialPartitioning::Spectral => 1,
        }
    }
}

/// Refinement policy applied during uncoarsening (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RefinementPolicy {
    /// GR — a single greedy (one-pass KL) iteration.
    Greedy,
    /// KLR — Kernighan-Lin iterated to a local minimum.
    KernighanLin,
    /// BGR — boundary greedy: one pass seeded with boundary vertices only.
    BoundaryGreedy,
    /// BKLR — boundary Kernighan-Lin iterated to convergence.
    BoundaryKernighanLin,
    /// BKLGR — BKLR while the boundary is small, BGR once it grows past the
    /// switch threshold. The paper's recommended policy.
    BoundaryKlGreedyHybrid,
    /// No refinement at all (used by Table 3).
    None,
}

impl RefinementPolicy {
    /// Paper abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            RefinementPolicy::Greedy => "GR",
            RefinementPolicy::KernighanLin => "KLR",
            RefinementPolicy::BoundaryGreedy => "BGR",
            RefinementPolicy::BoundaryKernighanLin => "BKLR",
            RefinementPolicy::BoundaryKlGreedyHybrid => "BKLGR",
            RefinementPolicy::None => "NONE",
        }
    }

    /// The five policies evaluated in Table 4, in column order.
    pub fn evaluated() -> [RefinementPolicy; 5] {
        [
            RefinementPolicy::Greedy,
            RefinementPolicy::KernighanLin,
            RefinementPolicy::BoundaryGreedy,
            RefinementPolicy::BoundaryKernighanLin,
            RefinementPolicy::BoundaryKlGreedyHybrid,
        ]
    }
}

/// Full multilevel configuration. `Default` reproduces the paper's
/// recommended combination: HEM + GGGP + BKLGR.
#[derive(Clone, Copy, Debug)]
pub struct MlConfig {
    /// Coarsening matching scheme.
    pub matching: MatchingScheme,
    /// Coarsest-graph partitioner.
    pub initial: InitialPartitioning,
    /// Uncoarsening refinement policy.
    pub refinement: RefinementPolicy,
    /// Stop coarsening when the graph has at most this many vertices
    /// (paper: "a few hundred", |Vm| < 100).
    pub coarsen_to: usize,
    /// Stop coarsening when a level shrinks the graph by less than this
    /// factor (guards against matching collapse on star-like graphs).
    pub min_coarsen_shrink: f64,
    /// KL early-exit parameter `x`: abort a pass after this many
    /// consecutive non-improving moves (paper: 50). Telemetry reports pass
    /// aborts caused by it as `early_exit_triggers` (see `RefineStats` and
    /// the `refine_level` trace events).
    pub early_exit_moves: usize,
    /// Allowed imbalance: each side may weigh up to `imbalance ×` its
    /// target.
    pub imbalance: f64,
    /// Number of initial-partition trials; 0 means the scheme's paper
    /// default (10 for GGP, 5 for GGGP).
    pub init_trials: usize,
    /// BKLGR switch: use BKLR while boundary size < this fraction of the
    /// *original* vertex count, BGR otherwise (paper: 2%).
    pub hybrid_boundary_frac: f64,
    /// RNG seed (the paper fixes its seed for all experiments).
    pub seed: u64,
    /// Ignored. Every kernel is serial; the installed pool
    /// (`ThreadPool::install`, the CLI's `--threads`) reaches only the
    /// recursion forks (`kway.rs`, and `nested.rs` in `mlgp-order`), and
    /// results are bit-identical under any pool. The field stays only for
    /// callers that still set it.
    pub threads: usize,
}

impl Default for MlConfig {
    fn default() -> Self {
        Self {
            matching: MatchingScheme::HeavyEdge,
            initial: InitialPartitioning::GreedyGraphGrowing,
            refinement: RefinementPolicy::BoundaryKlGreedyHybrid,
            coarsen_to: 100,
            min_coarsen_shrink: 0.9,
            early_exit_moves: 50,
            imbalance: 1.03,
            init_trials: 0,
            hybrid_boundary_frac: 0.02,
            seed: 4242,
            threads: 0,
        }
    }
}

impl MlConfig {
    /// Effective number of initial-partition trials.
    pub fn trials(&self) -> usize {
        if self.init_trials > 0 {
            self.init_trials
        } else {
            self.initial.default_trials()
        }
    }

    /// Derive a decorrelated configuration for a sub-problem (recursive
    /// bisection re-seeds each recursion branch deterministically).
    pub fn reseed(&self, salt: u64) -> Self {
        Self {
            seed: mlgp_graph::rng::mix(self.seed, salt),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_recommendation() {
        let c = MlConfig::default();
        assert_eq!(c.matching, MatchingScheme::HeavyEdge);
        assert_eq!(c.initial, InitialPartitioning::GreedyGraphGrowing);
        assert_eq!(c.refinement, RefinementPolicy::BoundaryKlGreedyHybrid);
        assert_eq!(c.early_exit_moves, 50);
        assert_eq!(c.trials(), 5);
    }

    #[test]
    fn trials_follow_scheme_defaults() {
        let mut c = MlConfig {
            initial: InitialPartitioning::GraphGrowing,
            ..MlConfig::default()
        };
        assert_eq!(c.trials(), 10);
        c.init_trials = 3;
        assert_eq!(c.trials(), 3);
    }

    #[test]
    fn reseed_is_deterministic_and_decorrelated() {
        let c = MlConfig::default();
        assert_eq!(c.reseed(1).seed, c.reseed(1).seed);
        assert_ne!(c.reseed(1).seed, c.reseed(2).seed);
        assert_ne!(c.reseed(1).seed, c.seed);
    }

    #[test]
    fn abbreviations() {
        assert_eq!(MatchingScheme::HeavyEdge.abbrev(), "HEM");
        assert_eq!(InitialPartitioning::GreedyGraphGrowing.abbrev(), "GGGP");
        assert_eq!(RefinementPolicy::BoundaryKlGreedyHybrid.abbrev(), "BKLGR");
    }
}
