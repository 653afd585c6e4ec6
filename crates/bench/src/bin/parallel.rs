//! Strong-scaling figure for the multilevel pipeline and its kernels.
//!
//! The paper's §5 argues the multilevel scheme parallelizes (56× on a
//! 128-processor Cray T3D for their message-passing formulation) across
//! the independent subproblems of the recursion. This binary measures the
//! shared-memory analogue on a ≥200k-vertex generator mesh under pool
//! caps of 1/2/4/8 threads:
//!
//! * a **per-phase table** for the full refined pipeline
//!   (`kway_partition_refined`), splitting coarsen vs init/refine/project
//!   (the paper's CTime vs ITime/RTime/PTime). Its speedup comes from the
//!   recursion forks, the only place the pool reaches;
//! * **kernel rows** — matching, contraction, the coarsen loop and the
//!   metric reductions — and a **spectral/linalg section** (chunked-pairwise
//!   `dot`, Laplacian SpMV, a capped Lanczos solve). These are serial
//!   kernels, so their rows are ≈1.0× controls: they show that a pool
//!   costs them nothing.
//!
//! Every row fingerprints its output (the float kernels hash the raw f64
//! bit patterns), so the run doubles as an end-to-end determinism
//! cross-check: it fails loudly if any thread count produced a different
//! matching, coarse graph, hierarchy, metric value or float result, even by
//! one ulp.
//!
//! ```sh
//! cargo run --release -p mlgp-bench --bin parallel [--scale F] [--json]
//! ```

use mlgp_bench::{finish_or_exit, timed, BenchOpts};
use mlgp_graph::generators::tri_mesh2d;
use mlgp_graph::rng::seeded;
use mlgp_linalg::{lanczos_fiedler, vecops, with_fanout, LanczosOptions, Laplacian, SymOp};
use mlgp_part::{
    coarsen, compute_matching, contract, edge_cut_kway, kway_partition_refined_traced, metrics,
    part_weights, MatchingScheme, MlConfig,
};
use mlgp_trace::{Trace, SPAN_COARSEN, SPAN_INIT, SPAN_PROJECT, SPAN_REFINE};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const SEED: u64 = 4242;

fn main() {
    let opts = BenchOpts::from_args();
    // ~202.5k vertices at scale 1 (the ISSUE floor is 200k); --scale F
    // scales the vertex count linearly.
    let dim = ((450.0 * opts.scale.sqrt()) as usize).max(32);
    let g = tri_mesh2d(dim, dim, 7);
    opts.banner(&format!(
        "Strong scaling of the multilevel pipeline on a {}x{dim} triangular mesh \
         ({} vertices, {} edges)",
        dim,
        g.n(),
        g.m()
    ));
    let mut sink = opts.json_sink();
    let cewgt = vec![0i64; g.n()];
    let cfg = MlConfig {
        seed: SEED,
        ..MlConfig::default()
    };
    // A fixed k-way labeling for the metric reductions.
    let part: Vec<u32> = (0..g.n() as u32).map(|v| v % 8).collect();

    println!(
        "{:<10} | {}",
        "kernel",
        THREADS.map(|t| format!("{t:>8} thr")).join(" ")
    );
    let mut deterministic = true;
    for kernel in ["match", "contract", "coarsen", "metrics"] {
        let mut row = Vec::new();
        let mut t1 = 0.0f64;
        let mut reference: Option<u64> = None;
        for &nt in &THREADS {
            // Each kernel returns a cheap fingerprint of its output so the
            // run cross-checks determinism across thread counts.
            let (fp, secs) = with_fanout(nt, || match kernel {
                "match" => timed(|| {
                    let m =
                        compute_matching(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(SEED));
                    fingerprint(m.partner.iter().map(|&x| x as u64))
                }),
                "contract" => timed(|| {
                    let m =
                        compute_matching(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(SEED));
                    let (cmap, nc) = m.to_cmap();
                    let c = contract(&g, &cmap, nc, &cewgt);
                    fingerprint(
                        c.graph
                            .adjncy()
                            .iter()
                            .map(|&x| x as u64)
                            .chain(c.graph.adjwgt().iter().map(|&x| x as u64)),
                    )
                }),
                "coarsen" => timed(|| {
                    let h = coarsen(&g, &cfg, &mut seeded(SEED));
                    fingerprint(
                        h.graphs
                            .iter()
                            .flat_map(|l| l.adjncy().iter().map(|&x| x as u64))
                            .chain([h.levels() as u64]),
                    )
                }),
                _ => timed(|| {
                    let cut = edge_cut_kway(&g, &part) as u64;
                    let w = part_weights(&g, &part, 8);
                    let b = metrics::boundary_count(&g, &part) as u64;
                    fingerprint(w.iter().map(|&x| x as u64).chain([cut, b]))
                }),
            });
            if nt == 1 {
                t1 = secs;
            }
            match reference {
                None => reference = Some(fp),
                Some(r) if r != fp => {
                    deterministic = false;
                    eprintln!("DETERMINISM VIOLATION: {kernel} differs at {nt} threads");
                }
                _ => {}
            }
            let speedup = t1 / secs;
            row.push(format!("{:>6.3}s{:>5}", secs, format!("{speedup:.1}x")));
            sink.row(|o| {
                o.field_str("bench", "parallel");
                o.field_str("kernel", kernel);
                o.field_u64("threads", nt as u64);
                o.field_f64("secs", secs);
                o.field_f64("speedup", speedup);
                o.field_u64("n", g.n() as u64);
                o.field_u64("nnz", g.nnz() as u64);
            });
        }
        println!("{kernel:<10} | {}", row.join(" "));
    }
    // Phase-level scaling of the full refined pipeline (coarsen vs the
    // uncoarsening phases, the paper's CTime vs ITime/RTime/PTime): one
    // `kway_partition_refined` run per thread count, each under a pool of
    // that size, fingerprinting the final labeling + cut.
    println!("\nfull pipeline (kway_partition_refined, k=8), per-phase:");
    // Per run: coarsen, init, refine, project and total seconds.
    let mut runs: Vec<(usize, [f64; 5])> = Vec::new();
    let mut reference: Option<u64> = None;
    for &nt in &THREADS {
        let trace = Trace::enabled();
        let (r, total) = with_fanout(nt, || {
            timed(|| kway_partition_refined_traced(&g, 8, &cfg, &trace))
        });
        let fp = fingerprint(r.part.iter().map(|&x| x as u64).chain([r.edge_cut as u64]));
        match reference {
            None => reference = Some(fp),
            Some(rf) if rf != fp => {
                deterministic = false;
                eprintln!("DETERMINISM VIOLATION: refined pipeline differs at {nt} threads");
            }
            _ => {}
        }
        let span = |path| trace.span_total(path).unwrap_or_default().as_secs_f64();
        let secs = [
            span(SPAN_COARSEN),
            span(SPAN_INIT),
            span(SPAN_REFINE),
            span(SPAN_PROJECT),
            total,
        ];
        runs.push((nt, secs));
    }
    println!(
        "{:<10} | {}",
        "phase",
        THREADS.map(|t| format!("{t:>8} thr")).join(" ")
    );
    let phases = ["coarsen", "init", "refine", "project", "total"];
    for (i, phase) in phases.into_iter().enumerate() {
        let t1 = runs[0].1[i];
        let mut row = Vec::new();
        for (nt, times) in &runs {
            let secs = times[i];
            let speedup = if secs > 0.0 { t1 / secs } else { 1.0 };
            row.push(format!("{:>6.3}s{:>5}", secs, format!("{speedup:.1}x")));
            sink.row(|o| {
                o.field_str("bench", "parallel");
                o.field_str("kernel", "pipeline");
                o.field_str("phase", phase);
                o.field_u64("threads", *nt as u64);
                o.field_f64("secs", secs);
                o.field_f64("speedup", speedup);
                o.field_u64("n", g.n() as u64);
                o.field_u64("nnz", g.nnz() as u64);
            });
        }
        println!("{phase:<10} | {}", row.join(" "));
    }
    // Spectral/linalg controls: the deterministic chunked-pairwise vector
    // reductions, the Laplacian SpMV, and a capped-iteration Lanczos solve
    // on the same mesh, all serial. Fingerprints are
    // FNV-1a over the f64 bit patterns, so any cross-thread divergence —
    // even one ulp — fails the run.
    println!("\nspectral/linalg kernels (deterministic chunked reductions):");
    println!(
        "{:<10} | {}",
        "kernel",
        THREADS.map(|t| format!("{t:>8} thr")).join(" ")
    );
    // Deterministic dense test vectors (no RNG: pure functions of index).
    let x: Vec<f64> = (0..g.n())
        .map(|i| ((i * 2654435761) % 1000) as f64 / 500.0 - 1.0)
        .collect();
    let y: Vec<f64> = (0..g.n())
        .map(|i| ((i * 40503 + 17) % 1000) as f64 / 250.0 - 2.0)
        .collect();
    // Repetition counts keep each cell in the tens-of-ms range at scale 1.
    let dot_reps = 200usize;
    let spmv_reps = 50usize;
    for kernel in ["dot", "spmv", "lanczos"] {
        let mut row = Vec::new();
        let mut t1 = 0.0f64;
        let mut reference: Option<u64> = None;
        for &nt in &THREADS {
            let (fp, secs) = with_fanout(nt, || match kernel {
                "dot" => timed(|| {
                    let mut acc = 0u64;
                    for _ in 0..dot_reps {
                        acc ^= vecops::dot(&x, &y).to_bits();
                    }
                    fingerprint([acc, vecops::norm(&x).to_bits()].into_iter())
                }),
                "spmv" => timed(|| {
                    let lap = Laplacian::new(&g);
                    let mut out = vec![0.0f64; g.n()];
                    for _ in 0..spmv_reps {
                        lap.apply(&x, &mut out);
                    }
                    fingerprint(out.iter().map(|v| v.to_bits()))
                }),
                _ => timed(|| {
                    // Capped Krylov budget: the bench measures kernel
                    // throughput, not convergence, and keeps the cell
                    // bounded on big --scale factors.
                    let lap = Laplacian::new(&g);
                    let r = lanczos_fiedler(
                        &lap,
                        &LanczosOptions {
                            max_steps: 30,
                            max_restarts: 1,
                            tol: 1e-8,
                            seed: SEED,
                        },
                    );
                    fingerprint(
                        r.vector
                            .iter()
                            .map(|v| v.to_bits())
                            .chain([r.lambda.to_bits(), r.matvecs as u64]),
                    )
                }),
            });
            if nt == 1 {
                t1 = secs;
            }
            match reference {
                None => reference = Some(fp),
                Some(r) if r != fp => {
                    deterministic = false;
                    eprintln!("DETERMINISM VIOLATION: {kernel} differs at {nt} threads");
                }
                _ => {}
            }
            let speedup = t1 / secs;
            row.push(format!("{:>6.3}s{:>5}", secs, format!("{speedup:.1}x")));
            sink.row(|o| {
                o.field_str("bench", "parallel");
                o.field_str("kernel", kernel);
                o.field_str("section", "spectral");
                o.field_u64("threads", nt as u64);
                o.field_f64("secs", secs);
                o.field_f64("speedup", speedup);
                o.field_u64("n", g.n() as u64);
                o.field_u64("nnz", g.nnz() as u64);
            });
        }
        println!("{kernel:<10} | {}", row.join(" "));
    }
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!(
        "\ndeterminism cross-check: {}",
        if deterministic {
            "OK (all kernels bit-identical at every thread count)"
        } else {
            "FAILED"
        }
    );
    println!("detected hardware parallelism: {cores} core(s).");
    if cores == 1 {
        println!("on a single core this run demonstrates overhead-neutrality of the");
        println!("recursion forks (≈1.0x at every thread count), not speedup; the shim");
        println!("runs one half of each fork on a thread of its own, so multicore hosts");
        println!("see the real scaling figure.");
    }
    finish_or_exit(sink);
    if !deterministic {
        std::process::exit(1);
    }
}

/// FNV-1a over a word stream — enough to compare outputs across runs.
fn fingerprint(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    h
}
