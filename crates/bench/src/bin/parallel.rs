//! Strong-scaling figure for the multilevel pipeline.
//!
//! The paper's §5 argues the multilevel scheme parallelizes (56× on a
//! 128-processor Cray T3D for their message-passing formulation) across
//! the independent subproblems of the recursion. This binary measures the
//! shared-memory analogue on a ≥200k-vertex generator mesh under pool
//! caps of 1/2/4/8 threads: a **per-phase table** for the full refined
//! pipeline (`kway_partition_refined`, k = 8), splitting coarsen vs
//! init/refine/project (the paper's CTime vs ITime/RTime/PTime). Its
//! speedup comes from the recursion forks, the only place the pool reaches.
//!
//! Every run fingerprints its final labeling and cut, so the binary doubles
//! as an end-to-end determinism cross-check: it exits 1 if any thread count
//! produced a different partition.
//!
//! ```sh
//! cargo run --release -p mlgp-bench --bin parallel [--scale F] [--json]
//! ```

use mlgp_bench::{finish_or_exit, timed, BenchOpts};
use mlgp_graph::generators::tri_mesh2d;
use mlgp_linalg::with_fanout;
use mlgp_part::{kway_partition_refined_traced, MlConfig};
use mlgp_trace::{Trace, SPAN_COARSEN, SPAN_INIT, SPAN_PROJECT, SPAN_REFINE};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const SEED: u64 = 4242;

fn main() {
    let opts = BenchOpts::from_args();
    // ~202.5k vertices at scale 1; --scale F scales the vertex count
    // linearly.
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
    let cfg = MlConfig {
        seed: SEED,
        ..MlConfig::default()
    };
    // One `kway_partition_refined` run per thread count, each under a pool
    // of that size, fingerprinting the final labeling + cut.
    println!("full pipeline (kway_partition_refined, k=8), per-phase:");
    // Per run: coarsen, init, refine, project and total seconds.
    let mut runs: Vec<(usize, [f64; 5])> = Vec::new();
    let mut reference: Option<u64> = None;
    let mut deterministic = true;
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
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!(
        "\ndeterminism cross-check: {}",
        if deterministic {
            "OK (partition bit-identical at every thread count)"
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
