//! The two workloads: how their inputs are made from the seed, how one
//! request is served through the public entry points, and how its output
//! is checked.
//!
//! The seed fixes the order in which requests arrive. The graphs and the
//! part counts form a fixed multiset, so the summed quality of one pass is
//! the same for every seed and every thread count (the kernels are
//! bit-identical at a fixed configuration seed).

use crate::stats::fnv1a;
use mlgp_graph::generators::{
    entry, grid2d_9pt, hierarchical_lp, lshape, powergrid, powerlaw, stiffness3d, tri_mesh2d,
};
use mlgp_graph::io::{read_chaco, read_matrix_market, write_chaco, write_matrix_market};
use mlgp_graph::rng::{seeded, shuffle};
use mlgp_graph::{CsrGraph, Permutation, Wgt};
use mlgp_order::{analyze_ordering, nested_dissection, NdConfig, SymbolicStats};
use mlgp_part::{communication_volume, edge_cut_kway, imbalance, kway_partition_refined, MlConfig};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Small graphs of every suite class arriving as file bytes, served on
    /// one thread.
    RequestMix,
    /// Nested-dissection ordering plus symbolic factorization of 3D meshes.
    NdOrder,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::RequestMix, Workload::NdOrder];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RequestMix => "request-mix",
            Workload::NdOrder => "nd-order",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads every request of this workload runs with.
    /// `nd-order` uses every core up to [`MAX_THREADS`].
    pub fn threads(self, nproc: usize) -> usize {
        match self {
            Workload::RequestMix => 1,
            Workload::NdOrder => nproc.clamp(1, MAX_THREADS),
        }
    }

    /// Whether requests produce a partition (else an ordering).
    pub fn partitions(self) -> bool {
        self != Workload::NdOrder
    }
}

/// Most threads a request runs with. The shim starts a thread at every
/// recursion fork, so on a many-core shared host more threads would mostly
/// measure the host's scheduler; two keep every parallel path running and
/// make runs on hosts of different sizes comparable.
pub const MAX_THREADS: usize = 2;
/// Suite graphs of `nd-order`: two 3D stiffness grids and a tet mesh.
pub const ND_KEYS: [&str; 3] = ["BC29", "BC31", "BRCK"];
/// Size of the `nd-order` graphs relative to the suite's.
pub const ND_SCALE: f64 = 0.5;

/// `request-mix` graph classes, one generator family per suite class.
pub const MIX_CLASSES: [&str; 5] = ["mesh2d", "stiffness3d", "power", "circuit", "lp"];
/// Distinct graphs per class.
pub const MIX_PER_CLASS: usize = 8;
/// Vertex-count range of the `request-mix` graphs (log-spaced).
pub const MIX_N: (f64, f64) = (3000.0, 25000.0);
/// Vertex-count range of the 3D stiffness class, whose 27-point stencil
/// has six times the edges per vertex of the other classes (the suite's
/// BC28–BC29 sizes).
pub const MIX_N_STIFFNESS: (f64, f64) = (3000.0, 12000.0);
/// Part counts drawn by `request-mix` requests.
pub const MIX_K: [usize; 11] = [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64];
/// Every `MIX_REPEAT_EVERY`-th graph is requested a second time at a new
/// part count, which makes a quarter of the requests re-partitions.
pub const MIX_REPEAT_EVERY: usize = 3;

/// Serialisation a `request-mix` graph arrives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Chaco/METIS text with vertex and edge weights.
    Chaco,
    /// MatrixMarket symmetric pattern (structure only).
    MatrixMarket,
}

/// A graph as it arrives over the wire.
#[derive(Debug)]
pub struct Payload {
    /// Its format.
    pub format: Format,
    /// The file bytes.
    pub bytes: Vec<u8>,
}

/// One request of a pass.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// Index into [`Inputs::graphs`].
    pub graph: usize,
    /// Part count (unused by orderings).
    pub k: usize,
    /// Whether an earlier request of the pass already sent this graph.
    pub repartition: bool,
}

/// Everything a workload serves, made before the first request.
#[derive(Debug)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Name of each graph.
    pub names: Vec<String>,
    /// The generated graphs.
    pub graphs: Vec<CsrGraph>,
    /// `request-mix` only: each graph serialised, as requests carry it.
    pub payloads: Vec<Payload>,
    /// One pass of requests, in arrival order.
    pub requests: Vec<Request>,
}

/// Generate a workload's inputs. `scale` shrinks every graph (1.0 is the
/// benchmark; the self-tests use small values).
pub fn build_inputs(workload: Workload, seed: u64, scale: f64) -> Inputs {
    let mut rng = seeded(seed ^ 0x6265_6e63_6821);
    let (names, graphs, payloads, mut requests) = match workload {
        Workload::NdOrder => {
            let graphs: Vec<CsrGraph> = ND_KEYS
                .iter()
                .map(|key| {
                    entry(key)
                        .expect("benchmark graphs are suite entries")
                        .generate_scaled(ND_SCALE * scale)
                })
                .collect();
            let requests = (0..graphs.len())
                .map(|i| Request {
                    graph: i,
                    k: 0,
                    repartition: false,
                })
                .collect();
            let names = ND_KEYS.iter().map(|k| k.to_string()).collect();
            (names, graphs, Vec::new(), requests)
        }
        Workload::RequestMix => {
            let mut names = Vec::new();
            let mut graphs = Vec::new();
            let mut payloads = Vec::new();
            for class in 0..MIX_CLASSES.len() {
                for i in 0..MIX_PER_CLASS {
                    let (name, g) = mix_graph(class, i, scale);
                    let format = if (class + i) % 2 == 0 {
                        Format::Chaco
                    } else {
                        Format::MatrixMarket
                    };
                    let mut bytes = Vec::new();
                    match format {
                        Format::Chaco => write_chaco(&g, &mut bytes),
                        Format::MatrixMarket => write_matrix_market(&g, &mut bytes),
                    }
                    .expect("writing to memory cannot fail");
                    names.push(name);
                    graphs.push(g);
                    payloads.push(Payload { format, bytes });
                }
            }
            let mut requests = Vec::new();
            for (j, g) in graphs.iter().enumerate() {
                let k = |shift: usize| cap_k(MIX_K[(7 * j + shift) % MIX_K.len()], g.n());
                requests.push(Request {
                    graph: j,
                    k: k(0),
                    repartition: false,
                });
                if j % MIX_REPEAT_EVERY == 0 {
                    requests.push(Request {
                        graph: j,
                        k: k(5),
                        repartition: false,
                    });
                }
            }
            (names, graphs, payloads, requests)
        }
    };
    shuffle(&mut rng, &mut requests);
    let mut seen = vec![false; graphs.len()];
    for r in &mut requests {
        r.repartition = seen[r.graph];
        seen[r.graph] = true;
    }
    Inputs {
        workload,
        names,
        graphs,
        payloads,
        requests,
    }
}

/// Keep at least 20 vertices per part, which only binds at small scales.
fn cap_k(k: usize, n: usize) -> usize {
    k.min((n / 20).max(2))
}

/// The `i`-th `request-mix` graph of class `class`. Generator seeds are
/// fixed, so the benchmark seed changes only the arrival order.
fn mix_graph(class: usize, i: usize, scale: f64) -> (String, CsrGraph) {
    let t = i as f64 / (MIX_PER_CLASS - 1) as f64;
    let (lo, hi) = if MIX_CLASSES[class] == "stiffness3d" {
        MIX_N_STIFFNESS
    } else {
        MIX_N
    };
    let n = (lo * (hi / lo).powf(t) * scale).max(200.0);
    let gseed = 0x6d69_7800 + (100 * class + i) as u64;
    let side = n.sqrt().round() as usize;
    let g = match MIX_CLASSES[class] {
        "mesh2d" => match i % 3 {
            0 => tri_mesh2d(side, side, gseed),
            // The L-shape keeps three quarters of a square grid.
            1 => lshape(((n / 0.75).sqrt() as usize / 2 * 2).max(4)),
            _ => grid2d_9pt(side, side, false),
        },
        "stiffness3d" => {
            let a = (n.cbrt().round() as usize).max(3);
            stiffness3d(a, a, a)
        }
        "power" => powergrid(n as usize, gseed),
        "circuit" => powerlaw(n as usize, 2 + i % 2, gseed),
        // "lp": FINAN512's block size; the block count sets the size.
        _ => hierarchical_lp((n as usize / 146).max(2), 146, gseed),
    };
    (format!("{}-{}", MIX_CLASSES[class], i), g)
}

/// The multilevel configuration every partitioning request uses.
pub fn ml_config(threads: usize) -> MlConfig {
    MlConfig {
        threads,
        ..MlConfig::default()
    }
}

/// The nested-dissection configuration every ordering request uses.
pub fn nd_config(threads: usize) -> NdConfig {
    NdConfig {
        threads,
        ..NdConfig::mlnd()
    }
}

/// What a request returns.
#[derive(Debug)]
pub enum Output {
    /// A k-way partition and the cut the partitioner reported.
    Partition {
        /// Part label per vertex.
        part: Vec<u32>,
        /// Reported edge cut.
        cut: Wgt,
    },
    /// A fill-reducing ordering and its symbolic factorization.
    Ordering {
        /// The ordering.
        perm: Permutation,
        /// Fill and operation count of the ordering.
        stats: SymbolicStats,
    },
}

impl Output {
    /// Fingerprint of the output, compared across repeats and against the
    /// traced rebuild.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Output::Partition { part, .. } => fnv1a(part.iter().copied()),
            Output::Ordering { perm, .. } => fnv1a(perm.perm().iter().copied()),
        }
    }
}

/// A served request: the output, and the graph parsed from the request's
/// bytes when it carried a file.
#[derive(Debug)]
pub struct Served {
    /// Graph parsed from the payload (`request-mix` only).
    pub parsed: Option<CsrGraph>,
    /// The output.
    pub output: Output,
}

/// Parse a payload with the reader its format needs.
pub fn parse(p: &Payload) -> Result<CsrGraph, String> {
    match p.format {
        Format::Chaco => read_chaco(p.bytes.as_slice()),
        Format::MatrixMarket => read_matrix_market(p.bytes.as_slice()),
    }
    .map_err(|e| e.to_string())
}

/// Serve one request through the public entry points, untraced. Run it
/// inside a thread pool capped at `threads`.
pub fn serve(inputs: &Inputs, req: &Request, threads: usize) -> Result<Served, String> {
    let parsed = match inputs.workload {
        Workload::RequestMix => Some(parse(&inputs.payloads[req.graph])?),
        _ => None,
    };
    let g = parsed.as_ref().unwrap_or(&inputs.graphs[req.graph]);
    let output = if inputs.workload.partitions() {
        let r = kway_partition_refined(g, req.k, &ml_config(threads));
        Output::Partition {
            part: r.part,
            cut: r.edge_cut,
        }
    } else {
        let perm = nested_dissection(g, &nd_config(threads));
        let stats = analyze_ordering(g, &perm);
        Output::Ordering { perm, stats }
    };
    Ok(Served { parsed, output })
}

/// Quality of one checked output.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quality {
    /// Edge cut (partitions).
    pub cut: Wgt,
    /// Communication volume (partitions).
    pub comm_volume: usize,
    /// Largest part weight over the average (partitions).
    pub imbalance: f64,
    /// Cholesky operation count (orderings).
    pub opcount: f64,
    /// Nonzeros of the factor L (orderings).
    pub fill_nnz: u64,
}

/// Largest k-way imbalance a request may return. Recursive bisection
/// allows `MlConfig::imbalance` at each of the `⌈log2 k⌉` levels, and
/// every level may round by one vertex of the heaviest weight.
pub fn imbalance_bound(g: &CsrGraph, k: usize) -> f64 {
    let levels = (k as f64).log2().ceil() as i32;
    let avg = g.total_vwgt() as f64 / k as f64;
    let heaviest = g.vwgt().iter().copied().max().unwrap_or(1) as f64;
    ml_config(1).imbalance.powi(levels) + levels as f64 * heaviest / avg
}

/// Check a served request; returns its quality, or what was wrong.
pub fn check(inputs: &Inputs, req: &Request, served: &Served) -> Result<Quality, String> {
    let source = &inputs.graphs[req.graph];
    let g = match &served.parsed {
        Some(parsed) => {
            check_parse(source, parsed, inputs.payloads[req.graph].format)?;
            parsed
        }
        None => source,
    };
    match &served.output {
        Output::Partition { part, cut } => {
            let k = req.k;
            if part.len() != g.n() {
                return Err(format!("{} labels for {} vertices", part.len(), g.n()));
            }
            if let Some(&bad) = part.iter().find(|&&p| p as usize >= k) {
                return Err(format!("label {bad} out of range for k={k}"));
            }
            let mut sizes = vec![0usize; k];
            for &p in part {
                sizes[p as usize] += 1;
            }
            if let Some(empty) = sizes.iter().position(|&s| s == 0) {
                return Err(format!("part {empty} of {k} is empty"));
            }
            let imb = imbalance(g, part, k);
            let bound = imbalance_bound(g, k);
            if imb > bound {
                return Err(format!("imbalance {imb:.4} over the bound {bound:.4}"));
            }
            let recomputed = edge_cut_kway(g, part);
            if recomputed != *cut {
                return Err(format!(
                    "reported cut {cut} but the partition cuts {recomputed}"
                ));
            }
            Ok(Quality {
                cut: *cut,
                comm_volume: communication_volume(g, part),
                imbalance: imb,
                ..Quality::default()
            })
        }
        Output::Ordering { perm, stats } => {
            let n = g.n();
            let mut seen = vec![false; n];
            if perm.len() != n {
                return Err(format!("ordering of {} for {n} vertices", perm.len()));
            }
            for (pos, &v) in perm.iperm().iter().enumerate() {
                let v = v as usize;
                if v >= n || seen[v] || perm.perm()[v] as usize != pos {
                    return Err(format!("ordering is not a permutation at position {pos}"));
                }
                seen[v] = true;
            }
            // L holds the diagonal and every edge of the graph at least.
            if stats.nnz_l < (n + g.m()) as u64 || stats.opcount <= 0.0 {
                return Err(format!("implausible symbolic factorization {stats:?}"));
            }
            Ok(Quality {
                opcount: stats.opcount,
                fill_nnz: stats.nnz_l,
                ..Quality::default()
            })
        }
    }
}

/// The parsed graph must be the one that was serialised: identical for
/// Chaco, the same structure for MatrixMarket (which drops weights).
fn check_parse(source: &CsrGraph, parsed: &CsrGraph, format: Format) -> Result<(), String> {
    let same_structure = parsed.n() == source.n()
        && parsed.xadj() == source.xadj()
        && parsed.adjncy() == source.adjncy();
    let same_weights = parsed.vwgt() == source.vwgt() && parsed.adjwgt() == source.adjwgt();
    if same_structure && (format == Format::MatrixMarket || same_weights) {
        Ok(())
    } else {
        Err(format!(
            "{format:?} parse changed the graph: n {} -> {}, m {} -> {}",
            source.n(),
            parsed.n(),
            source.m(),
            parsed.m()
        ))
    }
}
