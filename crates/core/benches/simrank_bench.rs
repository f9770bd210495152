//! `simrank-bench` — the core-algorithm benchmark harness.
//!
//! Times every single-source solver on a fixed family of generated graphs
//! (Erdős–Rényi, stochastic block model, preferential attachment at several
//! sizes), a set of allocation-sensitive kernel microbenches, and a
//! buffer-pool residency sweep that serves the optimized solver through the
//! paged storage backend at 25/50/100% page residency, and emits
//! `BENCH_core.json`. This file is the perf baseline every PR is measured
//! against: CI runs it with `--quick` and fails if any tracked per-op p50
//! regresses more than `--max-regression` (default 2.5×) against the
//! checked-in `bench/baseline_core.json` and `bench/baseline_paged.json`
//! (`--baseline` is repeatable), if a baseline record has no counterpart in
//! the run (a stale baseline), or if the paged sweep violates its own
//! gates: 100%-residency p50 within 1.5× of in-memory (the two timed in
//! alternation), and the 25%-residency pool completing bit-identically with
//! evictions > 0. An unknown argument exits 2 before anything runs, so a
//! mistyped `--baseline` cannot skip the gate.
//!
//! Run it locally with
//!
//! ```text
//! cargo bench -p exactsim --bench simrank_bench -- --quick --out BENCH_core.json
//! cargo bench -p exactsim --bench simrank_bench -- \
//!     --baseline bench/baseline_core.json --quick
//! ```
//!
//! The binary is a plain `harness = false` bench target: no criterion (the
//! vendored stub has no JSON output or baselines), just wall-clock sampling
//! with p50/p99 over per-query samples.

use std::time::Instant;

use exactsim::config::SimRankConfig;
use exactsim::exactsim::{ExactSim, ExactSimConfig, ExactSimVariant};
use exactsim::linearization::{Linearization, LinearizationConfig};
use exactsim::mc::{MonteCarlo, MonteCarloConfig};
use exactsim::parsim::{ParSim, ParSimConfig};
use exactsim::prsim::{PrSim, PrSimConfig};
use exactsim_graph::generators::{
    barabasi_albert, gnm_directed, stochastic_block_model, SbmConfig,
};
use exactsim_graph::linalg::{p_multiply_sparse, pt_multiply, SparseVec, Workspace};
use exactsim_graph::{DiGraph, NodeId};

/// One measured configuration of `BENCH_core.json`.
struct Record {
    /// "query" (per-query latency), "kernel" (per-op latency), "build"
    /// (index construction, reported in ms and exempt from regression gates)
    /// or "paged" (per-query latency through the buffer-managed page store
    /// at a fixed pool residency).
    kind: &'static str,
    algo: String,
    graph: String,
    n: usize,
    m: usize,
    eps: f64,
    samples: usize,
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
    build_ms: f64,
    /// Buffer-pool capacity the record ran with (0 for in-memory records).
    pool_pages: usize,
    /// Pool evictions incurred across all samples (0 for in-memory records).
    evictions: u64,
}

impl Record {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"kind\":\"{}\",\"algo\":\"{}\",\"graph\":\"{}\",\"n\":{},\"m\":{},",
                "\"eps\":{:e},\"threads\":1,\"samples\":{},\"p50_us\":{:.2},",
                "\"p99_us\":{:.2},\"mean_us\":{:.2},\"build_ms\":{:.3},",
                "\"pool_pages\":{},\"evictions\":{}}}"
            ),
            self.kind,
            self.algo,
            self.graph,
            self.n,
            self.m,
            self.eps,
            self.samples,
            self.p50_us,
            self.p99_us,
            self.mean_us,
            self.build_ms,
            self.pool_pages,
            self.evictions,
        )
    }

    /// The identity a baseline record is matched on. `eps` uses the same
    /// `{:e}` rendering as the JSON field so parsed baselines match exactly;
    /// the trailing thread count is always 1 and stays in the key so the
    /// checked-in baselines keep matching.
    fn key(&self) -> String {
        format!(
            "{}/{}/{}/{:e}/1",
            self.kind, self.algo, self.graph, self.eps
        )
    }
}

/// Per-op latency summary over a set of samples (µs).
struct Summary {
    samples: usize,
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
}

/// Runs `op` once for warmup and then `samples` timed times; each sample may
/// batch `iters` inner iterations (for sub-µs kernels) and reports per-op µs.
fn measure<F: FnMut()>(samples: usize, iters: usize, mut op: F) -> Summary {
    op(); // warmup: first-touch allocations, page faults, lazy pools
    let mut us: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        us.push(start.elapsed().as_secs_f64() * 1e6 / iters as f64);
    }
    summarize(us)
}

/// Times `a` and `b` in alternation, once each per source in `srcs` (after
/// one untimed warmup call each). Both then run under the same host
/// conditions, so drift over the run cannot decide their ratio the way it
/// can between two sequential runs.
fn measure_alternating(
    srcs: &[NodeId],
    mut a: impl FnMut(NodeId),
    mut b: impl FnMut(NodeId),
) -> (Summary, Summary) {
    a(srcs[0]);
    b(srcs[0]);
    let time = |op: &mut dyn FnMut(NodeId), s: NodeId| {
        let start = Instant::now();
        op(s);
        start.elapsed().as_secs_f64() * 1e6
    };
    let (mut us_a, mut us_b) = (Vec::new(), Vec::new());
    for &s in srcs {
        us_a.push(time(&mut a, s));
        us_b.push(time(&mut b, s));
    }
    (summarize(us_a), summarize(us_b))
}

/// p50/p99 (nearest rank) and mean of per-op µs samples.
fn summarize(mut us: Vec<f64>) -> Summary {
    us.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let pick = |q: f64| us[((q * (us.len() - 1) as f64).round() as usize).min(us.len() - 1)];
    Summary {
        samples: us.len(),
        p50_us: pick(0.50),
        p99_us: pick(0.99),
        mean_us: us.iter().sum::<f64>() / us.len() as f64,
    }
}

struct BenchGraph {
    name: &'static str,
    graph: DiGraph,
    /// `true` for the graph the acceptance criterion tracks.
    mid_size: bool,
}

fn graphs(quick: bool) -> Vec<BenchGraph> {
    let mut out = vec![
        BenchGraph {
            name: "er-1k",
            graph: gnm_directed(1_000, 6_000, 11).expect("generator"),
            mid_size: false,
        },
        BenchGraph {
            name: "sbm-1k2",
            graph: stochastic_block_model(SbmConfig {
                block_sizes: vec![400, 400, 400],
                p_within: 0.015,
                p_between: 0.001,
                seed: 13,
            })
            .expect("generator")
            .graph,
            mid_size: false,
        },
        BenchGraph {
            name: "ba-5k",
            graph: barabasi_albert(5_000, 5, true, 17).expect("generator"),
            mid_size: true,
        },
    ];
    if !quick {
        out.push(BenchGraph {
            name: "er-20k",
            graph: gnm_directed(20_000, 120_000, 19).expect("generator"),
            mid_size: false,
        });
        out.push(BenchGraph {
            name: "ba-20k",
            graph: barabasi_albert(20_000, 5, true, 23).expect("generator"),
            mid_size: false,
        });
    }
    out
}

/// Query sources spread deterministically over the node range.
fn sources(n: usize, count: usize) -> Vec<NodeId> {
    (0..count).map(|i| ((i * n) / count) as NodeId).collect()
}

fn push_query_record(
    records: &mut Vec<Record>,
    algo: &str,
    bg: &BenchGraph,
    eps: f64,
    build_ms: f64,
    summary: Summary,
) {
    records.push(Record {
        kind: "query",
        algo: algo.to_string(),
        graph: bg.name.to_string(),
        n: bg.graph.num_nodes(),
        m: bg.graph.num_edges(),
        eps,
        samples: summary.samples,
        p50_us: summary.p50_us,
        p99_us: summary.p99_us,
        mean_us: summary.mean_us,
        build_ms,
        pool_pages: 0,
        evictions: 0,
    });
}

fn bench_algorithms(records: &mut Vec<Record>, bg: &BenchGraph, quick: bool) {
    let n = bg.graph.num_nodes();
    let samples = if quick { 9 } else { 25 };
    let srcs = sources(n, samples);
    let mut next = {
        let mut i = 0usize;
        let srcs = srcs.clone();
        move || {
            let s = srcs[i % srcs.len()];
            i += 1;
            s
        }
    };

    // ExactSim optimized — the tentpole target. Budgeted like the serving
    // configuration so a query is ms-scale, not the paper's 1e-7 regime.
    let eps_opt = 1e-3;
    let opt = ExactSim::new(
        &bg.graph,
        ExactSimConfig {
            epsilon: eps_opt,
            variant: ExactSimVariant::Optimized,
            walk_budget: Some(200_000),
            ..Default::default()
        },
    )
    .expect("exactsim");
    let summary = measure(samples, 1, || {
        let s = next();
        std::hint::black_box(opt.query(s).expect("query"));
    });
    push_query_record(records, "exactsim_opt", bg, eps_opt, 0.0, summary);

    // ExactSim basic (dense hop vectors, Bernoulli D).
    let eps_basic = 1e-2;
    let basic = ExactSim::new(
        &bg.graph,
        ExactSimConfig {
            epsilon: eps_basic,
            variant: ExactSimVariant::Basic,
            walk_budget: Some(100_000),
            ..Default::default()
        },
    )
    .expect("exactsim basic");
    let summary = measure(samples, 1, || {
        let s = next();
        std::hint::black_box(basic.query(s).expect("query"));
    });
    push_query_record(records, "exactsim_basic", bg, eps_basic, 0.0, summary);

    // ParSim (index-free, deterministic).
    let parsim = ParSim::new(
        &bg.graph,
        ParSimConfig {
            simrank: SimRankConfig::default(),
            iterations: 30,
        },
    )
    .expect("parsim");
    let summary = measure(samples, 1, || {
        let s = next();
        std::hint::black_box(parsim.query(s).expect("query"));
    });
    push_query_record(records, "parsim", bg, 1e-2, 0.0, summary);

    // Linearization (Monte-Carlo D preprocessing).
    let eps_lin = 0.05;
    let build = Instant::now();
    let lin = Linearization::build(
        &bg.graph,
        LinearizationConfig {
            simrank: SimRankConfig::default(),
            epsilon: eps_lin,
            walk_budget: Some(500_000),
        },
    )
    .expect("linearization");
    let lin_build_ms = build.elapsed().as_secs_f64() * 1e3;
    let summary = measure(samples, 1, || {
        let s = next();
        std::hint::black_box(lin.query(s).expect("query"));
    });
    push_query_record(records, "linearization", bg, eps_lin, lin_build_ms, summary);

    // MC (stored-walk index).
    let build = Instant::now();
    let mc = MonteCarlo::build(
        &bg.graph,
        MonteCarloConfig {
            simrank: SimRankConfig::default(),
            walks_per_node: if quick { 100 } else { 200 },
            walk_length: 10,
        },
    )
    .expect("mc");
    let mc_build_ms = build.elapsed().as_secs_f64() * 1e3;
    let summary = measure(samples, 1, || {
        let s = next();
        std::hint::black_box(mc.query(s).expect("query"));
    });
    push_query_record(records, "mc", bg, 1e-1, mc_build_ms, summary);

    // PRSim (inverted hop-column index).
    let eps_prsim = 1e-2;
    let build = Instant::now();
    let prsim = PrSim::build(
        &bg.graph,
        PrSimConfig {
            simrank: SimRankConfig::default(),
            epsilon: eps_prsim,
            walk_budget: Some(200_000),
            max_index_entries: Some(20_000_000),
        },
    )
    .expect("prsim");
    let prsim_build_ms = build.elapsed().as_secs_f64() * 1e3;
    let summary = measure(samples, 1, || {
        let s = next();
        std::hint::black_box(prsim.query(s).expect("query"));
    });
    push_query_record(records, "prsim", bg, eps_prsim, prsim_build_ms, summary);
}

/// Allocation-sensitive kernel microbenches on the mid-size graph: these are
/// the per-op costs the Scratch/Workspace reuse work targets.
fn bench_kernels(records: &mut Vec<Record>, bg: &BenchGraph, quick: bool) {
    let g = &bg.graph;
    let n = g.num_nodes();
    let samples = if quick { 9 } else { 25 };
    let mut push = |algo: &str, summary: Summary| {
        records.push(Record {
            kind: "kernel",
            algo: algo.to_string(),
            graph: bg.name.to_string(),
            n,
            m: g.num_edges(),
            eps: 0.0,
            samples: summary.samples,
            p50_us: summary.p50_us,
            p99_us: summary.p99_us,
            mean_us: summary.mean_us,
            build_ms: 0.0,
            pool_pages: 0,
            evictions: 0,
        });
    };

    // Sparse P·x with a reused workspace, on a support that has spread for a
    // few levels (the shape the diagonal exploration sees).
    let mut ws = Workspace::new(n);
    let mut x = SparseVec::unit(0, 1.0);
    for _ in 0..3 {
        x = p_multiply_sparse(g, &x, &mut ws);
    }
    push(
        "p_multiply_sparse",
        measure(samples, 50, || {
            std::hint::black_box(p_multiply_sparse(g, &x, &mut ws));
        }),
    );

    // Dense Pᵀ·x — the accumulation step of every Linearization-style solver.
    let xd = vec![1.0 / n as f64; n];
    let mut yd = vec![0.0; n];
    push(
        "pt_multiply_dense",
        measure(samples, 20, || {
            pt_multiply(g, &xd, &mut yd);
            std::hint::black_box(&yd);
        }),
    );

    // SparseVec::from_unsorted on a duplicate-heavy unsorted entry list (the
    // aggregate-vector build path of sparse_hop_vectors).
    let entries: Vec<(NodeId, f64)> = (0..20_000)
        .map(|i| (((i * 7919) % n) as NodeId, 1e-4))
        .collect();
    push(
        "sparse_vec_from_unsorted",
        measure(samples, 20, || {
            std::hint::black_box(SparseVec::from_unsorted(entries.clone()));
        }),
    );

    // Repeated identical optimized queries: after the Scratch work this path
    // performs no per-query accumulator allocation.
    let opt = ExactSim::new(
        g,
        ExactSimConfig {
            epsilon: 1e-3,
            variant: ExactSimVariant::Optimized,
            walk_budget: Some(200_000),
            ..Default::default()
        },
    )
    .expect("exactsim");
    push(
        "exactsim_opt_repeat",
        measure(samples, 1, || {
            std::hint::black_box(opt.query(0).expect("query"));
        }),
    );
}

/// Buffer-pool residency sweep on the mid-size graph: images its in-rows into a
/// page file, then serves the same optimized-ExactSim queries through a
/// [`PagedGraph`] with the buffer pool sized to 25%, 50% and 100% of the
/// file's page count, next to an in-memory reference (`exactsim_opt_mem`).
/// The in-memory and 100% solvers answer the same `5 × samples` distinct
/// sources in alternation; 25% and 50% are timed on their own over every
/// fifth of those sources.
/// Emits one `kind:"paged"` record per configuration, carrying the pool
/// capacity and the evictions incurred.
///
/// Returns the paged backend's acceptance-gate failures instead of exiting,
/// so `main` can still write the full `BENCH_core.json` first:
///
/// 1. the fully-resident pool (100%) must answer within 1.5× of the
///    in-memory p50 — the pool hit path is bookkeeping, not I/O;
/// 2. the thrashing pool (25%) must have evicted pages — otherwise the sweep
///    is not exercising replacement at all;
/// 3. the thrashing pool must return bit-identical scores to the in-memory
///    solver (the whole point of the `NeighborAccess` split).
fn bench_paged(records: &mut Vec<Record>, bg: &BenchGraph, quick: bool) -> Vec<String> {
    use exactsim_store::{BufferPool, PagedGraph, DEFAULT_PAGE_BYTES};
    use std::sync::Arc;

    let samples = if quick { 9 } else { 25 };
    let srcs = sources(bg.graph.num_nodes(), samples);
    let eps = 1e-3;
    let config = || ExactSimConfig {
        epsilon: eps,
        variant: ExactSimVariant::Optimized,
        walk_budget: Some(200_000),
        ..Default::default()
    };
    let mut push = |algo: &str, pool_pages: usize, evictions: u64, summary: Summary| {
        records.push(Record {
            kind: "paged",
            algo: algo.to_string(),
            graph: bg.name.to_string(),
            n: bg.graph.num_nodes(),
            m: bg.graph.num_edges(),
            eps,
            samples: summary.samples,
            p50_us: summary.p50_us,
            p99_us: summary.p99_us,
            mean_us: summary.mean_us,
            build_ms: 0.0,
            pool_pages,
            evictions,
        });
    };

    let path = std::env::temp_dir().join(format!("simrank-bench-{}.espg", std::process::id()));
    PagedGraph::build(&path, bg.graph.in_graph(), 0, DEFAULT_PAGE_BYTES).expect("page-file image");
    let total_pages = PagedGraph::open(&path, Arc::new(BufferPool::new(2)))
        .expect("page file")
        .num_pages();
    let open = |pct: usize| {
        // Round up and floor at 2 frames (single-threaded queries pin at
        // most one page at a time; 2 keeps the clock hand meaningful).
        let cap = (total_pages * pct).div_ceil(100).max(2);
        let pool = Arc::new(BufferPool::new(cap));
        let paged = PagedGraph::open(&path, Arc::clone(&pool)).expect("page file");
        (cap, pool, paged)
    };

    // The in-memory reference and the fully resident pool answer the same
    // sources in alternation, so the 1.5x gate compares like work under like
    // host conditions (not the rotated-offset `exactsim_opt` record above,
    // and not two runs minutes apart). The sources are distinct: query costs
    // vary by source, and repeating a few sources leaves gaps in the sorted
    // samples that a p50 can jump across.
    let mem = ExactSim::new(&bg.graph, config()).expect("exactsim");
    let (r100_cap, r100_pool, r100_graph) = open(100);
    let r100 = ExactSim::new(&r100_graph, config()).expect("exactsim paged");
    let (mem_summary, r100_summary) = measure_alternating(
        &sources(bg.graph.num_nodes(), 5 * samples),
        |s| {
            std::hint::black_box(mem.query(s).expect("query"));
        },
        |s| {
            std::hint::black_box(r100.query(s).expect("query"));
        },
    );
    let mem_p50 = mem_summary.p50_us;
    push("exactsim_opt_mem", 0, 0, mem_summary);
    let report = |tag: &str, cap: usize, pool: &BufferPool, p50: f64| {
        let stats = pool.stats();
        eprintln!(
            "[simrank-bench] paged {tag}: {cap}/{total_pages} pages, p50 {p50:.1}µs \
             (mem {mem_p50:.1}µs), {} evictions, {:.1}% hit rate",
            stats.evictions,
            stats.hit_rate() * 100.0
        );
        stats.evictions
    };

    let mut failures = Vec::new();
    for (tag, pct) in [("r25", 25usize), ("r50", 50)] {
        let (cap, pool, paged) = open(pct);
        let solver = ExactSim::new(&paged, config()).expect("exactsim paged");
        let mut next = srcs.iter().copied().cycle();
        let summary = measure(samples, 1, || {
            let s = next.next().expect("a source rotation");
            std::hint::black_box(solver.query(s).expect("query"));
        });
        let evictions = report(tag, cap, &pool, summary.p50_us);
        if tag == "r25" {
            if evictions == 0 {
                failures.push(format!(
                    "paged/{}/r25: pool of {cap}/{total_pages} pages incurred no evictions",
                    bg.name
                ));
            }
            let s = srcs[0];
            let a = mem.query(s).expect("query").scores;
            let b = solver.query(s).expect("query").scores;
            if a != b {
                failures.push(format!(
                    "paged/{}/r25: scores for source {s} diverge from in-memory",
                    bg.name
                ));
            }
        }
        push(&format!("exactsim_opt_{tag}"), cap, evictions, summary);
    }

    let evictions = report("r100", r100_cap, &r100_pool, r100_summary.p50_us);
    // Same 100µs noise floor as the baseline gate: the ratio is meant to
    // catch a hit path that grew I/O or lock convoys, not scheduler jitter
    // on sub-100µs queries.
    if r100_summary.p50_us > mem_p50.max(100.0) * 1.5 {
        failures.push(format!(
            "paged/{}/r100: p50 {:.1}µs exceeds 1.5x the in-memory {:.1}µs",
            bg.name, r100_summary.p50_us, mem_p50
        ));
    }
    push("exactsim_opt_r100", r100_cap, evictions, r100_summary);
    let _ = std::fs::remove_file(&path);
    failures
}

/// Minimal extraction of `"key":value` number pairs from the baseline JSON —
/// enough to read back the file this binary writes (no serde offline).
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for obj in text.split('{').skip(1) {
        let field = |name: &str| -> Option<String> {
            let tag = format!("\"{name}\":");
            let rest = &obj[obj.find(&tag)? + tag.len()..];
            let rest = rest.trim_start_matches('"');
            let end = rest.find([',', '}', '"']).unwrap_or(rest.len());
            Some(rest[..end].to_string())
        };
        let (Some(kind), Some(algo), Some(graph), Some(eps), Some(threads), Some(p50)) = (
            field("kind"),
            field("algo"),
            field("graph"),
            field("eps"),
            field("threads"),
            field("p50_us"),
        ) else {
            continue;
        };
        if kind == "meta" {
            continue;
        }
        let Ok(p50) = p50.parse::<f64>() else {
            continue;
        };
        out.push((format!("{kind}/{algo}/{graph}/{eps}/{threads}"), p50));
    }
    out
}

/// Resolves a path argument. `cargo bench` runs this binary with the package
/// directory (`crates/core`) as cwd, but the documented interface — the CI
/// job, the README recipes, the checked-in baseline — is repo-root-relative,
/// so relative paths are anchored at the workspace root.
fn resolve_path(path: &str) -> std::path::PathBuf {
    let p = std::path::PathBuf::from(path);
    if p.is_absolute() {
        return p;
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/core has a workspace root two levels up")
        .join(p)
}

const USAGE: &str = "usage: cargo bench -p exactsim --bench simrank_bench -- \
[--quick] [--out PATH] [--baseline PATH]... [--max-regression FACTOR]";

fn main() {
    let mut quick = false;
    let mut out_path = String::from("BENCH_core.json");
    let mut baselines: Vec<String> = Vec::new();
    let mut max_regression = 2.5f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            // Repeatable: CI gates one run against both the core and the
            // paged baselines.
            "--baseline" => baselines.push(args.next().expect("--baseline needs a path")),
            "--max-regression" => {
                max_regression = args
                    .next()
                    .expect("--max-regression needs a factor")
                    .parse()
                    .expect("--max-regression must be a number")
            }
            // `cargo bench` appends this to every bench target's arguments.
            "--bench" => {}
            // A mistyped flag must not skip a gate and exit 0.
            other => {
                eprintln!("simrank-bench: unknown argument {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let mut records = Vec::new();
    let mut paged_failures = Vec::new();
    for bg in &graphs(quick) {
        eprintln!(
            "[simrank-bench] {} (n={}, m={})",
            bg.name,
            bg.graph.num_nodes(),
            bg.graph.num_edges()
        );
        bench_algorithms(&mut records, bg, quick);
        if bg.mid_size {
            bench_kernels(&mut records, bg, quick);
            paged_failures = bench_paged(&mut records, bg, quick);
        }
    }

    let body: Vec<String> = records.iter().map(Record::to_json).collect();
    let json = format!(
        "{{\"suite\":\"core\",\"mode\":\"{}\",\"records\":[\n  {}\n]}}\n",
        if quick { "quick" } else { "full" },
        body.join(",\n  ")
    );
    let out_path = resolve_path(&out_path);
    std::fs::write(&out_path, &json).expect("write BENCH_core.json");
    eprintln!(
        "[simrank-bench] wrote {} records to {}",
        records.len(),
        out_path.display()
    );
    for r in &records {
        eprintln!(
            "  {:<8} {:<24} p50 {:>10.1}µs  p99 {:>10.1}µs  build {:>8.1}ms",
            r.kind,
            format!("{}@{}", r.algo, r.graph),
            r.p50_us,
            r.p99_us,
            r.build_ms
        );
    }

    if !paged_failures.is_empty() {
        for f in &paged_failures {
            eprintln!("[simrank-bench] PAGED GATE {f}");
        }
        std::process::exit(1);
    }

    for path in baselines {
        let path = resolve_path(&path);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
        let base = parse_baseline(&text);
        let mut failures = Vec::new();
        for (key, base_p50) in &base {
            let Some(r) = records.iter().find(|r| r.key() == *key) else {
                // A record nothing produces any more would otherwise drop
                // out of the gate without a word.
                failures.push(format!(
                    "STALE {key}: in the baseline, but this run has no such record"
                ));
                continue;
            };
            // Floor the baseline at 100µs before applying the ratio: the
            // sub-100µs records (PRSim queries, kernel microbenches) are
            // dominated by scheduler noise across machines — the checked-in
            // baseline and the CI runner are different hardware — and a raw
            // ratio there gates noise, not code. The tentpole targets are
            // ms-scale and unaffected by the floor.
            let allowed = base_p50.max(100.0) * max_regression;
            if r.p50_us > allowed {
                failures.push(format!(
                    "REGRESSION {key}: p50 {:.1}µs exceeds {:.1}µs ({}µs baseline × {max_regression})",
                    r.p50_us, allowed, base_p50
                ));
            }
        }
        eprintln!(
            "[simrank-bench] baseline check vs {}: {} records checked",
            path.display(),
            base.len()
        );
        if base.is_empty() {
            eprintln!("[simrank-bench] FAIL: the baseline holds no records");
            std::process::exit(1);
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("[simrank-bench] {f}");
            }
            std::process::exit(1);
        }
        eprintln!("[simrank-bench] baseline check passed (max allowed {max_regression}x)");
    }
}
