//! The traced run: replays the workload's plan in-process and times the
//! calls into each layer's public functions. Spans come from this file only
//! (never from inside the program), live in memory, and are written out once
//! at the end. No end-to-end number comes from here.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use exactsim::diagonal::{estimate_diagonal_with, DiagonalEstimator};
use exactsim::exactsim::{ExactSim, ExactSimConfig, ExactSimStats};
use exactsim::ppr::sparse_hop_vectors;
use exactsim::scratch::{DiagonalScratch, Scratch};
use exactsim_graph::linalg::Workspace;
use exactsim_graph::{DiGraph, NeighborAccess, NodeId};
use exactsim_router::{RemoteShard, ShardBackend, ShardRouter};
use exactsim_service::net::{self, LineClient, NetOptions};
use exactsim_service::protocol::{self, Outcome, Request};
use exactsim_service::{AlgorithmKind, GraphStore, PagedOptions, SimRankService};

use crate::plan::{
    Op, Plan, Workload, PAGED_POOL_PAGES, TOPK, UPDATE_HOT_SET, UPDATE_READS_PER_CYCLE,
};
use crate::proc::{copy_dir, thread_minor_faults, Fnv};
use crate::workloads::{canonical, server_config, Env, RunReport};

/// Cold reads replayed on the paged backend.
const PAGES_PROBE_READS: usize = 8;
/// Hot-path calls per layer probe (parse, hit, extract, serialize).
const HIT_CALLS: usize = 1000;
/// Round trips per network and router probe.
const ROUND_TRIPS: usize = 400;
/// Sources warmed for the hit-path probes.
const WARM_SOURCES: usize = 8;

/// One span: a timed call into a layer, on behalf of one request.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// A span whose duration the program measured itself (commit stages).
    fn record(&mut self, name: &'static str, parent: usize, at: Instant, took: Duration) {
        let start_ns = self.ns(at);
        let req = self.spans[parent].req;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + took.as_nanos() as u64,
            parent: Some(parent),
            req,
        });
    }

    fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1000.0)
            .collect()
    }

    fn mean_us(&self, name: &str) -> f64 {
        mean(&self.micros(name))
    }

    /// Median of the per-request differences between two interleaved span
    /// kinds (`a` minus `b`): robust to a slow outlier on either side.
    fn paired_overhead_us(&self, a: &str, b: &str) -> f64 {
        let mut diffs: Vec<f64> = self
            .micros(a)
            .iter()
            .zip(self.micros(b))
            .map(|(x, y)| x - y)
            .collect();
        diffs.sort_by(f64::total_cmp);
        diffs.get(diffs.len() / 2).copied().unwrap_or(0.0)
    }

    fn write(&self, path: &Path, plan: &Plan) -> Result<(), String> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push_str(&format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"spans\":[\n",
            plan.workload.name(),
            plan.seed
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}\n",
                if i > 0 { "," } else { "" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.req
            ));
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        fs::File::create(path)
            .and_then(|mut f| f.write_all(out.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Reusable kernel workspaces for the core replica.
struct Scratches {
    query: Scratch,
    hop: Workspace,
    diag: Vec<DiagonalScratch>,
}

impl Scratches {
    fn new(n: usize) -> Scratches {
        Scratches {
            query: Scratch::new(n),
            hop: Workspace::new(n),
            diag: Vec::new(),
        }
    }
}

/// Per-cold-read core numbers.
#[derive(Clone, Copy, Debug)]
struct CoreSample {
    source: NodeId,
    query_us: f64,
    hop_us: f64,
    diag_us: f64,
    minor_faults: u64,
    stats: ExactSimStats,
}

/// `ExactSim`'s walk budget: scale every `R(k)` down once the total exceeds
/// the cap (same arithmetic as the solver's private `apply_budget`).
fn apply_budget(allocation: &mut [u64], budget: Option<u64>) -> (u64, u64) {
    let sum = |a: &[u64]| a.iter().fold(0u64, |acc, &r| acc.saturating_add(r));
    let requested = sum(allocation);
    match budget {
        Some(budget) if requested > budget => {
            let factor = budget as f64 / requested as f64;
            for r in allocation.iter_mut() {
                if *r > 0 {
                    *r = (((*r as f64) * factor).ceil() as u64).max(1);
                }
            }
            (requested, sum(allocation))
        }
        _ => (requested, requested),
    }
}

/// One cold read: the whole `ExactSim::query_with`, then the replica's hop
/// vectors and Algorithm-3 diagonal with the solver's own levels, pruning
/// threshold, allocation and tail skip. The replica must reproduce the
/// solver's walk pairs and hop nnz before any phase time counts.
fn core_read<G: NeighborAccess>(
    tracer: &mut Tracer,
    solver: &ExactSim<G>,
    graph: &G,
    cfg: &ExactSimConfig,
    scratches: &mut Scratches,
    source: NodeId,
    req: u64,
) -> Result<CoreSample, String> {
    let root = tracer.open("cold_read", None, req);
    let faults = thread_minor_faults();
    let result = tracer
        .span("core.query_with", Some(root), req, || {
            solver.query_with(source, &mut scratches.query)
        })
        .map_err(|e| e.to_string())?;
    let minor_faults = thread_minor_faults() - faults;

    let sc = &cfg.simrank;
    let sqrt_c = sc.sqrt_decay();
    let eps = cfg.epsilon / 2.0;
    let levels = sc.iterations_for_epsilon(eps);
    let prune = cfg
        .prune_threshold_override
        .unwrap_or((1.0 - sqrt_c).powi(2) * eps);
    let hops = tracer.span("core.hop", Some(root), req, || {
        sparse_hop_vectors(graph, source, sqrt_c, levels, prune, &mut scratches.hop)
    });
    let r_base = solver.theoretical_sample_count();
    let mut allocation = vec![0u64; graph.num_nodes()];
    for (k, p) in hops.aggregate.iter() {
        if p > 0.0 {
            allocation[k as usize] = (r_base * p * p).ceil().min(9.0e18) as u64;
        }
    }
    let (requested, total) = apply_budget(&mut allocation, cfg.walk_budget);
    let tail_skip = (1.0 - sqrt_c).powi(2) * eps / 4.0;
    let estimator = DiagonalEstimator::LocalDeterministic(cfg.explore_caps);
    let diag = tracer.span("core.diag", Some(root), req, || {
        estimate_diagonal_with(
            graph,
            &allocation,
            &estimator,
            sqrt_c,
            tail_skip,
            sc.seed ^ source as u64,
            sc.threads,
            &mut scratches.diag,
        )
    });
    tracer.close(root);

    let stats = result.stats;
    let replica = (
        requested,
        total,
        diag.walk_pairs,
        diag.explore_edges,
        hops.total_nnz(),
    );
    let solver_side = (
        stats.requested_walk_pairs,
        stats.total_walk_pairs,
        stats.simulated_walk_pairs,
        stats.explore_edges,
        stats.hop_nnz,
    );
    if replica != solver_side {
        return Err(format!(
            "core replica diverged from ExactSim on source {source}: \
             (requested, total, walk pairs, explore edges, hop nnz) {replica:?} vs {solver_side:?}"
        ));
    }
    let spans = tracer.spans.len();
    let us = |i: usize| (tracer.spans[i].end_ns - tracer.spans[i].start_ns) as f64 / 1000.0;
    Ok(CoreSample {
        source,
        query_us: us(root + 1),
        hop_us: us(spans - 2),
        diag_us: us(spans - 1),
        minor_faults,
        stats,
    })
}

fn check_hit_reply(reply: &str, expected: &str) -> Result<(), String> {
    if canonical(reply) == canonical(expected) {
        Ok(())
    } else {
        Err(format!("replies differ: {reply:.120} vs {expected:.120}"))
    }
}

/// Per-layer metrics, in output order: `(name, value, unit)`.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Replays `plan` layer by layer. `untraced` is this seed's untraced run
/// (for counters and the mean read latency the residual is taken from).
pub fn run(
    plan: &Plan,
    env: &Env,
    graph: &Arc<DiGraph>,
    untraced: &RunReport,
    spans_path: &Path,
) -> Result<Metrics, String> {
    let mut tracer = Tracer::new();
    let config = server_config();
    let cfg = config.exactsim.clone();
    let n = graph.num_nodes();
    let mut scratches = Scratches::new(n);
    let cold = plan.cold_reads();

    // core: every read of the plan that runs the kernel. update_mix's run on
    // the committed graphs, so they are replayed in the store section.
    let mut core: Vec<CoreSample> = Vec::new();
    let solver = ExactSim::new(Arc::clone(graph), cfg.clone()).map_err(|e| e.to_string())?;
    let base_sources: Vec<NodeId> = match plan.workload {
        Workload::ColdExact => cold.iter().map(|&(_, s)| s).collect(),
        Workload::HotTopkRouted => plan.warmup.clone(),
        Workload::UpdateMix => Vec::new(),
    };
    for (i, &src) in base_sources.iter().enumerate() {
        core.push(core_read(
            &mut tracer,
            &solver,
            graph,
            &cfg,
            &mut scratches,
            src,
            i as u64,
        )?);
    }

    // store: recovery of a copy of the prepared dir, then commits on it:
    // each round's writes on update_mix (every round recovers its own copy,
    // as its server did), the probe's on the read-only workloads.
    let histories: Vec<&[Op]> = match plan.workload {
        Workload::UpdateMix => plan.rounds.iter().map(|r| &plan.timed[r.clone()]).collect(),
        _ => vec![&plan.probe],
    };
    let mut wal_growth = Vec::new();
    let mut cycle = 0usize;
    for (h, write_ops) in histories.into_iter().enumerate() {
        let store_dir = env.run_dir.join(format!("trace-store-{h}"));
        copy_dir(&env.prepared, &store_dir)?;
        let store = tracer
            .span("store.recover", None, h as u64, || {
                GraphStore::open(&store_dir)
            })
            .map_err(|e| format!("recover: {e}"))?;
        let durable = SimRankService::with_store(Arc::new(store), config.clone())
            .map_err(|e| e.to_string())?;
        let wal = store_dir.join("wal.log");
        let wal_len = || fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        for op in write_ops {
            match *op {
                Op::Add(u, v) => {
                    durable
                        .store()
                        .stage_insert(u, v)
                        .map_err(|e| e.to_string())?;
                }
                Op::Del(u, v) => {
                    durable
                        .store()
                        .stage_delete(u, v)
                        .map_err(|e| e.to_string())?;
                }
                Op::Commit => {
                    let before = wal_len();
                    let id = tracer.open("store.commit", None, cycle as u64);
                    let at = Instant::now();
                    let report = durable.commit().map_err(|e| format!("commit: {e}"))?;
                    tracer.close(id);
                    let t = report.timings;
                    tracer.record("store.csr_merge", id, at + t.staging, t.csr_merge);
                    tracer.record(
                        "store.wal_fsync",
                        id,
                        at + t.staging + t.csr_merge + t.wal_append,
                        t.fsync,
                    );
                    let after = wal_len();
                    if after > before {
                        wal_growth.push((after - before) as f64);
                    }
                    cycle += 1;
                    if plan.workload == Workload::UpdateMix {
                        let handle = durable.store().graph();
                        let solver = ExactSim::new(handle.clone(), cfg.clone())
                            .map_err(|e| e.to_string())?;
                        for &(_, src) in cold.iter().filter(|(c, _)| *c == cycle) {
                            let req = core.len() as u64;
                            core.push(core_read(
                                &mut tracer,
                                &solver,
                                &handle,
                                &cfg,
                                &mut scratches,
                                src,
                                req,
                            )?);
                        }
                    }
                }
                Op::Read(_) => {}
            }
        }
        drop(durable);
    }

    // The servers' kernel counters must agree with the replica. One serving
    // process computes each cold read once; behind the router each hot source
    // is computed by at least one replica and at most by every replica.
    let replayed: u64 = core.iter().map(|s| s.stats.simulated_walk_pairs).sum();
    let (served, copies) = match plan.workload {
        Workload::HotTopkRouted => (untraced.warmup_walk_pairs, untraced.backends as u64),
        _ => (untraced.timed_walk_pairs, 1),
    };
    if served < replayed || served > copies * replayed {
        return Err(format!(
            "served walk pairs {served} over {copies} process(es) do not match \
             the replayed plan's {replayed}"
        ));
    }

    // pages: imaging, then the same `ExactSim::query` on the paged handle
    // (a ~90%-resident pool) and on the in-memory graph, for the first cold
    // reads of the plan.
    let pages_dir = env.run_dir.join("trace-pages");
    let paged_store = tracer
        .span("pages.image", None, 0, || {
            GraphStore::new(Arc::clone(graph)).with_paging(
                &pages_dir,
                PagedOptions {
                    pool_pages: PAGED_POOL_PAGES,
                    ..PagedOptions::default()
                },
            )
        })
        .map_err(|e| format!("paging: {e}"))?;
    let paged = ExactSim::new(paged_store.graph(), cfg.clone()).map_err(|e| e.to_string())?;
    let pool_before = paged_store.pool_stats().ok_or("store is not paged")?;
    for (i, src) in core
        .iter()
        .map(|s| s.source)
        .take(PAGES_PROBE_READS)
        .enumerate()
    {
        let req = i as u64;
        let mem = tracer
            .span("pages.mem_query", None, req, || solver.query(src))
            .map_err(|e| e.to_string())?;
        let on_pages = tracer
            .span("pages.paged_query", None, req, || paged.query(src))
            .map_err(|e| e.to_string())?;
        let bits = |scores: &[f64]| {
            let mut f = Fnv::new();
            scores
                .iter()
                .for_each(|s| f.add(&s.to_bits().to_le_bytes()));
            f.0
        };
        if bits(&mem.scores) != bits(&on_pages.scores) {
            return Err(format!("paged answer for {src} is not bit-identical"));
        }
    }
    let pool_after = paged_store.pool_stats().ok_or("store is not paged")?;
    let pool = [
        pool_after.hits - pool_before.hits,
        pool_after.misses - pool_before.misses,
        pool_after.evictions - pool_before.evictions,
    ];
    drop(paged);
    drop(paged_store);
    let _ = fs::remove_dir_all(&pages_dir);

    // service + protocol: the hit path on warmed sources, over the plan's
    // own read stream where it has one.
    let service =
        SimRankService::new(Arc::clone(graph), config.clone()).map_err(|e| e.to_string())?;
    let warm: Vec<NodeId> = match plan.workload {
        Workload::ColdExact => base_sources.iter().take(WARM_SOURCES).copied().collect(),
        _ => plan.warmup.iter().take(WARM_SOURCES).copied().collect(),
    };
    for &src in &warm {
        service
            .query(AlgorithmKind::ExactSim, src)
            .map_err(|e| e.to_string())?;
    }
    let mut stream: Vec<NodeId> = plan
        .timed
        .iter()
        .filter_map(|op| match op {
            Op::Read(s) if warm.contains(s) => Some(*s),
            _ => None,
        })
        .take(HIT_CALLS)
        .collect();
    let mut next = 0;
    while stream.len() < HIT_CALLS {
        stream.push(warm[next % warm.len()]);
        next += 1;
    }
    let computed = service.stats().computations;
    let mut expected: Vec<String> = Vec::with_capacity(HIT_CALLS);
    for (i, &src) in stream.iter().enumerate() {
        let req = i as u64;
        let line = format!("topk {src} {TOPK}");
        let parsed = tracer.span("protocol.parse", None, req, || protocol::parse_line(&line));
        if !matches!(parsed, Ok(Some(Request::TopK { .. }))) {
            return Err(format!("`{line}` did not parse as topk"));
        }
        let response = tracer
            .span("service.hit", None, req, || {
                service.query(AlgorithmKind::ExactSim, src)
            })
            .map_err(|e| e.to_string())?;
        let top = tracer.span("service.topk_extract", None, req, || response.top_k(TOPK));
        expected.push(tracer.span("protocol.serialize", None, req, || top.to_json()));
    }
    if service.stats().computations != computed {
        return Err("the hit-path probe ran the kernel".into());
    }

    // net: a round trip to an in-process listener minus serve_line alone.
    let opts = NetOptions::default();
    let shard0 =
        net::serve(service.clone(), "127.0.0.1:0", opts.clone()).map_err(|e| e.to_string())?;
    let shard1 =
        net::serve(service.clone(), "127.0.0.1:0", opts.clone()).map_err(|e| e.to_string())?;
    let mut direct = LineClient::connect(shard0.local_addr()).map_err(|e| e.to_string())?;
    for (i, (src, expected)) in stream.iter().zip(&expected).take(ROUND_TRIPS).enumerate() {
        let req = i as u64;
        let line = format!("topk {src} {TOPK}");
        let reply = tracer
            .span("net.round_trip", None, req, || direct.round_trip(&line))
            .map_err(|e| e.to_string())?;
        let local = tracer.span("protocol.serve_line", None, req, || {
            protocol::serve_line(&service, AlgorithmKind::ExactSim, &line)
        });
        match local {
            Some(Outcome::Reply(local)) => check_hit_reply(&reply, &local)?,
            _ => return Err(format!("`{line}` produced no reply")),
        }
        check_hit_reply(&reply, expected)?;
    }

    // router: routed read minus single-server read on the same stream, over
    // two listeners of one warm service (so both "replicas" hit).
    let backends: Vec<Box<dyn ShardBackend>> = vec![
        Box::new(RemoteShard::new(shard0.local_addr().to_string())),
        Box::new(RemoteShard::new(shard1.local_addr().to_string())),
    ];
    let router = ShardRouter::new(backends)?;
    let front = net::serve(router, "127.0.0.1:0", opts).map_err(|e| e.to_string())?;
    let mut routed = LineClient::connect(front.local_addr()).map_err(|e| e.to_string())?;
    for (i, src) in stream.iter().take(ROUND_TRIPS).enumerate() {
        let req = i as u64;
        let line = format!("topk {src} {TOPK}");
        let via_router = tracer
            .span("router.routed", None, req, || routed.round_trip(&line))
            .map_err(|e| e.to_string())?;
        let single = tracer
            .span("router.single", None, req, || direct.round_trip(&line))
            .map_err(|e| e.to_string())?;
        check_hit_reply(&via_router, &single)?;
    }
    drop(routed);
    drop(direct);
    for handle in [front, shard1, shard0] {
        handle.request_shutdown();
        handle.join();
    }
    if service.stats().computations != computed {
        return Err("the network probes ran the kernel".into());
    }

    // Assemble. Core means are per cold read; the residual uses the
    // untraced mean read latency of the same seed.
    let per_read = |f: fn(&CoreSample) -> f64| mean(&core.iter().map(f).collect::<Vec<_>>());
    let hop = per_read(|s| s.hop_us);
    let diag = per_read(|s| s.diag_us);
    let accum = per_read(|s| s.query_us - s.hop_us - s.diag_us);
    let kernel = hop + diag + accum;
    let pages_overhead = tracer.mean_us("pages.paged_query") - tracer.mean_us("pages.mem_query");
    let parse = tracer.mean_us("protocol.parse");
    let serialize = tracer.mean_us("protocol.serialize");
    let hit = tracer.mean_us("service.hit");
    let extract = tracer.mean_us("service.topk_extract");
    let net_overhead = tracer.paired_overhead_us("net.round_trip", "protocol.serve_line");
    let router_overhead = tracer.paired_overhead_us("router.routed", "router.single");
    let front_end = net_overhead + parse + serialize + extract;
    let layers = match plan.workload {
        Workload::ColdExact => front_end + kernel,
        Workload::HotTopkRouted => front_end + hit + router_overhead,
        Workload::UpdateMix => {
            let misses = (UPDATE_HOT_SET as f64) / (UPDATE_READS_PER_CYCLE as f64);
            front_end + (1.0 - misses) * hit + misses * kernel
        }
    };
    let read_mean = mean(&untraced.read_us);
    let pool_fetches = (pool[0] + pool[1]).max(1) as f64;

    tracer.write(spans_path, plan)?;
    Ok(vec![
        ("core.hop_us", hop, "us"),
        ("core.diag_us", diag, "us"),
        ("core.accum_us", accum, "us"),
        (
            "core.walk_pairs",
            per_read(|s| s.stats.simulated_walk_pairs as f64),
            "count",
        ),
        (
            "core.explore_edges",
            per_read(|s| s.stats.explore_edges as f64),
            "count",
        ),
        (
            "core.hop_nnz",
            per_read(|s| s.stats.hop_nnz as f64),
            "count",
        ),
        (
            "core.minor_faults",
            per_read(|s| s.minor_faults as f64),
            "count",
        ),
        ("pages.hit_ratio", pool[0] as f64 / pool_fetches, "ratio"),
        ("pages.misses", pool[1] as f64, "count"),
        ("pages.evictions", pool[2] as f64, "count"),
        ("pages.overhead_us", pages_overhead, "us"),
        ("pages.image_s", tracer.mean_us("pages.image") / 1e6, "s"),
        ("service.hit_us", hit, "us"),
        ("service.topk_extract_us", extract, "us"),
        ("service.hit_ratio", untraced.hit_ratio, "ratio"),
        (
            "service.recomputes_per_commit",
            untraced.recomputes_per_commit,
            "count",
        ),
        ("protocol.parse_us", parse, "us"),
        ("protocol.serialize_us", serialize, "us"),
        ("net.overhead_us", net_overhead, "us"),
        (
            "router.shard_calls_per_read",
            untraced.shard_calls_per_read,
            "count",
        ),
        ("router.overhead_us", router_overhead, "us"),
        ("store.commit_us", tracer.mean_us("store.commit"), "us"),
        (
            "store.csr_merge_us",
            tracer.mean_us("store.csr_merge"),
            "us",
        ),
        (
            "store.wal_fsync_us",
            tracer.mean_us("store.wal_fsync"),
            "us",
        ),
        ("store.wal_bytes_per_commit", mean(&wal_growth), "bytes"),
        (
            "store.recover_s",
            tracer.mean_us("store.recover") / 1e6,
            "s",
        ),
        ("unattributed_us", read_mean - layers, "us"),
    ])
}
