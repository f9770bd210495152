//! Bench smoke: a small serving sweep that emits `BENCH_serving.json`.
//!
//! ```text
//! cargo run --release -p exactsim-examples --bin bench_smoke [OUT.json]
//! ```
//!
//! Runs a cold single-source sweep followed by a hot repeated-source batch on
//! a [`exactsim_service::SimRankService`], each sent from scoped client
//! threads (the artifact's `workers` is their count), and writes one JSON
//! object with queries/sec, cache hit rate, and p50/p99 serve latency — the
//! serving-side
//! benchmark trajectory CI uploads as an artifact on every run. The numbers
//! are smoke-sized (seconds, not minutes): the point is a continuous record
//! with a stable schema, not a rigorous benchmark.
//!
//! The reported p50/p99 are power-of-two **bucket upper bounds** (within 2×
//! of the true quantile; see `exactsim_obs::metrics::Histogram` for the
//! exact bucket bounds and the saturation rule past the top bucket).

use std::sync::Arc;
use std::time::Instant;

use exactsim::exactsim::ExactSimConfig;
use exactsim_graph::generators::barabasi_albert;
use exactsim_service::{AlgorithmKind, ServiceConfig, SimRankService};

/// Client threads sending each phase (reported as the artifact's `workers`).
const CLIENT_THREADS: usize = 4;

/// Sends `requests` (source, top-k) from [`CLIENT_THREADS`] scoped threads,
/// dealt round-robin, and panics on any failed request.
fn run_phase(service: &SimRankService, requests: &[(u32, Option<usize>)]) {
    std::thread::scope(|scope| {
        for thread in 0..CLIENT_THREADS {
            scope.spawn(move || {
                for &(source, top_k) in requests.iter().skip(thread).step_by(CLIENT_THREADS) {
                    let answered = match top_k {
                        Some(k) => service.top_k(AlgorithmKind::ExactSim, source, k).map(drop),
                        None => service.query(AlgorithmKind::ExactSim, source).map(drop),
                    };
                    answered.expect("bench request failed");
                }
            });
        }
    });
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serving.json".to_string());

    let n = 1_500;
    let graph = Arc::new(barabasi_albert(n, 4, true, 42).expect("valid generator parameters"));
    let config = ServiceConfig {
        cache_capacity: 512,
        exactsim: ExactSimConfig {
            epsilon: 1e-2,
            walk_budget: Some(100_000),
            ..ExactSimConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = SimRankService::new(Arc::clone(&graph), config).expect("valid service config");

    // Phase 1 (cold): 40 distinct sources — every query computes.
    let cold: Vec<(u32, Option<usize>)> = (0..40).map(|i| (i, None)).collect();
    let cold_n = cold.len();
    let cold_start = Instant::now();
    run_phase(&service, &cold);
    let cold_elapsed = cold_start.elapsed();

    // Phase 2 (hot): 400 top-10 queries over 20 hot sources — the cache and
    // in-flight dedup should absorb almost everything.
    let hot: Vec<(u32, Option<usize>)> = (0..400).map(|i| (i % 20, Some(10))).collect();
    let hot_n = hot.len();
    let hot_start = Instant::now();
    run_phase(&service, &hot);
    let hot_elapsed = hot_start.elapsed();

    let snap = service.stats();
    let total = (cold_n + hot_n) as f64;
    let elapsed = cold_elapsed + hot_elapsed;
    let qps = total / elapsed.as_secs_f64();
    let hot_qps = hot_n as f64 / hot_elapsed.as_secs_f64();
    let us = |d: Option<std::time::Duration>| {
        d.map_or("null".to_string(), |d| d.as_micros().to_string())
    };

    let json = format!(
        concat!(
            "{{\"bench\":\"serving\",\"schema_version\":1,",
            "\"graph\":{{\"model\":\"barabasi_albert\",\"nodes\":{},\"edges\":{},\"seed\":42}},",
            "\"workers\":{},\"algorithm\":\"exactsim\",\"epsilon\":1e-2,",
            "\"queries\":{},\"elapsed_ms\":{:.3},\"queries_per_sec\":{:.1},",
            "\"hot_queries_per_sec\":{:.1},",
            "\"hit_rate\":{:.4},\"computations\":{},\"dedup_joins\":{},",
            "\"p50_us\":{},\"p99_us\":{}}}"
        ),
        graph.num_nodes(),
        graph.num_edges(),
        CLIENT_THREADS,
        snap.queries,
        elapsed.as_secs_f64() * 1e3,
        qps,
        hot_qps,
        snap.hit_rate(),
        snap.computations,
        snap.dedup_joins,
        us(snap.p50),
        us(snap.p99),
    );
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench artifact");
    println!("{json}");
    eprintln!("bench_smoke: wrote {out_path}");

    // Smoke-level sanity: the serving layer must actually have absorbed the
    // hot phase, or the numbers are meaningless.
    assert!(
        snap.computations <= 60,
        "cold sweep (40) + hot sources (20) bound computations, got {}",
        snap.computations
    );
    assert!(
        snap.hit_rate() > 0.8,
        "hot phase must hit, got {}",
        snap.hit_rate()
    );
}
