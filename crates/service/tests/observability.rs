//! End-to-end coverage of the observability layer: the Prometheus scrape of
//! a live service, outcome-labeled query series, `stats` as a read of those
//! series, per-stage trace reports, the slow-query ring, and commit-stage
//! timings on a durable store.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use exactsim_graph::generators::barabasi_albert;
use exactsim_service::protocol::{execute, Outcome, Request};
use exactsim_service::{AlgorithmKind, GraphStore, ServiceConfig, ServiceError, SimRankService};

fn demo_service() -> SimRankService {
    let graph = Arc::new(barabasi_albert(60, 3, true, 7).unwrap());
    SimRankService::new(graph, ServiceConfig::fast_demo()).unwrap()
}

/// Extracts the value of the first sample line whose name+labels start with
/// `prefix` (sample lines are `name{labels} value` or `name value`).
fn sample_value(scrape: &str, prefix: &str) -> Option<f64> {
    scrape
        .lines()
        .find(|line| !line.starts_with('#') && line.starts_with(prefix))
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn idle_scrape_exposes_every_series_at_zero() {
    let scrape = demo_service().metrics_text();
    // Eager registration: a scrape before any traffic already contains every
    // family (Prometheus rate() needs the zero sample to exist).
    for (series, value) in [
        (
            "simrank_queries_total{algo=\"exactsim\",outcome=\"hit\"}",
            0.0,
        ),
        (
            "simrank_queries_total{algo=\"prsim\",outcome=\"miss\"}",
            0.0,
        ),
        ("simrank_queries_total{algo=\"mc\",outcome=\"dedup\"}", 0.0),
        (
            "simrank_query_latency_us_count{algo=\"exactsim\",outcome=\"miss\"}",
            0.0,
        ),
        ("simrank_query_stage_us_count{stage=\"kernel\"}", 0.0),
        ("simrank_commit_stage_us_count{stage=\"fsync\"}", 0.0),
        ("simrank_connections_accepted_total", 0.0),
        ("simrank_net_bytes_total{direction=\"in\"}", 0.0),
        ("simrank_kernel_mc_walks_total", 0.0),
        ("simrank_slow_queries_total", 0.0),
        ("simrank_epoch", 0.0),
        ("simrank_commits_total", 0.0),
        ("simrank_cache_evictions_total", 0.0),
        ("simrank_cache_invalidations_total", 0.0),
    ] {
        assert_eq!(sample_value(&scrape, series), Some(value), "{series}");
    }
    assert!(scrape.ends_with("# EOF\n"));
    // Histogram families render the full exposition triple.
    assert!(scrape.contains("# TYPE simrank_query_latency_us histogram"));
    assert!(scrape.contains(
        "simrank_query_latency_us_bucket{algo=\"exactsim\",outcome=\"hit\",le=\"+Inf\"} 0"
    ));
    assert!(scrape.contains("simrank_query_latency_us_sum{algo=\"exactsim\",outcome=\"hit\"} 0"));
}

#[test]
fn query_outcomes_land_in_their_labeled_series() {
    let service = demo_service();
    service.query(AlgorithmKind::ExactSim, 0).unwrap(); // miss
    service.query(AlgorithmKind::ExactSim, 0).unwrap(); // hit
    service.query(AlgorithmKind::ExactSim, 0).unwrap(); // hit
    assert!(matches!(
        service.query(AlgorithmKind::ExactSim, 9999),
        Err(ServiceError::Algorithm(_))
    )); // error

    let scrape = service.metrics_text();
    let series = |s| sample_value(&scrape, s);
    assert_eq!(
        series("simrank_queries_total{algo=\"exactsim\",outcome=\"miss\"}"),
        Some(1.0)
    );
    assert_eq!(
        series("simrank_queries_total{algo=\"exactsim\",outcome=\"hit\"}"),
        Some(2.0)
    );
    assert_eq!(
        series("simrank_queries_total{algo=\"exactsim\",outcome=\"error\"}"),
        Some(1.0)
    );
    // Latency histograms count only non-error outcomes; the aggregate serve
    // histogram (shared with `stats` p50/p99) counts all four.
    assert_eq!(
        series("simrank_query_latency_us_count{algo=\"exactsim\",outcome=\"miss\"}"),
        Some(1.0)
    );
    assert_eq!(
        series("simrank_query_latency_us_count{algo=\"exactsim\",outcome=\"hit\"}"),
        Some(2.0)
    );
    assert_eq!(series("simrank_serve_latency_us_count"), Some(4.0));
    // The miss and the errored query both entered the kernel (the bad node
    // id is rejected inside it), so the stage histogram holds two attempts;
    // serialize never ran: these queries went through the library API, not
    // the protocol.
    assert_eq!(
        series("simrank_query_stage_us_count{stage=\"kernel\"}"),
        Some(2.0)
    );
    assert_eq!(
        series("simrank_query_stage_us_count{stage=\"cache\"}"),
        Some(4.0)
    );
    // Kernel counters moved: ExactSim accounts solver levels + walk pairs.
    assert!(series("simrank_kernel_solver_iterations_total").unwrap() > 0.0);
}

/// A seeded mix on one service — hits, misses, dedup joins from 8 racing
/// threads, out-of-range errors, all three algorithms, capacity evictions,
/// and a write + commit through the protocol. With no query in flight, every
/// `stats` counter is exactly its series in one scrape, and the query books
/// balance.
#[test]
fn stats_counters_are_their_registry_series_in_one_scrape() {
    const RACERS: usize = 8;
    // 32 answers cannot hold the mix's 36 hot keys, so some are evicted.
    let graph = Arc::new(barabasi_albert(60, 3, true, 7).unwrap());
    let config = ServiceConfig {
        cache_capacity: 32,
        ..ServiceConfig::fast_demo()
    };
    let service = SimRankService::new(graph, config).unwrap();

    // Dedup joins: 8 threads released together onto one cold source. A
    // leader that finishes before any follower arrives leaves only cache
    // hits, so race fresh sources until at least one query joined.
    let mut races = 0u32;
    while service.stats().dedup_joins == 0 {
        assert!(
            races < 20,
            "{RACERS} racing threads never joined a computation"
        );
        let barrier = Barrier::new(RACERS);
        std::thread::scope(|scope| {
            for _ in 0..RACERS {
                scope.spawn(|| {
                    barrier.wait();
                    service.query(AlgorithmKind::ExactSim, 40 + races).unwrap();
                });
            }
        });
        races += 1;
    }

    // Seeded mix over a 12-source hot set (a miss, then hits) with one
    // request in eight aimed past the 60-node graph (an error).
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    for _ in 0..300 {
        let algo = AlgorithmKind::ALL[(next() % 3) as usize];
        let source = if next() % 8 == 0 {
            60 + (next() % 4) as u32
        } else {
            (next() % 12) as u32
        };
        let _ = service.query(algo, source);
    }
    for request in [Request::AddEdge { u: 0, v: 59 }, Request::Commit] {
        assert!(matches!(
            execute(&service, AlgorithmKind::ExactSim, &request),
            Outcome::Reply(reply) if !reply.contains("\"error\"")
        ));
    }
    service.query(AlgorithmKind::ExactSim, 0).unwrap(); // adopts epoch 1

    assert_eq!(service.in_flight(), 0);
    let snap = service.stats();
    let scrape = service.metrics_text();
    let series = |name: &str| sample_value(&scrape, name).unwrap() as u64;
    let outcome = |outcome: &str| -> u64 {
        AlgorithmKind::ALL
            .iter()
            .map(|algo| {
                series(&format!(
                    "simrank_queries_total{{algo=\"{}\",outcome=\"{outcome}\"}}",
                    algo.wire_name()
                ))
            })
            .sum()
    };
    assert_eq!(snap.cache_hits, outcome("hit"));
    assert_eq!(snap.computations, outcome("miss"));
    assert_eq!(snap.dedup_joins, outcome("dedup"));
    assert_eq!(snap.errors, outcome("error"));
    assert_eq!(
        snap.queries,
        snap.cache_hits + snap.dedup_joins + snap.computations + snap.errors
    );
    assert_eq!(snap.queries, 300 + 1 + (RACERS as u64) * u64::from(races));
    assert_eq!(series("simrank_serve_latency_us_count"), snap.queries);
    assert_eq!(series("simrank_index_builds_total"), snap.index_builds);
    assert_eq!(
        series("simrank_epoch_refreshes_total"),
        snap.epoch_refreshes
    );
    assert_eq!(series("simrank_updates_staged_total"), snap.updates_staged);
    assert_eq!(
        series("simrank_commit_requests_total"),
        snap.commit_requests
    );
    assert_eq!(series("simrank_cache_evictions_total"), snap.evictions);
    assert_eq!(
        series("simrank_cache_invalidations_total"),
        snap.invalidations
    );

    // The mix reached every outcome, every algorithm, and every counter.
    assert!(snap.cache_hits > 0 && snap.computations > 0, "{snap:?}");
    assert!(snap.dedup_joins > 0 && snap.errors > 0, "{snap:?}");
    // The 32-answer table evicted, and adopting epoch 1 swept epoch 0's
    // answers.
    assert!(snap.evictions > 0 && snap.invalidations > 0, "{snap:?}");
    for algo in AlgorithmKind::ALL {
        let served: u64 = ["hit", "miss", "dedup", "error"]
            .iter()
            .map(|outcome| {
                series(&format!(
                    "simrank_queries_total{{algo=\"{}\",outcome=\"{outcome}\"}}",
                    algo.wire_name()
                ))
            })
            .sum();
        assert!(served > 0, "{algo} never served");
    }
    assert_eq!(snap.index_builds, 2, "PrSim and MC, once each at epoch 0");
    assert_eq!(
        (
            snap.updates_staged,
            snap.commit_requests,
            snap.epoch_refreshes
        ),
        (1, 1, 1)
    );
}

#[test]
fn trace_of_a_cache_hit_shows_cache_and_no_kernel() {
    let service = demo_service();
    service.query(AlgorithmKind::ExactSim, 3).unwrap(); // warm the cache

    let trace_request = Request::Trace {
        line: "query 3".into(),
    };
    let json = match execute(&service, AlgorithmKind::ExactSim, &trace_request) {
        Outcome::Reply(json) => json,
        other => panic!("trace -> {other:?}"),
    };
    assert!(json.contains("\"op\":\"trace\""), "{json}");
    assert!(json.contains("\"name\":\"parse\""), "{json}");
    assert!(json.contains("\"name\":\"cache\""), "{json}");
    assert!(json.contains("\"name\":\"serialize\""), "{json}");
    assert!(
        !json.contains("\"name\":\"kernel\""),
        "cache hit must skip the kernel: {json}"
    );
    assert!(!json.contains("\"name\":\"index_build\""), "{json}");

    // A cold source does run the kernel.
    let cold = Request::Trace {
        line: "query 4".into(),
    };
    let json = match execute(&service, AlgorithmKind::ExactSim, &cold) {
        Outcome::Reply(json) => json,
        other => panic!("trace -> {other:?}"),
    };
    assert!(json.contains("\"name\":\"kernel\""), "{json}");
}

#[test]
fn slowlog_records_over_threshold_queries_newest_first() {
    let graph = Arc::new(barabasi_albert(60, 3, true, 7).unwrap());
    let config = ServiceConfig {
        // Zero threshold: every query is "slow" — deterministic for a test.
        slowlog_threshold: Duration::ZERO,
        slowlog_capacity: 2,
        ..ServiceConfig::fast_demo()
    };
    let service = SimRankService::new(graph, config).unwrap();
    service.query(AlgorithmKind::ExactSim, 0).unwrap();
    service.query(AlgorithmKind::ExactSim, 1).unwrap();
    service.query(AlgorithmKind::ExactSim, 2).unwrap();

    let slowlog = service.slowlog();
    assert_eq!(slowlog.total_recorded(), 3);
    assert_eq!(slowlog.len(), 2, "capacity bounds the ring");
    let recent = slowlog.recent(10);
    assert_eq!(recent[0].request, "query 2 exactsim", "newest first");
    assert_eq!(recent[1].request, "query 1 exactsim");

    // The protocol reply carries the ring (and `slowlog 1` limits it).
    match execute(
        &service,
        AlgorithmKind::ExactSim,
        &Request::SlowLog { n: Some(1) },
    ) {
        Outcome::Reply(json) => {
            assert!(json.contains("\"threshold_us\":0"), "{json}");
            assert!(json.contains("\"total_recorded\":3"), "{json}");
            assert!(json.contains("query 2 exactsim"), "{json}");
            assert!(!json.contains("query 1 exactsim"), "n=1 limits: {json}");
        }
        other => panic!("slowlog -> {other:?}"),
    }
    // And the counter series agrees.
    assert_eq!(
        sample_value(&service.metrics_text(), "simrank_slow_queries_total"),
        Some(3.0)
    );
}

#[test]
fn durable_commits_fill_the_commit_stage_histograms() {
    let dir = std::env::temp_dir().join(format!("exactsim-obs-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let graph = Arc::new(barabasi_albert(40, 3, true, 11).unwrap());
    let store = Arc::new(GraphStore::create(&dir, graph).unwrap());
    let service = SimRankService::with_store(store, ServiceConfig::fast_demo()).unwrap();

    service.store().stage_insert(0, 39).unwrap();
    service.commit().unwrap();
    // The next query adopts the new epoch and sweeps the cache.
    service.query(AlgorithmKind::ExactSim, 0).unwrap();

    let scrape = service.metrics_text();
    let series = |s: &str| sample_value(&scrape, s);
    assert_eq!(series("simrank_commits_total"), Some(1.0));
    assert_eq!(series("simrank_epoch"), Some(1.0));
    for stage in [
        "stage",
        "wal_append",
        "fsync",
        "csr_merge",
        "publish",
        "cache_sweep",
    ] {
        let key = format!("simrank_commit_stage_us_count{{stage=\"{stage}\"}}");
        assert_eq!(series(&key), Some(1.0), "{stage}");
    }
    // fsync time is real wall-clock, so the sum is nonzero in practice — but
    // clocks can be coarse; assert only that the bucket triple is rendered.
    assert!(scrape.contains("simrank_commit_stage_us_bucket{stage=\"fsync\",le=\"+Inf\"} 1"));

    // An in-memory commit never records fake WAL/fsync samples.
    let mem = demo_service();
    mem.store().stage_insert(0, 59).unwrap();
    mem.commit().unwrap();
    let mem_scrape = mem.metrics_text();
    assert_eq!(
        sample_value(
            &mem_scrape,
            "simrank_commit_stage_us_count{stage=\"fsync\"}"
        ),
        Some(0.0)
    );
    assert_eq!(
        sample_value(
            &mem_scrape,
            "simrank_commit_stage_us_count{stage=\"csr_merge\"}"
        ),
        Some(1.0)
    );

    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
