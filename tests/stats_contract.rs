//! The `stats` contract of both hosts: the wire keys and their order are
//! pinned, and the router's `stats` is a read over the same registry its
//! `metrics` renders, net series included.

use std::sync::Arc;
use std::time::{Duration, Instant};

use exactsim::exactsim::ExactSimConfig;
use exactsim_graph::generators::barabasi_albert;
use exactsim_router::{LocalShard, ShardBackend, ShardRouter};
use exactsim_service::net::{self, LineClient, NetOptions};
use exactsim_service::{AlgorithmKind, ServiceConfig, SimRankService};

/// Top-level keys of a service `stats` reply, in wire order.
const SERVICE_STATS_KEYS: [&str; 33] = [
    "epoch",
    "shards",
    "workers",
    "kernel_threads",
    "queries",
    "cache_hits",
    "dedup_joins",
    "computations",
    "index_builds",
    "errors",
    "epoch_refreshes",
    "updates_staged",
    "commit_requests",
    "evictions",
    "invalidations",
    "cached_entries",
    "hit_rate",
    "memory_bytes",
    "p50_us",
    "p99_us",
    "latency_saturated",
    "connections_accepted",
    "connections_closed",
    "connections_rejected",
    "shed_rate",
    "net_requests",
    "bytes_in",
    "bytes_out",
    "requests_per_conn_p50",
    "pool",
    "data_dir",
    "wal_len",
    "last_snapshot_epoch",
];

/// Top-level keys of a router `stats` reply, in wire order.
const ROUTER_STATS_KEYS: [&str; 15] = [
    "epoch",
    "shards",
    "queries",
    "errors",
    "degraded",
    "fanout",
    "barrier_wait_p50_us",
    "barrier_wait_p99_us",
    "net_requests",
    "connections_accepted",
    "connections_closed",
    "connections_rejected",
    "bytes_in",
    "bytes_out",
    "per_shard",
];

fn test_config() -> ServiceConfig {
    ServiceConfig {
        exactsim: ExactSimConfig {
            epsilon: 1e-2,
            walk_budget: Some(50_000),
            ..ExactSimConfig::default()
        },
        ..ServiceConfig::default()
    }
}

fn two_shard_router() -> ShardRouter {
    let graph = Arc::new(barabasi_albert(120, 3, true, 7).unwrap());
    let shards: Vec<Box<dyn ShardBackend>> = (0..2)
        .map(|_| {
            let service = SimRankService::new(Arc::clone(&graph), test_config()).unwrap();
            Box::new(LocalShard::new(service)) as Box<dyn ShardBackend>
        })
        .collect();
    ShardRouter::new(shards).unwrap()
}

/// The keys of the outermost JSON object, in order (nested objects and
/// arrays are skipped; string contents may hold escaped quotes).
fn top_level_keys(json: &str) -> Vec<&str> {
    let bytes = json.as_bytes();
    let mut keys = Vec::new();
    let mut depth = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            b'"' => {
                let start = i + 1;
                i = start;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                if depth == 1 && bytes.get(i + 1) == Some(&b':') {
                    keys.push(&json[start..i]);
                }
            }
            _ => {}
        }
        i += 1;
    }
    keys
}

/// The first `"key":<u64>` in a flat reply line.
fn u64_field(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let start = json
        .find(&needle)
        .unwrap_or_else(|| panic!("{key}: {json}"))
        + needle.len();
    let digits: String = json[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap_or_else(|_| panic!("{key}: {json}"))
}

/// The value of the sample line `series value` in a Prometheus scrape.
fn sample(scrape: &str, series: &str) -> Option<u64> {
    scrape
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|value| value.parse().ok())
}

#[test]
fn service_and_router_stats_keep_their_wire_keys_in_order() {
    let graph = Arc::new(barabasi_albert(120, 3, true, 7).unwrap());
    let service = SimRankService::new(graph, test_config()).unwrap();
    service.query(AlgorithmKind::ExactSim, 1).unwrap();
    assert_eq!(
        top_level_keys(&service.stats().to_json()),
        SERVICE_STATS_KEYS
    );

    let router = two_shard_router();
    let stats = router.stats_json();
    assert_eq!(top_level_keys(&stats), ROUTER_STATS_KEYS, "{stats}");
}

#[test]
fn router_metrics_show_the_net_series_its_stats_reports() {
    let router = two_shard_router();
    let handle = net::serve(router.clone(), "127.0.0.1:0", NetOptions::default())
        .expect("bind router listener");
    // Two connections with two requests each, then hang up.
    for source in [1u32, 2] {
        let mut client = LineClient::connect(handle.local_addr()).unwrap();
        let reply = client.round_trip(&format!("topk {source} 5")).unwrap();
        assert!(reply.contains("\"results\":["), "{reply}");
        client.round_trip("ping").unwrap();
    }
    // Read once both handlers have finished: nothing moves after that.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = router.stats_json();
        if u64_field(&stats, "connections_closed") == 2 {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "handlers never finished: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let scrape = router.metrics_text();
    for (key, series) in [
        ("net_requests", "simrank_net_requests_total"),
        ("connections_accepted", "simrank_connections_accepted_total"),
        ("connections_closed", "simrank_connections_closed_total"),
        ("connections_rejected", "simrank_connections_rejected_total"),
        ("bytes_in", "simrank_net_bytes_total{direction=\"in\"}"),
        ("bytes_out", "simrank_net_bytes_total{direction=\"out\"}"),
    ] {
        assert_eq!(
            sample(&scrape, series),
            Some(u64_field(&stats, key)),
            "{key} vs {series}\n{stats}\n{scrape}"
        );
    }
    assert_eq!(u64_field(&stats, "net_requests"), 4, "{stats}");
    assert_eq!(u64_field(&stats, "connections_accepted"), 2, "{stats}");
    assert!(u64_field(&stats, "bytes_in") > 0, "{stats}");
    assert!(u64_field(&stats, "bytes_out") > 0, "{stats}");
    assert_eq!(
        sample(&scrape, "simrank_requests_per_connection_count"),
        Some(2)
    );
    handle.request_shutdown();
    handle.join();
}
