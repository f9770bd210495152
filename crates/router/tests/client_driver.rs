//! The load driver end to end: `simrank-client --scenario steady_read`
//! against a live single-service listener and a live 2-shard router
//! listener. The artifact must account for every request (answered, none
//! shed or errored), embed the host's own metrics series, and `--shutdown`
//! must drain the listener.

use std::process::Command;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use exactsim_graph::generators::barabasi_albert;
use exactsim_graph::DiGraph;
use exactsim_router::wire::u64_field;
use exactsim_router::{LocalShard, ShardBackend, ShardRouter};
use exactsim_service::net::{self, NetOptions, NetServerHandle};
use exactsim_service::{ServiceConfig, SimRankService};

const REQUESTS: u64 = 40;

fn graph() -> Arc<DiGraph> {
    Arc::new(barabasi_albert(200, 3, true, 7).unwrap())
}

fn service(graph: &Arc<DiGraph>) -> SimRankService {
    SimRankService::new(Arc::clone(graph), ServiceConfig::fast_demo()).unwrap()
}

/// Runs the driver against `handle`'s listener with `--shutdown`, checks
/// that it exits 0 with every request answered, checks that the listener
/// drains, and returns the artifact (the last stdout line).
fn drive(handle: NetServerHandle) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_simrank-client"))
        .arg("--connect")
        .arg(handle.local_addr().to_string())
        .arg("--scenario")
        .arg(format!("steady_read,requests={REQUESTS},conns=2"))
        .arg("--shutdown")
        .output()
        .expect("spawn simrank-client");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "client failed: {stderr}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let artifact = stdout.lines().last().expect("an artifact line").to_string();

    // The scenario's own counters come before the embedded server_stats, so
    // the first match of each key is the driver's.
    assert_eq!(
        u64_field(&artifact, "completed"),
        Some(REQUESTS),
        "{artifact}"
    );
    assert_eq!(u64_field(&artifact, "errors"), Some(0), "{artifact}");
    assert_eq!(u64_field(&artifact, "shed"), Some(0), "{artifact}");

    // `--shutdown` asked the server to drain: the acceptor and every handler
    // must finish.
    let (joined, drained) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        handle.join();
        joined.send(()).unwrap();
    });
    drained
        .recv_timeout(Duration::from_secs(30))
        .expect("the listener never drained after --shutdown");
    joiner.join().unwrap();
    artifact
}

/// The JSON-escaped Prometheus scrape embedded in `artifact`.
fn metrics_scrape(artifact: &str) -> &str {
    let needle = "\"metrics_scrape\":\"";
    let start = artifact
        .find(needle)
        .unwrap_or_else(|| panic!("no metrics_scrape: {artifact}"))
        + needle.len();
    &artifact[start..]
}

#[test]
fn steady_read_against_one_service_answers_every_request_and_drains() {
    let handle = net::serve(service(&graph()), "127.0.0.1:0", NetOptions::default())
        .expect("bind service listener");
    let artifact = drive(handle);
    assert!(artifact.contains("\"router\":null,"), "{artifact}");
    let scrape = metrics_scrape(&artifact);
    assert!(scrape.contains("simrank_queries_total"), "{scrape}");
}

#[test]
fn steady_read_through_a_router_routes_one_call_per_read_and_drains() {
    let graph = graph();
    let shards: Vec<Box<dyn ShardBackend>> = (0..2)
        .map(|_| Box::new(LocalShard::new(service(&graph))) as Box<dyn ShardBackend>)
        .collect();
    let router = ShardRouter::new(shards).unwrap();
    let handle =
        net::serve(router, "127.0.0.1:0", NetOptions::default()).expect("bind router listener");
    let artifact = drive(handle);
    assert!(artifact.contains("\"router\":{\"shards\":2,"), "{artifact}");
    assert_eq!(u64_field(&artifact, "reads"), Some(REQUESTS), "{artifact}");
    assert_eq!(
        u64_field(&artifact, "fanout_topk"),
        Some(REQUESTS),
        "{artifact}"
    );
    let scrape = metrics_scrape(&artifact);
    assert!(scrape.contains("simrank_router_fanout_total"), "{scrape}");
}
