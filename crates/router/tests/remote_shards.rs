//! Remote mode end-to-end: a [`ShardRouter`] over [`RemoteShard`] backends
//! speaking the **unmodified** TCP line protocol to real `net::serve`
//! listeners — replies bit-identical to the in-process path (the f64 wire
//! round-trip is exact), updates commit on every shard, and a shard that
//! dies degrades reads to a live replica (marked `degraded:true`, never a
//! wrong answer, never a hang) while its circuit breaker opens.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use exactsim::exactsim::ExactSimConfig;
use exactsim_graph::generators::barabasi_albert;
use exactsim_graph::partition::shard_of;
use exactsim_router::{BreakerState, RemoteShard, ShardBackend, ShardRouter};
use exactsim_service::net::{self, NetOptions};
use exactsim_service::protocol::{self, parse_line, Outcome};
use exactsim_service::{AlgorithmKind, ServiceConfig, SimRankService};

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

fn ask(router: &ShardRouter, line: &str) -> String {
    let request = parse_line(line).unwrap().unwrap();
    match router.execute(AlgorithmKind::ExactSim, &request) {
        Outcome::Reply(reply) => reply,
        other => panic!("`{line}`: unexpected outcome {other:?}"),
    }
}

fn strip_query_time(json: &str) -> String {
    let Some(at) = json.find("\"query_time_us\":") else {
        return json.to_string();
    };
    let vstart = at + "\"query_time_us\":".len();
    let vend = json[vstart..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(json.len(), |o| vstart + o);
    format!("{}0{}", &json[..vstart], &json[vend..])
}

#[test]
fn remote_shards_serve_bit_identically_and_a_dead_shard_yields_a_typed_error_fast() {
    let graph = Arc::new(barabasi_albert(120, 3, true, 7).unwrap());
    let config = test_config();

    // Two unmodified `net::serve` listeners, each a full replica: exactly
    // what two `simrank-serve --listen` processes would be.
    let serve = |graph: &Arc<exactsim_graph::DiGraph>| {
        let service = SimRankService::new(Arc::clone(graph), config.clone()).unwrap();
        net::serve(service, "127.0.0.1:0", NetOptions::default()).expect("bind shard listener")
    };
    let shard0 = serve(&graph);
    let shard1 = serve(&graph);

    let tight = |addr: std::net::SocketAddr| {
        Box::new(
            RemoteShard::new(addr.to_string())
                .with_timeouts(Duration::from_millis(500), Duration::from_secs(30)),
        ) as Box<dyn ShardBackend>
    };
    let router =
        ShardRouter::new(vec![tight(shard0.local_addr()), tight(shard1.local_addr())]).unwrap();

    // Replies routed to a remote shard are bit-identical to a direct
    // in-process execution: the protocol's f64 formatting round-trips
    // exactly, so remoting adds no drift.
    let baseline = SimRankService::new(Arc::clone(&graph), config.clone()).unwrap();
    for line in ["query 3", "topk 5 7"] {
        let routed = ask(&router, line);
        let direct = match protocol::execute(
            &baseline,
            AlgorithmKind::ExactSim,
            &parse_line(line).unwrap().unwrap(),
        ) {
            Outcome::Reply(reply) => reply,
            other => panic!("`{line}`: {other:?}"),
        };
        assert!(!routed.contains("\"error\""), "{line}: {routed}");
        assert_eq!(
            strip_query_time(&routed),
            strip_query_time(&direct),
            "`{line}` must be bit-identical over the wire"
        );
    }

    // An update fans out to both remote replicas and the epoch barrier
    // publishes only after both commit.
    let staged = ask(&router, "addedge 0 119");
    assert!(staged.contains("\"staged\":\"pending\""), "{staged}");
    let committed = ask(&router, "commit");
    assert!(committed.contains("\"epoch\":1"), "{committed}");
    assert_eq!(router.epoch(), 1);
    let epochs = ask(&router, "epoch");
    assert!(epochs.contains("\"epoch\":1"), "{epochs}");

    // `ping` answers from the router's published state: no fan-out, so it
    // works regardless of shard health.
    let pong = ask(&router, "ping");
    assert!(
        pong.contains("\"op\":\"ping\"") && pong.contains("\"epoch\":1"),
        "{pong}"
    );

    // Kill shard 1. Reads it owns must keep being answered — every backend
    // is a full replica, so the router re-asks shard 0 and marks the reply
    // `degraded` — promptly (reconnect is bounded by the connect deadline),
    // and with zero wrong answers.
    shard1.request_shutdown();
    shard1.join();
    let owned_by_dead = (0..120u32)
        .find(|&n| shard_of(n, 2) == 1)
        .expect("some node maps to shard 1");
    let owned_by_live = (0..120u32)
        .find(|&n| shard_of(n, 2) == 0)
        .expect("some node maps to shard 0");

    let started = Instant::now();
    let failed_over = ask(&router, &format!("query {owned_by_dead}"));
    assert!(!failed_over.contains("\"error\""), "{failed_over}");
    assert!(failed_over.contains("\"degraded\":true"), "{failed_over}");
    assert!(failed_over.contains("\"epoch\":1"), "{failed_over}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "failover must be fast, took {:?}",
        started.elapsed()
    );

    // The failover answer is the *same* answer the healthy replica gives —
    // degraded means re-routed, never different. Ask shard 0 directly over
    // the wire with the router's canonical line and compare byte-for-byte
    // (modulo timing and the degraded marker).
    let canonical = protocol::Request::Query {
        node: owned_by_dead,
        algo: Some(AlgorithmKind::ExactSim),
    }
    .to_line();
    let mut direct_conn = exactsim_service::net::LineClient::connect(shard0.local_addr()).unwrap();
    let direct = direct_conn.round_trip(&canonical).unwrap();
    assert_eq!(
        strip_query_time(&failed_over).replace(",\"degraded\":true", ""),
        strip_query_time(&direct),
        "failover reply must be bit-identical to the live replica's answer"
    );

    // A topk owned by the dead shard fails over the same way: served by the
    // live replica, marked degraded, bit-identical in its results.
    let top = ask(&router, &format!("topk {owned_by_dead} 5"));
    assert!(!top.contains("\"error\""), "{top}");
    assert!(top.contains("\"degraded\":true"), "{top}");
    let direct_top = direct_conn
        .round_trip(&format!("topk {owned_by_dead} 5 exactsim"))
        .unwrap();
    assert_eq!(
        strip_query_time(&top).replace(",\"degraded\":true", ""),
        strip_query_time(&direct_top),
        "failover topk must be bit-identical to the live replica's answer"
    );
    // ...while reads owned by the surviving replica serve normally.
    let live = ask(&router, &format!("query {owned_by_live}"));
    assert!(!live.contains("\"error\""), "{live}");
    assert!(!live.contains("\"degraded\""), "{live}");
    assert!(live.contains("\"epoch\":1"), "{live}");

    // Two failures are on the books for shard 1 (query + topk); the
    // default breaker threshold is 3, so one probe round tips it open.
    assert_eq!(router.shard_health(0), BreakerState::Closed);
    router.probe_once();
    assert_eq!(router.shard_health(1), BreakerState::Open);
    assert_eq!(router.shard_health(0), BreakerState::Closed);

    // With the breaker open, reads owned by the dead shard fail over
    // without paying the connect timeout (fast-fail, still degraded).
    let fastfail = ask(&router, &format!("query {owned_by_dead}"));
    assert!(fastfail.contains("\"degraded\":true"), "{fastfail}");

    // Writes are never silently retried or failed over: the fan-out
    // surfaces the dead shard as a typed error instead of double-applying.
    let write = ask(&router, "addedge 1 118");
    assert!(write.contains("\"code\":\"shard_unavailable\""), "{write}");

    // The stats breakdown names both backends, counts the failures, and
    // exposes breaker state and the degraded-read counter.
    let stats = router.stats_json();
    assert!(stats.contains("\"per_shard\":["), "{stats}");
    assert!(stats.contains(&shard0.local_addr().to_string()), "{stats}");
    assert!(stats.contains("\"errors\":"), "{stats}");
    assert!(stats.contains("\"health\":\"open\""), "{stats}");
    assert!(stats.contains("\"health\":\"closed\""), "{stats}");
    assert!(!stats.contains("\"degraded\":0,"), "{stats}");
    let metrics = router.metrics_text();
    assert!(
        metrics.contains("simrank_router_degraded_total"),
        "{metrics}"
    );
    assert!(
        metrics.contains("simrank_router_breaker_state"),
        "{metrics}"
    );

    router.drain();
    shard0.request_shutdown();
    shard0.join();
}

#[test]
fn every_shard_down_still_fails_typed_after_failover_exhausts() {
    let graph = Arc::new(barabasi_albert(60, 3, true, 11).unwrap());
    let serve = |graph: &Arc<exactsim_graph::DiGraph>| {
        let service = SimRankService::new(Arc::clone(graph), test_config()).unwrap();
        net::serve(service, "127.0.0.1:0", NetOptions::default()).expect("bind shard listener")
    };
    let shard0 = serve(&graph);
    let shard1 = serve(&graph);
    let tight = |addr: std::net::SocketAddr| {
        Box::new(
            RemoteShard::new(addr.to_string())
                .with_timeouts(Duration::from_millis(300), Duration::from_secs(5)),
        ) as Box<dyn ShardBackend>
    };
    let router =
        ShardRouter::new(vec![tight(shard0.local_addr()), tight(shard1.local_addr())]).unwrap();

    shard0.request_shutdown();
    shard0.join();
    shard1.request_shutdown();
    shard1.join();

    // No replica left to fail over to: the read comes back as the typed
    // error, promptly — degradation never fabricates an answer.
    let started = Instant::now();
    let reply = ask(&router, "query 3");
    assert!(reply.contains("\"code\":\"shard_unavailable\""), "{reply}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "exhausted failover must still be fast, took {:?}",
        started.elapsed()
    );
    // The router itself stays alive and pingable.
    let pong = ask(&router, "ping");
    assert!(pong.contains("\"op\":\"ping\""), "{pong}");
}

#[test]
fn a_shard_down_at_construction_fails_router_new_with_a_typed_error() {
    // A port that briefly had a listener and no longer does: connection
    // refused, immediately.
    let vacated = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let shard = Box::new(
        RemoteShard::new(vacated.to_string())
            .with_timeouts(Duration::from_millis(300), Duration::from_secs(1)),
    ) as Box<dyn ShardBackend>;
    let started = Instant::now();
    let err = match ShardRouter::new(vec![shard]) {
        Err(message) => message,
        Ok(_) => panic!("router must refuse a dead shard"),
    };
    assert!(err.contains(&vacated.to_string()), "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "construction probe must fail fast"
    );
}
