//! No routed read waits for another read: two reads owned by the same
//! remote shard run their round trips side by side, each on its own
//! connection, so a cached hit is never queued behind a slow round trip.
//!
//! The fault registry is process-global, so this binary holds this one test
//! and nothing else arms a fault beside it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use exactsim::exactsim::ExactSimConfig;
use exactsim_graph::generators::barabasi_albert;
use exactsim_graph::partition::shard_of;
use exactsim_obs::fault::{self, sites};
use exactsim_router::{RemoteShard, ShardBackend, ShardRouter};
use exactsim_service::net::{self, NetOptions};
use exactsim_service::protocol::{parse_line, Outcome};
use exactsim_service::{AlgorithmKind, ServiceConfig, SimRankService};

/// How long the armed `net.read` fault holds the first read's round trip.
const DELAY: Duration = Duration::from_millis(1500);

fn ask(router: &ShardRouter, line: &str) -> String {
    let request = parse_line(line).unwrap().unwrap();
    match router.execute(AlgorithmKind::ExactSim, &request) {
        Outcome::Reply(reply) => reply,
        other => panic!("`{line}`: unexpected outcome {other:?}"),
    }
}

#[test]
fn a_read_on_a_shard_does_not_wait_for_another_reads_round_trip() {
    let graph = Arc::new(barabasi_albert(120, 3, true, 7).unwrap());
    let config = ServiceConfig {
        exactsim: ExactSimConfig {
            epsilon: 1e-2,
            walk_budget: Some(50_000),
            ..ExactSimConfig::default()
        },
        ..ServiceConfig::default()
    };
    let serve = || {
        let service = SimRankService::new(Arc::clone(&graph), config.clone()).unwrap();
        net::serve(service, "127.0.0.1:0", NetOptions::default()).expect("bind shard listener")
    };
    let shards = [serve(), serve()];
    let backends = shards
        .iter()
        .map(|s| Box::new(RemoteShard::new(s.local_addr().to_string())) as Box<dyn ShardBackend>)
        .collect();
    let router = ShardRouter::new(backends).unwrap();
    let node = (0..120u32).find(|&n| shard_of(n, 2) == 0).unwrap();
    let line = format!("topk {node} 5");
    // Warm the owner's cache, so both timed reads are hits.
    let warm = ask(&router, &line);
    assert!(!warm.contains("\"error\""), "{warm}");

    fault::configure(&format!(
        "{}=nth:1:delay:{}",
        sites::NET_READ,
        DELAY.as_millis()
    ))
    .unwrap();
    let slow = std::thread::spawn({
        let router = router.clone();
        let line = line.clone();
        move || {
            let started = Instant::now();
            (ask(&router, &line), started.elapsed())
        }
    });
    // The first read is inside its round trip once it has hit the site.
    while fault::hits(sites::NET_READ) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let started = Instant::now();
    let fast = ask(&router, &line);
    let waited = started.elapsed();
    let (slow_reply, slow_took) = slow.join().unwrap();
    fault::reset();

    assert!(
        waited < Duration::from_millis(200),
        "a read owned by the same shard waited {waited:?} behind a delayed round trip"
    );
    assert!(
        slow_took >= DELAY,
        "the delayed read took {slow_took:?}, so the fault did not hold it"
    );
    for reply in [&fast, &slow_reply] {
        assert!(!reply.contains("\"error\""), "{reply}");
        assert!(!reply.contains("\"degraded\""), "{reply}");
    }
    assert_eq!(fast, slow_reply, "both hits answer from one cached column");

    router.drain();
    for shard in shards {
        shard.request_shutdown();
        shard.join();
    }
}
