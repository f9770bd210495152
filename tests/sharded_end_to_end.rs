//! Sharded serving tier acceptance (tentpole): a 4-shard in-process
//! [`ShardRouter`] must be **observationally identical** to a single
//! unsharded service on the same graph — `query` and `topk` replies bit
//! for bit across all three servable algorithms (the per-request
//! `query_time_us` is the one legitimately varying field) — and a commit
//! raced against concurrent routed queries must never yield an answer
//! mixing epochs: every reply is wholly pre- or wholly post-commit,
//! bit-identical to a direct library call on that epoch's graph.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use exactsim::exactsim::{ExactSim, ExactSimConfig};
use exactsim_graph::generators::barabasi_albert;
use exactsim_graph::DiGraph;
use exactsim_router::{LocalShard, ShardBackend, ShardRouter};
use exactsim_service::protocol::{parse_line, Outcome, Request};
use exactsim_service::{AlgorithmKind, QueryResponse, ServiceConfig, SimRankService};

const SHARDS: usize = 4;

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

/// A router over `SHARDS` in-process replicas of `graph`, plus a clone of
/// shard 0's service so the test can reach the post-commit graph.
fn make_router(graph: &Arc<DiGraph>, config: &ServiceConfig) -> (ShardRouter, SimRankService) {
    let services: Vec<SimRankService> = (0..SHARDS)
        .map(|_| SimRankService::new(Arc::clone(graph), config.clone()).expect("build shard"))
        .collect();
    let witness = services[0].clone();
    let shards: Vec<Box<dyn ShardBackend>> = services
        .into_iter()
        .map(|s| Box::new(LocalShard::new(s)) as Box<dyn ShardBackend>)
        .collect();
    (
        ShardRouter::new(shards).expect("router over live shards"),
        witness,
    )
}

/// Executes one protocol line and returns the reply JSON.
fn ask(router: &ShardRouter, line: &str) -> String {
    let request = parse_line(line)
        .unwrap_or_else(|e| panic!("`{line}`: {}", e.message))
        .unwrap_or_else(|| panic!("`{line}` parsed to nothing"));
    match router.execute(AlgorithmKind::ExactSim, &request) {
        Outcome::Reply(reply) => reply,
        other => panic!("`{line}`: unexpected outcome {other:?}"),
    }
}

/// Same, against the unsharded baseline service.
fn ask_unsharded(service: &SimRankService, line: &str) -> String {
    let request = parse_line(line).unwrap().unwrap();
    match exactsim_service::protocol::execute(service, AlgorithmKind::ExactSim, &request) {
        Outcome::Reply(reply) => reply,
        other => panic!("`{line}`: unexpected outcome {other:?}"),
    }
}

/// Zeroes the `"query_time_us":<n>` field — the only part of a reply allowed
/// to differ between the sharded and unsharded paths.
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

fn epoch_of(json: &str) -> u64 {
    let start = json.find("\"epoch\":").expect("reply carries its epoch") + "\"epoch\":".len();
    json[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("numeric epoch")
}

fn scores_fragment(json: &str) -> &str {
    let start = json.find("\"scores\":[").expect("reply carries scores");
    let end = json[start..].find(']').expect("scores array closes") + start + 1;
    &json[start..end]
}

#[test]
fn four_shard_router_is_bit_identical_to_the_unsharded_service_across_all_algorithms() {
    let graph = Arc::new(barabasi_albert(160, 3, true, 11).unwrap());
    let config = test_config();
    let unsharded = SimRankService::new(Arc::clone(&graph), config.clone()).unwrap();
    let (router, _witness) = make_router(&graph, &config);
    assert_eq!(router.num_shards(), SHARDS);

    for algo in AlgorithmKind::ALL {
        for source in [0u32, 7, 42, 133] {
            // Full single-source column: routed to the owning shard, which
            // computes the same full replica column the baseline computes.
            let line = format!("query {source} {algo}");
            let routed = ask(&router, &line);
            let direct = ask_unsharded(&unsharded, &line);
            assert!(!routed.contains("\"error\""), "{line}: {routed}");
            assert_eq!(
                strip_query_time(&routed),
                strip_query_time(&direct),
                "{algo} query {source}: sharding must be invisible"
            );

            // Top-k: routed to the owning shard like `query` — must
            // reproduce the baseline ranking bit for bit, ties and all.
            let line = format!("topk {source} 9 {algo}");
            let routed = ask(&router, &line);
            let direct = ask_unsharded(&unsharded, &line);
            assert!(!routed.contains("\"error\""), "{line}: {routed}");
            assert_eq!(
                strip_query_time(&routed),
                strip_query_time(&direct),
                "{algo} topk {source}: routed topk must be bit-identical"
            );
        }
    }
}

#[test]
fn a_commit_raced_against_routed_queries_never_yields_a_mixed_epoch_answer() {
    const CLIENTS: usize = 4;
    const SOURCES: u32 = 4;
    let pre_graph = Arc::new(barabasi_albert(220, 3, true, 33).unwrap());
    let config = test_config();
    let (router, witness) = make_router(&pre_graph, &config);
    let router = Arc::new(router);

    // CLIENTS query threads + the updater rendezvous: every thread has
    // answered pre-commit queries before the commit is allowed to race.
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let router = Arc::clone(&router);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut answers: Vec<(u64, u32, String)> = Vec::new();
                let ask_one = |i: usize| {
                    let source = (c as u32 + i as u32) % SOURCES;
                    let reply = ask(&router, &format!("query {source}"));
                    assert!(!reply.contains("\"error\""), "client {c} req {i}: {reply}");
                    (
                        epoch_of(&reply),
                        source,
                        scores_fragment(&reply).to_string(),
                    )
                };
                for i in 0..3 {
                    answers.push(ask_one(i));
                }
                barrier.wait();
                for i in 3..23 {
                    answers.push(ask_one(i));
                }
                // Routed topk races the commit barrier too: a topk
                // mid-commit must come back whole, from a single epoch.
                let top = ask(&router, "topk 0 5");
                assert!(!top.contains("\"error\""), "{top}");
                assert!(epoch_of(&top) <= 1, "{top}");
                answers
            })
        })
        .collect();

    barrier.wait();
    let staged = ask(&router, "addedge 0 219");
    assert!(staged.contains("\"staged\":\"pending\""), "{staged}");
    let committed = router.execute(AlgorithmKind::ExactSim, &Request::Commit);
    let committed = match committed {
        Outcome::Reply(reply) => reply,
        other => panic!("commit: {other:?}"),
    };
    assert!(
        committed.contains("\"op\":\"commit\"") && committed.contains("\"epoch\":1"),
        "{committed}"
    );
    assert_eq!(router.epoch(), 1, "router publishes the barrier epoch");

    let answers: Vec<(u64, u32, String)> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread"))
        .collect();

    // Ground truth per epoch from direct library calls on each graph.
    let post_graph = witness.store().graph();
    assert!(post_graph.has_edge(0, 219), "commit landed on every shard");
    let post_graph = post_graph.as_mem().expect("witness store is in-memory");
    let expected: Vec<Vec<String>> = [pre_graph.in_graph(), post_graph.as_ref()]
        .into_iter()
        .enumerate()
        .map(|(epoch, graph)| {
            (0..SOURCES)
                .map(|s| {
                    let direct = ExactSim::new(graph, config.exactsim.clone())
                        .unwrap()
                        .query(s)
                        .unwrap();
                    let response = QueryResponse::new(
                        AlgorithmKind::ExactSim,
                        epoch as u64,
                        s,
                        direct.scores,
                        Duration::ZERO,
                    );
                    scores_fragment(&response.to_json(Some(32))).to_string()
                })
                .collect()
        })
        .collect();
    for (s, (pre, post)) in expected[0].iter().zip(&expected[1]).enumerate() {
        assert_ne!(
            pre, post,
            "the edge insert must change column {s}, or the test proves nothing"
        );
    }

    // Every routed answer is wholly pre- or wholly post-commit: its declared
    // epoch's library column, bit for bit — never a blend across shards or
    // across the commit.
    assert_eq!(answers.len(), CLIENTS * 23);
    let mut seen = [0usize; 2];
    for (epoch, source, fragment) in &answers {
        assert!(*epoch <= 1, "unexpected epoch {epoch}");
        seen[*epoch as usize] += 1;
        assert_eq!(
            fragment, &expected[*epoch as usize][*source as usize],
            "epoch-{epoch} answer for source {source} must match the library"
        );
    }
    assert!(seen[0] >= CLIENTS * 3, "pre-commit answers: {seen:?}");

    // Deterministic post-commit pin: after the barrier, every source serves
    // epoch 1, for `query` and `topk` alike.
    for s in 0..SOURCES {
        let reply = ask(&router, &format!("query {s}"));
        assert_eq!(epoch_of(&reply), 1, "post-commit query serves epoch 1");
        assert_eq!(scores_fragment(&reply), expected[1][s as usize]);
    }
    let top = ask(&router, "topk 0 6");
    assert_eq!(epoch_of(&top), 1, "{top}");

    // The router's own epoch verb agrees with every shard.
    let epochs = ask(&router, "epoch");
    assert!(epochs.contains("\"epoch\":1"), "{epochs}");
    router.drain();
}
