//! End-to-end TCP serving (ISSUE 4 acceptance criterion): concurrent client
//! sockets querying a live `exactsim_service::net` listener while another
//! client commits an edge delta must observe **pre- or post-commit answers,
//! never a mix**, each bit-identical to a direct library call on that
//! epoch's graph; plus graceful drain (`shutdown` folds the WAL into a
//! snapshot on durable stores) and `max_conns` load-shedding.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use exactsim::exactsim::{ExactSim, ExactSimConfig};
use exactsim_graph::generators::barabasi_albert;
use exactsim_graph::InGraph;
use exactsim_service::net::{self, LineClient, NetOptions};
use exactsim_service::{AlgorithmKind, GraphStore, QueryResponse, ServiceConfig, SimRankService};

const SOURCES: u32 = 4;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("exactsim-net-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

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

fn connect(addr: SocketAddr) -> LineClient {
    LineClient::connect(addr).expect("connect to listener")
}

/// [`LineClient::round_trip`] with test-failure context on socket errors.
fn round_trip(client: &mut LineClient, request: &str) -> String {
    client
        .round_trip(request)
        .unwrap_or_else(|e| panic!("request `{request}`: {e}"))
}

/// Extracts the `"scores":[...]` fragment — the part of a reply that must be
/// bit-identical to the library (the reply also carries a per-computation
/// `query_time_us`, which legitimately varies).
fn scores_fragment(json: &str) -> &str {
    let start = json.find("\"scores\":[").expect("reply carries scores");
    let end = json[start..].find(']').expect("scores array closes") + start + 1;
    &json[start..end]
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

/// The expected wire fragment for `source` on `graph`: a direct library
/// call, formatted exactly as the server formats it.
fn expected_fragment(graph: &InGraph, config: &ServiceConfig, epoch: u64, source: u32) -> String {
    let direct = ExactSim::new(graph, config.exactsim.clone())
        .unwrap()
        .query(source)
        .unwrap();
    let response = QueryResponse::new(
        AlgorithmKind::ExactSim,
        epoch,
        source,
        direct.scores,
        Duration::ZERO,
    );
    scores_fragment(&response.to_json(Some(32))).to_string()
}

#[test]
fn concurrent_sockets_racing_a_commit_see_one_epoch_per_answer_bit_identical_to_the_library() {
    const CLIENTS: usize = 4;
    let config = test_config();
    let pre_graph = Arc::new(barabasi_albert(220, 3, true, 33).unwrap());
    let service = SimRankService::new(Arc::clone(&pre_graph), config.clone()).unwrap();
    let handle = net::serve(
        service.clone(),
        "127.0.0.1:0",
        NetOptions {
            max_conns: 16,
            default_algo: AlgorithmKind::ExactSim,
        },
    )
    .expect("bind an ephemeral port");
    let addr = handle.local_addr();

    // CLIENTS query sockets + the updater rendezvous: every client has
    // answered pre-commit queries before the commit is allowed to race the
    // rest of its traffic.
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let client_threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = connect(addr);
                let mut answers: Vec<(u64, u32, String)> = Vec::new();
                let ask = |client: &mut LineClient, i: usize| {
                    let source = (c as u32 + i as u32) % SOURCES;
                    let reply = round_trip(client, &format!("query {source}"));
                    assert!(
                        !reply.contains("\"error\""),
                        "client {c} request {i}: {reply}"
                    );
                    (
                        epoch_of(&reply),
                        source,
                        scores_fragment(&reply).to_string(),
                    )
                };
                for i in 0..3 {
                    answers.push(ask(&mut client, i));
                }
                barrier.wait();
                for i in 3..23 {
                    answers.push(ask(&mut client, i));
                }
                // The other read verb, answered on the same socket.
                let topk = round_trip(&mut client, "topk 0 5");
                assert!(topk.contains("\"results\":["), "client {c}: {topk}");
                answers
            })
        })
        .collect();

    let mut updater = connect(addr);
    barrier.wait();
    let staged = round_trip(&mut updater, "addedge 0 219");
    assert!(staged.contains("\"staged\":\"pending\""), "{staged}");
    let committed = round_trip(&mut updater, "commit");
    assert!(
        committed.contains("\"op\":\"commit\"") && committed.contains("\"epoch\":1"),
        "{committed}"
    );

    let answers: Vec<(u64, u32, String)> = client_threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread"))
        .collect();

    // Ground truth per epoch, from direct library calls on each graph.
    let post_graph = service.store().graph();
    assert!(post_graph.has_edge(0, 219), "commit landed");
    let post_graph = post_graph.as_mem().expect("store is in-memory");
    let expected: Vec<Vec<String>> = [pre_graph.in_graph(), post_graph.as_ref()]
        .into_iter()
        .enumerate()
        .map(|(epoch, graph)| {
            (0..SOURCES)
                .map(|s| expected_fragment(graph, &config, epoch as u64, s))
                .collect()
        })
        .collect();
    for (s, (pre, post)) in expected[0].iter().zip(&expected[1]).enumerate() {
        assert_ne!(
            pre, post,
            "the edge insert must change column {s}, or the test proves nothing"
        );
    }

    // Every answer is wholly pre-commit or wholly post-commit — its declared
    // epoch's library column, bit for bit — never a blend.
    assert_eq!(answers.len(), CLIENTS * 23);
    let mut seen = [0usize; 2];
    for (epoch, source, fragment) in &answers {
        assert!(*epoch <= 1, "unexpected epoch {epoch}");
        seen[*epoch as usize] += 1;
        assert_eq!(
            fragment, &expected[*epoch as usize][*source as usize],
            "epoch-{epoch} answer for source {source} must be bit-identical to the library"
        );
    }
    // The barrier guarantees pre-commit answers; the post-commit side is
    // pinned deterministically below even if the racing phase was all-pre.
    assert!(seen[0] >= CLIENTS * 3, "pre-commit answers: {seen:?}");

    let mut check = connect(addr);
    for s in 0..SOURCES {
        let reply = round_trip(&mut check, &format!("query {s}"));
        assert_eq!(epoch_of(&reply), 1, "post-commit query must serve epoch 1");
        assert_eq!(scores_fragment(&reply), expected[1][s as usize]);
    }

    // Per-connection counters flowed into the shared stats.
    let stats = round_trip(&mut check, "stats");
    assert!(stats.contains("\"connections_rejected\":0"), "{stats}");
    let accepted: u64 = {
        let start =
            stats.find("\"connections_accepted\":").unwrap() + "\"connections_accepted\":".len();
        stats[start..]
            .chars()
            .take_while(|ch| ch.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap()
    };
    assert!(accepted >= (CLIENTS + 2) as u64, "{stats}");

    handle.request_shutdown();
    handle.join();
}

#[test]
fn shutdown_command_drains_the_listener_and_flushes_a_snapshot() {
    let dir = TempDir::new("drain");
    let graph = Arc::new(barabasi_albert(80, 3, true, 5).unwrap());
    {
        let store = Arc::new(GraphStore::create(&dir.0, Arc::clone(&graph)).unwrap());
        let service = SimRankService::with_store(store, test_config()).unwrap();
        let handle = net::serve(service, "127.0.0.1:0", NetOptions::default()).unwrap();
        let addr = handle.local_addr();

        let mut client = connect(addr);
        round_trip(&mut client, "addedge 2 40");
        let committed = round_trip(&mut client, "commit");
        assert!(committed.contains("\"epoch\":1"), "{committed}");
        let ack = round_trip(&mut client, "shutdown");
        assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");

        // The remote command alone drains the server: join returns without
        // this side ever calling request_shutdown.
        handle.join();
        assert!(
            TcpStream::connect(addr).is_err(),
            "listener must be closed after the drain"
        );
    }
    // The drain folded the WAL into a fresh snapshot: recovery sees the
    // committed epoch with nothing left to replay.
    let reopened = GraphStore::open(&dir.0).unwrap();
    assert_eq!(reopened.epoch(), 1);
    assert!(reopened.graph().has_edge(2, 40));
    let durability = reopened.durability().unwrap();
    assert_eq!(durability.wal_records, 0, "WAL folded by the drain");
    assert_eq!(durability.last_snapshot_epoch, 1);
}

#[test]
fn an_endless_unframed_line_is_rejected_with_a_bounded_buffer() {
    let graph = Arc::new(barabasi_albert(40, 3, true, 21).unwrap());
    let service = SimRankService::new(graph, test_config()).unwrap();
    let handle = net::serve(service, "127.0.0.1:0", NetOptions::default()).unwrap();

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    // One byte past the 64 KiB line cap, never a newline: the server must
    // stop buffering, answer one bad_request line, and hang up — not grow
    // the buffer until the client deigns to frame its request.
    let blob = vec![b'a'; 64 * 1024 + 1];
    stream.write_all(&blob).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"code\":\"bad_request\""), "{reply}");
    assert!(reply.contains("exceeds"), "{reply}");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0, "closed");

    handle.request_shutdown();
    handle.join();
}

#[test]
fn connections_past_max_conns_are_answered_with_a_capacity_error() {
    let graph = Arc::new(barabasi_albert(60, 3, true, 9).unwrap());
    let service = SimRankService::new(graph, test_config()).unwrap();
    let handle = net::serve(
        service,
        "127.0.0.1:0",
        NetOptions {
            max_conns: 2,
            default_algo: AlgorithmKind::ExactSim,
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    // Two served connections hold both permits...
    let mut first = connect(addr);
    let mut second = connect(addr);
    round_trip(&mut first, "query 0");
    round_trip(&mut second, "query 1");

    // ...so the third is load-shed: the rejection line arrives proactively
    // (no request needed), then the socket is closed.
    let mut third = connect(addr);
    let rejection = third.receive().expect("rejection line");
    assert!(rejection.contains("\"code\":\"capacity\""), "{rejection}");
    let closed = third.receive().expect_err("no second line: closed");
    assert_eq!(closed.kind(), std::io::ErrorKind::UnexpectedEof, "{closed}");

    // Freeing a permit lets new connections in again (the handler notices
    // the EOF within its read-poll tick). A retry racing the rejection
    // close may see a reset instead of the capacity line — both mean "try
    // again".
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let served = loop {
        let mut retry = connect(addr);
        match retry.round_trip("epoch") {
            Ok(reply) if !reply.contains("\"code\":\"capacity\"") => break reply,
            Ok(_) | Err(_) => {}
        }
        assert!(
            std::time::Instant::now() < deadline,
            "permit never released"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(served.contains("\"epoch\":0"), "{served}");

    handle.request_shutdown();
    handle.join();
}
