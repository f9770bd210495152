//! Table-driven coverage of the extracted `protocol` module (ISSUE 4
//! satellite): every command parses, every parsed request formats back to a
//! line that re-parses to itself, every malformed input maps to its stable
//! error code, and every `{"error","code"}` variant the two error-type
//! mappings can produce is pinned — the parser used to live untested inside
//! the `simrank-serve` binary.

use std::sync::Arc;

use exactsim::SimRankError;
use exactsim_graph::generators::barabasi_albert;
use exactsim_service::protocol::{codes, execute, parse_line, serve_line, Outcome, ProtoError};
use exactsim_service::{
    AlgorithmKind, Request, ServiceConfig, ServiceError, SimRankService, StoreError,
};

fn demo_service() -> SimRankService {
    let graph = Arc::new(barabasi_albert(60, 3, true, 7).unwrap());
    SimRankService::new(graph, ServiceConfig::fast_demo()).unwrap()
}

#[test]
fn every_command_parses_to_its_request() {
    let table: &[(&str, Request)] = &[
        (
            "query 7",
            Request::Query {
                node: 7,
                algo: None,
            },
        ),
        (
            "query 7 prsim",
            Request::Query {
                node: 7,
                algo: Some(AlgorithmKind::PrSim),
            },
        ),
        (
            "  query   7   MC  ", // whitespace + case-insensitive algo names
            Request::Query {
                node: 7,
                algo: Some(AlgorithmKind::MonteCarlo),
            },
        ),
        (
            "topk 3 10",
            Request::TopK {
                node: 3,
                k: 10,
                algo: None,
            },
        ),
        (
            "topk 3 10 exactsim",
            Request::TopK {
                node: 3,
                k: 10,
                algo: Some(AlgorithmKind::ExactSim),
            },
        ),
        ("addedge 1 2", Request::AddEdge { u: 1, v: 2 }),
        ("deledge 1 2", Request::DelEdge { u: 1, v: 2 }),
        ("addnode", Request::AddNode { count: 1 }), // count defaults to 1
        ("addnode 5", Request::AddNode { count: 5 }),
        ("commit", Request::Commit),
        ("epoch", Request::Epoch),
        ("ping", Request::Ping),
        ("save", Request::Save),
        ("snapshot", Request::Save), // alias
        ("stats", Request::Stats),
        ("metrics", Request::Metrics),
        ("slowlog", Request::SlowLog { n: None }),
        ("slowlog 5", Request::SlowLog { n: Some(5) }),
        (
            // The inner request is canonicalized at parse time.
            "trace   query   4   prsim",
            Request::Trace {
                line: "query 4 prsim".into(),
            },
        ),
        (
            "trace commit",
            Request::Trace {
                line: "commit".into(),
            },
        ),
        ("help", Request::Help),
        ("quit", Request::Quit),
        ("exit", Request::Quit), // alias
        ("shutdown", Request::Shutdown),
    ];
    for (line, expected) in table {
        assert_eq!(
            parse_line(line).unwrap().as_ref(),
            Some(expected),
            "line `{line}`"
        );
    }
    // Lines the protocol ignores: no request, no error, no reply.
    assert_eq!(parse_line("").unwrap(), None);
    assert_eq!(parse_line("   ").unwrap(), None);
    assert_eq!(parse_line("# a comment").unwrap(), None);
}

#[test]
fn every_request_formats_to_a_line_that_round_trips() {
    let table: &[Request] = &[
        Request::Query {
            node: 0,
            algo: None,
        },
        Request::Query {
            node: 4_294_967_295,
            algo: Some(AlgorithmKind::MonteCarlo),
        },
        Request::TopK {
            node: 9,
            k: 0,
            algo: None,
        },
        Request::TopK {
            node: 9,
            k: 25,
            algo: Some(AlgorithmKind::PrSim),
        },
        Request::AddEdge { u: 3, v: 4 },
        Request::DelEdge { u: 4, v: 3 },
        Request::AddNode { count: 1 },
        Request::AddNode { count: 1_000_000 },
        Request::Commit,
        Request::Epoch,
        Request::Ping,
        Request::Save,
        Request::Stats,
        Request::Metrics,
        Request::SlowLog { n: None },
        Request::SlowLog { n: Some(12) },
        Request::Trace {
            line: "topk 9 25 prsim".into(),
        },
        Request::Help,
        Request::Quit,
        Request::Shutdown,
    ];
    for request in table {
        let line = request.to_line();
        assert_eq!(
            parse_line(&line).unwrap().as_ref(),
            Some(request),
            "round trip through `{line}`"
        );
    }
}

#[test]
fn malformed_lines_map_to_stable_codes() {
    let table: &[(&str, &str)] = &[
        ("query", codes::BAD_REQUEST),               // missing node
        ("query x", codes::BAD_REQUEST),             // unparsable node
        ("query -1", codes::BAD_REQUEST),            // node ids are u32
        ("query 1 prsim extra", codes::BAD_REQUEST), // too many arguments
        ("query 1 bogus", codes::UNKNOWN_ALGORITHM),
        ("topk 1", codes::BAD_REQUEST),   // missing k
        ("topk 1 x", codes::BAD_REQUEST), // unparsable k
        ("topk 1 5 bogus", codes::UNKNOWN_ALGORITHM),
        ("addedge 1", codes::BAD_REQUEST), // missing head
        ("addedge a b", codes::BAD_REQUEST),
        ("deledge 1", codes::BAD_REQUEST),
        ("addnode x", codes::BAD_REQUEST),   // count must be a u64
        ("addnode 0", codes::BAD_REQUEST),   // zero growth is a typo
        ("addnode 1 2", codes::BAD_REQUEST), // at most one argument
        // Bare commands reject trailing tokens too: `commit 5` is a typo,
        // not a commit.
        ("commit 5", codes::BAD_REQUEST),
        ("epoch now", codes::BAD_REQUEST),
        ("ping now", codes::BAD_REQUEST),
        ("save please", codes::BAD_REQUEST),
        ("snapshot x", codes::BAD_REQUEST),
        ("stats -v", codes::BAD_REQUEST),
        ("metrics now", codes::BAD_REQUEST),
        ("slowlog x", codes::BAD_REQUEST), // count must be a usize
        ("slowlog 1 2", codes::BAD_REQUEST), // at most one argument
        ("trace", codes::BAD_REQUEST),     // nothing to trace
        ("trace stats", codes::BAD_REQUEST), // only query/topk/commit
        ("trace trace query 1", codes::BAD_REQUEST), // no nesting
        ("trace query", codes::BAD_REQUEST), // inner parse errors surface
        ("trace query 1 bogus", codes::UNKNOWN_ALGORITHM),
        ("help me", codes::BAD_REQUEST),
        ("quit now", codes::BAD_REQUEST),
        ("shutdown now", codes::BAD_REQUEST),
        ("frobnicate", codes::UNKNOWN_COMMAND),
        ("QUERY 1", codes::UNKNOWN_COMMAND), // commands are lowercase
    ];
    for (line, code) in table {
        let err = parse_line(line).unwrap_err();
        assert_eq!(err.code, *code, "line `{line}` -> {}", err.message);
        // Every parse error serializes to one {"error","code"} JSON line.
        let json = err.to_json();
        assert!(json.starts_with("{\"error\":\""), "{json}");
        assert!(json.ends_with(&format!("\"code\":\"{code}\"}}")), "{json}");
    }
}

/// Pins the full `{"error","code"}` vocabulary: each service/store error
/// variant maps to exactly the documented stable code.
#[test]
fn every_error_variant_maps_to_its_documented_code() {
    let service_table: &[(ServiceError, &str)] = &[
        (
            ServiceError::Algorithm(SimRankError::SourceOutOfRange {
                source: 99,
                num_nodes: 10,
            }),
            codes::OUT_OF_RANGE,
        ),
        (
            ServiceError::Algorithm(SimRankError::EmptyGraph),
            codes::ALGORITHM,
        ),
        (
            ServiceError::UnknownAlgorithm("bogus".into()),
            codes::UNKNOWN_ALGORITHM,
        ),
        (
            ServiceError::InvalidRequest("usage".into()),
            codes::BAD_REQUEST,
        ),
        (ServiceError::Internal("panicked".into()), codes::INTERNAL),
    ];
    for (error, code) in service_table {
        let mapped = ProtoError::from(error.clone());
        assert_eq!(mapped.code, *code, "{error:?}");
    }

    let store_table: &[(StoreError, &str)] = &[
        (
            StoreError::NodeOutOfRange {
                node: 9,
                num_nodes: 3,
            },
            codes::OUT_OF_RANGE,
        ),
        (StoreError::SelfLoop(3), codes::BAD_REQUEST),
        (
            // Client-caused: asked for more node ids than the u32 space has.
            StoreError::NodeSpaceExhausted {
                requested: u64::from(u32::MAX),
                num_nodes: 3,
            },
            codes::BAD_REQUEST,
        ),
        (StoreError::NotDurable, codes::NOT_DURABLE),
        (
            StoreError::Io {
                path: "/tmp/x".into(),
                op: "write",
                message: "disk full".into(),
            },
            codes::IO,
        ),
        (
            StoreError::SnapshotCorrupt {
                path: "/tmp/x.snap".into(),
                detail: "bad checksum".into(),
            },
            codes::STORAGE,
        ),
        (StoreError::InitFailed("nope".into()), codes::STORAGE),
        (
            StoreError::PageCorrupt {
                path: "/tmp/epoch-0.pages".into(),
                detail: "bad page checksum".into(),
            },
            codes::STORAGE,
        ),
        (StoreError::PoolExhausted { capacity: 4 }, codes::STORAGE),
    ];
    for (error, code) in store_table {
        let mapped = ProtoError::from(error.clone());
        assert_eq!(mapped.code, *code, "{error:?}");
    }

    // The router-facing code is part of the stable vocabulary even though no
    // local error maps to it: a router answers for an unreachable shard with
    // exactly this code, and clients key on the literal string.
    assert_eq!(codes::SHARD_UNAVAILABLE, "shard_unavailable");

    // The error message is JSON-escaped on the wire.
    let hostile = ProtoError::bad_request("a \"quoted\"\nline");
    assert_eq!(
        hostile.to_json(),
        "{\"error\":\"a \\\"quoted\\\"\\nline\",\"code\":\"bad_request\"}"
    );
}

#[test]
fn execute_answers_each_command_with_its_wire_shape() {
    let service = demo_service();

    // query / topk answer JSON with the serving epoch embedded.
    match execute(
        &service,
        AlgorithmKind::ExactSim,
        &Request::Query {
            node: 0,
            algo: None,
        },
    ) {
        Outcome::Reply(json) => {
            assert!(json.contains("\"algorithm\":\"exactsim\""), "{json}");
            assert!(json.contains("\"epoch\":0"), "{json}");
            assert!(json.contains("\"source\":0"), "{json}");
        }
        other => panic!("query -> {other:?}"),
    }
    match execute(
        &service,
        AlgorithmKind::ExactSim,
        &Request::TopK {
            node: 1,
            k: 3,
            algo: None,
        },
    ) {
        Outcome::Reply(json) => {
            assert!(json.contains("\"k\":3"), "{json}");
            assert!(json.contains("\"results\":["), "{json}");
        }
        other => panic!("topk -> {other:?}"),
    }

    // The update protocol: stage, inspect, publish.
    match execute(
        &service,
        AlgorithmKind::ExactSim,
        &Request::AddEdge { u: 0, v: 59 },
    ) {
        Outcome::Reply(json) => assert!(
            json.contains("\"op\":\"addedge\"") && json.contains("\"staged\":\"pending\""),
            "{json}"
        ),
        other => panic!("addedge -> {other:?}"),
    }
    match execute(&service, AlgorithmKind::ExactSim, &Request::Epoch) {
        Outcome::Reply(json) => assert!(json.contains("\"pending_insertions\":1"), "{json}"),
        other => panic!("epoch -> {other:?}"),
    }
    match execute(&service, AlgorithmKind::ExactSim, &Request::Ping) {
        Outcome::Reply(json) => assert!(
            json.contains("\"op\":\"ping\"") && json.contains("\"epoch\":0"),
            "{json}"
        ),
        other => panic!("ping -> {other:?}"),
    }
    match execute(&service, AlgorithmKind::ExactSim, &Request::Commit) {
        Outcome::Reply(json) => assert!(
            json.contains("\"op\":\"commit\"") && json.contains("\"epoch\":1"),
            "{json}"
        ),
        other => panic!("commit -> {other:?}"),
    }

    // Protocol-level failures come back as error replies, not panics.
    match execute(
        &service,
        AlgorithmKind::ExactSim,
        &Request::Query {
            node: 9999,
            algo: None,
        },
    ) {
        Outcome::Reply(json) => {
            assert!(
                json.contains(&format!("\"code\":\"{}\"", codes::OUT_OF_RANGE)),
                "{json}"
            )
        }
        other => panic!("out-of-range query -> {other:?}"),
    }
    // `save` on an in-memory store is the NOT_DURABLE path.
    match execute(&service, AlgorithmKind::ExactSim, &Request::Save) {
        Outcome::Reply(json) => {
            assert!(
                json.contains(&format!("\"code\":\"{}\"", codes::NOT_DURABLE)),
                "{json}"
            )
        }
        other => panic!("save -> {other:?}"),
    }

    // stats is the service's JSON snapshot (connection counters included).
    match execute(&service, AlgorithmKind::ExactSim, &Request::Stats) {
        Outcome::Reply(json) => {
            assert!(json.contains("\"connections_accepted\":0"), "{json}");
            assert!(json.contains("\"latency_saturated\":0"), "{json}");
            // The serving topology is explicit: a plain (unsharded) service
            // reports its live connection handlers (none without a
            // listener), kernel threads, and shards=1.
            assert!(json.contains("\"shards\":1"), "{json}");
            assert!(json.contains("\"workers\":0"), "{json}");
            assert!(json.contains("\"kernel_threads\":"), "{json}");
            // The write path bumped its counters: exactly one addedge and
            // one commit were executed earlier in this test.
            assert!(json.contains("\"updates_staged\":1"), "{json}");
            assert!(json.contains("\"commit_requests\":1"), "{json}");
            // No listener in this fixture, so nothing was ever shed.
            assert!(json.contains("\"shed_rate\":0.0000"), "{json}");
        }
        other => panic!("stats -> {other:?}"),
    }

    // metrics is the one multi-line outcome: Prometheus text exposition
    // framed by a `# EOF` terminator line.
    match execute(&service, AlgorithmKind::ExactSim, &Request::Metrics) {
        Outcome::Text(payload) => {
            assert!(
                payload.contains("# TYPE simrank_queries_total counter"),
                "{payload}"
            );
            assert!(payload.ends_with("# EOF\n"), "{payload}");
        }
        other => panic!("metrics -> {other:?}"),
    }

    // slowlog reports its threshold and the retained ring (empty here: the
    // fast_demo queries above are far under the 100 ms default threshold).
    match execute(
        &service,
        AlgorithmKind::ExactSim,
        &Request::SlowLog { n: None },
    ) {
        Outcome::Reply(json) => {
            assert!(json.contains("\"op\":\"slowlog\""), "{json}");
            assert!(json.contains("\"threshold_us\":100000"), "{json}");
            assert!(json.contains("\"entries\":["), "{json}");
        }
        other => panic!("slowlog -> {other:?}"),
    }

    // trace wraps the inner reply with a stage breakdown.
    match execute(
        &service,
        AlgorithmKind::ExactSim,
        &Request::Trace {
            line: "query 0".into(),
        },
    ) {
        Outcome::Reply(json) => {
            assert!(json.contains("\"op\":\"trace\""), "{json}");
            assert!(json.contains("\"request\":\"query 0\""), "{json}");
            assert!(json.contains("\"spans\":["), "{json}");
            assert!(json.contains("\"reply\":{"), "{json}");
        }
        other => panic!("trace -> {other:?}"),
    }

    // Session-control outcomes.
    assert!(matches!(
        execute(&service, AlgorithmKind::ExactSim, &Request::Help),
        Outcome::Help(text) if text.contains("query <node> [algo]")
    ));
    assert_eq!(
        execute(&service, AlgorithmKind::ExactSim, &Request::Quit),
        Outcome::Quit
    );
    assert!(matches!(
        execute(&service, AlgorithmKind::ExactSim, &Request::Shutdown),
        Outcome::Shutdown(reply) if reply.contains("\"op\":\"shutdown\"")
    ));
}

/// `k` is a client-chosen `usize`: the largest one answers every node but
/// the source, and the server sizes nothing from it.
#[test]
fn topk_with_the_largest_k_answers_every_other_node() {
    let service = demo_service();
    let n = 60; // demo_service graph size
    match serve_line(
        &service,
        AlgorithmKind::ExactSim,
        "topk 0 18446744073709551615",
    )
    .unwrap()
    {
        Outcome::Reply(json) => {
            assert!(json.contains("\"k\":18446744073709551615"), "{json}");
            assert_eq!(json.matches("{\"node\":").count(), n - 1, "{json}");
            assert!(!json.contains("{\"node\":0,"), "{json}");
        }
        other => panic!("topk -> {other:?}"),
    }
}

/// The `addnode` verb end to end: stage growth, watch it in `epoch`, publish
/// it with `commit`, and query one of the new (isolated) ids.
#[test]
fn addnode_grows_the_served_graph_through_the_wire_protocol() {
    let service = demo_service();
    let n = 60; // demo_service graph size

    match execute(
        &service,
        AlgorithmKind::ExactSim,
        &Request::AddNode { count: 2 },
    ) {
        Outcome::Reply(json) => {
            assert!(json.contains("\"op\":\"addnode\""), "{json}");
            assert!(json.contains("\"added\":2"), "{json}");
            assert!(json.contains("\"pending_nodes\":2"), "{json}");
        }
        other => panic!("addnode -> {other:?}"),
    }
    // Staged edges may target the new ids before the commit publishes them.
    match execute(
        &service,
        AlgorithmKind::ExactSim,
        &Request::AddEdge { u: 0, v: n + 1 },
    ) {
        Outcome::Reply(json) => assert!(json.contains("\"staged\":\"pending\""), "{json}"),
        other => panic!("addedge to new id -> {other:?}"),
    }
    match execute(&service, AlgorithmKind::ExactSim, &Request::Epoch) {
        Outcome::Reply(json) => assert!(json.contains("\"pending_nodes\":2"), "{json}"),
        other => panic!("epoch -> {other:?}"),
    }
    match execute(&service, AlgorithmKind::ExactSim, &Request::Commit) {
        Outcome::Reply(json) => {
            assert!(json.contains("\"epoch\":1"), "{json}");
            assert!(json.contains("\"nodes_added\":2"), "{json}");
        }
        other => panic!("commit -> {other:?}"),
    }
    // The new top id is now queryable (born isolated except the staged edge).
    match execute(
        &service,
        AlgorithmKind::ExactSim,
        &Request::Query {
            node: n + 1,
            algo: None,
        },
    ) {
        Outcome::Reply(json) => {
            assert!(json.contains(&format!("\"source\":{}", n + 1)), "{json}");
            assert!(json.contains("\"epoch\":1"), "{json}");
        }
        other => panic!("query new id -> {other:?}"),
    }
    // Growth past the u32 id space is a typed client error, not a panic.
    match execute(
        &service,
        AlgorithmKind::ExactSim,
        &Request::AddNode {
            count: u64::from(u32::MAX),
        },
    ) {
        Outcome::Reply(json) => assert!(
            json.contains(&format!("\"code\":\"{}\"", codes::BAD_REQUEST)),
            "{json}"
        ),
        other => panic!("overflowing addnode -> {other:?}"),
    }
}

#[test]
fn serve_line_is_the_shared_front_end_loop_body() {
    let service = demo_service();
    // Silent lines produce no outcome at all.
    assert_eq!(serve_line(&service, AlgorithmKind::ExactSim, ""), None);
    assert_eq!(serve_line(&service, AlgorithmKind::ExactSim, "# hi"), None);
    // Malformed lines become error replies (never Err, never panic).
    match serve_line(&service, AlgorithmKind::ExactSim, "topk").unwrap() {
        Outcome::Reply(json) => {
            assert!(
                json.contains(&format!("\"code\":\"{}\"", codes::BAD_REQUEST)),
                "{json}"
            )
        }
        other => panic!("malformed -> {other:?}"),
    }
    // The default algorithm applies when the request names none.
    match serve_line(&service, AlgorithmKind::MonteCarlo, "query 2").unwrap() {
        Outcome::Reply(json) => assert!(json.contains("\"algorithm\":\"mc\""), "{json}"),
        other => panic!("query -> {other:?}"),
    }
}
