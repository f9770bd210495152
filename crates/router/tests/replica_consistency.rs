//! Replica consistency under scripted shard failures: a [`ShardRouter`] over
//! in-process replicas wrapped in [`ScriptedShard`], which fails the verbs a
//! test names on the shards it names. Two invariants are checked:
//!
//! * replicas converge — a write fan-out that fails on one replica is
//!   compensated on the others, so the next `commit` publishes one epoch
//!   and one edge set everywhere;
//! * a read reply is for the router's published epoch, or it is marked —
//!   an owner that committed out of band is fenced off and the read is
//!   answered `degraded` by a replica at the published epoch, or fails typed
//!   when no replica is.
//!
//! The verbs the router sends to every shard (`addnode`, `commit`, `epoch`,
//! `save`) are pinned too: their fan-out and error counts, and the reply of
//! the first shard, in shard order, that refused or could not be asked.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use exactsim::exactsim::ExactSimConfig;
use exactsim_graph::generators::barabasi_albert;
use exactsim_graph::partition::shard_of;
use exactsim_router::{wire, LocalShard, ShardBackend, ShardError, ShardRouter};
use exactsim_service::protocol::{self, codes, parse_line, Outcome};
use exactsim_service::{AlgorithmKind, ServiceConfig, SimRankService};

const NODES: usize = 80;

/// Which `(shard, verb)` pairs fail; a test edits it between steps.
#[derive(Default)]
struct Script(Mutex<HashSet<(usize, &'static str)>>);

impl Script {
    fn fail(&self, shard: usize, verb: &'static str) {
        self.0.lock().unwrap().insert((shard, verb));
    }

    fn heal(&self) {
        self.0.lock().unwrap().clear();
    }

    fn fails(&self, shard: usize, line: &str) -> bool {
        let verb = line.split_whitespace().next().unwrap_or("");
        self.0.lock().unwrap().contains(&(shard, verb))
    }
}

/// A [`LocalShard`] that answers [`ShardError::Unavailable`] to the verbs its
/// script fails on its index, as an unreachable shard would: the request
/// never reaches the service.
struct ScriptedShard {
    index: usize,
    inner: LocalShard,
    script: Arc<Script>,
}

impl ShardBackend for ScriptedShard {
    fn request(&self, line: &str) -> Result<String, ShardError> {
        if self.script.fails(self.index, line) {
            return Err(ShardError::Unavailable(format!(
                "scripted failure of `{line}` on shard {}",
                self.index
            )));
        }
        self.inner.request(line)
    }

    fn describe(&self) -> String {
        format!("scripted-{}", self.index)
    }

    fn drain(&self) {
        self.inner.drain();
    }
}

/// A 2-replica router over scripted shards, plus each replica's service so
/// a test can inspect (or commit on) one replica behind the router's back.
fn scripted_router() -> (ShardRouter, Vec<SimRankService>, Arc<Script>) {
    let graph = Arc::new(barabasi_albert(NODES, 3, true, 5).unwrap());
    let config = ServiceConfig {
        exactsim: ExactSimConfig {
            epsilon: 1e-2,
            walk_budget: Some(20_000),
            ..ExactSimConfig::default()
        },
        ..ServiceConfig::default()
    };
    let script = Arc::new(Script::default());
    let services: Vec<SimRankService> = (0..2)
        .map(|_| SimRankService::new(Arc::clone(&graph), config.clone()).unwrap())
        .collect();
    let shards: Vec<Box<dyn ShardBackend>> = services
        .iter()
        .enumerate()
        .map(|(index, service)| {
            Box::new(ScriptedShard {
                index,
                inner: LocalShard::new(service.clone()),
                script: Arc::clone(&script),
            }) as Box<dyn ShardBackend>
        })
        .collect();
    (ShardRouter::new(shards).unwrap(), services, script)
}

fn ask(router: &ShardRouter, line: &str) -> String {
    let request = parse_line(line).unwrap().unwrap();
    match router.execute(AlgorithmKind::ExactSim, &request) {
        Outcome::Reply(reply) => reply,
        other => panic!("`{line}`: unexpected outcome {other:?}"),
    }
}

fn ask_service(service: &SimRankService, line: &str) -> String {
    match protocol::execute(
        service,
        AlgorithmKind::ExactSim,
        &parse_line(line).unwrap().unwrap(),
    ) {
        Outcome::Reply(reply) => reply,
        other => panic!("`{line}`: unexpected outcome {other:?}"),
    }
}

/// Drops the `query_time_us` value and the degraded marker: what is left
/// must match byte for byte between replicas at one epoch.
fn answer_bytes(json: &str) -> String {
    let at = json.find("\"query_time_us\":").expect("a read reply") + "\"query_time_us\":".len();
    let end = json[at..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(json.len(), |o| at + o);
    format!("{}{}", &json[..at], &json[end..]).replace(",\"degraded\":true", "")
}

/// The edges of one replica's published graph, sorted by `(source, target)`.
fn edge_set(service: &SimRankService) -> Vec<(u32, u32)> {
    let graph = service.store().graph();
    let graph = graph.as_mem().expect("in-memory replica");
    let mut edges: Vec<(u32, u32)> = graph.iter_edges().collect();
    edges.sort_unstable();
    edges
}

#[test]
fn a_failed_addedge_that_cancelled_a_staged_deletion_is_undone_so_commit_heals() {
    let (router, services, script) = scripted_router();
    let (u, v) = *edge_set(&services[0])
        .first()
        .expect("the graph has an edge");

    // Both replicas stage the deletion of an existing edge.
    let staged = ask(&router, &format!("deledge {u} {v}"));
    assert!(staged.contains("\"staged\":\"pending\""), "{staged}");

    // Re-adding it fails on shard 1. Shard 0 answers `cancelled`: its staged
    // deletion is gone, so the router must undo that stage too, or shard 0
    // would commit nothing while shard 1 deletes the edge.
    script.fail(1, "addedge");
    let failed = ask(&router, &format!("addedge {u} {v}"));
    assert!(
        failed.contains(&format!("\"code\":\"{}\"", codes::SHARD_UNAVAILABLE)),
        "{failed}"
    );
    script.heal();

    let committed = ask(&router, "commit");
    assert!(
        committed.contains("\"op\":\"commit\"") && committed.contains("\"epoch\":1"),
        "{committed}"
    );
    assert_eq!(router.epoch(), 1);
    for service in &services {
        assert_eq!(service.epoch(), 1);
        assert!(
            !service.store().graph().has_edge(u, v),
            "the deletion landed"
        );
    }
    assert_eq!(edge_set(&services[0]), edge_set(&services[1]));

    // And the tier keeps committing in lockstep afterwards.
    let staged = ask(&router, &format!("addedge {u} {v}"));
    assert!(staged.contains("\"staged\":\"pending\""), "{staged}");
    let committed = ask(&router, "commit");
    assert!(committed.contains("\"epoch\":2"), "{committed}");
    assert_eq!(edge_set(&services[0]), edge_set(&services[1]));
}

#[test]
fn reads_owned_by_a_replica_off_the_published_epoch_fail_over_marked_degraded() {
    let (router, services, _script) = scripted_router();
    let owned_by = |shard: usize| {
        (0..NODES as u32)
            .find(|&n| shard_of(n, 2) == shard)
            .expect("both shards own a node")
    };
    let (mine0, mine1) = (owned_by(0), owned_by(1));
    let (u, v) = (0..NODES as u32)
        .flat_map(|u| (0..NODES as u32).map(move |v| (u, v)))
        .find(|&(u, v)| u != v && !services[0].store().graph().has_edge(u, v))
        .expect("the graph is not complete");

    // Shard 1 commits behind the router's back: it is now at epoch 1 while
    // the router still publishes epoch 0.
    services[1].store().stage_insert(u, v).unwrap();
    services[1].commit().unwrap();
    assert_eq!(router.epoch(), 0);

    // Reads owned by shard 1 are fenced off it and answered by shard 0 at
    // the published epoch, marked degraded, bit-identical to shard 0's own
    // answer.
    for line in [
        format!("query {mine1} exactsim"),
        format!("topk {mine1} 5 exactsim"),
    ] {
        let routed = ask(&router, &line);
        assert!(routed.contains("\"degraded\":true"), "{line}: {routed}");
        assert!(routed.contains("\"epoch\":0"), "{line}: {routed}");
        assert_eq!(
            answer_bytes(&routed),
            answer_bytes(&ask_service(&services[0], &line)),
            "{line}: the fenced read must be the published-epoch replica's answer"
        );
    }
    // Reads owned by the replica at the published epoch are untouched.
    let healthy = ask(&router, &format!("topk {mine0} 5"));
    assert!(!healthy.contains("\"degraded\""), "{healthy}");
    assert!(healthy.contains("\"epoch\":0"), "{healthy}");
    assert!(
        router.stats_json().contains("\"degraded\":2,"),
        "{}",
        router.stats_json()
    );
    assert!(
        router
            .metrics_text()
            .contains("simrank_router_degraded_total 2"),
        "{}",
        router.metrics_text()
    );

    // Once no replica is at the published epoch, a read fails typed instead
    // of answering for an epoch the router never published.
    services[0].store().stage_insert(u, v).unwrap();
    services[0].commit().unwrap();
    let diverged = ask(&router, &format!("query {mine0}"));
    assert!(
        diverged.contains(&format!("\"code\":\"{}\"", codes::INTERNAL)),
        "{diverged}"
    );
    assert!(
        diverged.contains("epochs diverge") && diverged.contains("commit to heal"),
        "{diverged}"
    );

    // A router commit publishes the epoch both replicas reached, and reads
    // are served by their owners again.
    let committed = ask(&router, "commit");
    assert!(committed.contains("\"epoch\":1"), "{committed}");
    assert_eq!(router.epoch(), 1);
    for node in [mine0, mine1] {
        let reply = ask(&router, &format!("topk {node} 5"));
        assert!(!reply.contains("\"degraded\""), "{reply}");
        assert!(reply.contains("\"epoch\":1"), "{reply}");
    }
}

/// An edge `u → v` (`u != v`) that `service`'s published graph lacks.
fn absent_edge(service: &SimRankService) -> (u32, u32) {
    let graph = service.store().graph();
    (0..NODES as u32)
        .flat_map(|u| (0..NODES as u32).map(move |v| (u, v)))
        .find(|&(u, v)| u != v && !graph.has_edge(u, v))
        .expect("the graph is not complete")
}

/// The router's `errors` count and its fan-out count for `counter`, read
/// from its `stats` reply.
fn errors_and_fanout(router: &ShardRouter, counter: &str) -> (u64, u64) {
    let stats = router.stats_json();
    let fanout = &stats[stats.find("\"fanout\":").expect("a fanout object")..];
    (
        wire::u64_field(&stats, "errors").expect("an errors count"),
        wire::u64_field(fanout, counter).expect("a fan-out count"),
    )
}

/// The verbs the router sends to every shard, each with the fan-out counter
/// it counts into.
const BROADCASTS: [(&str, &str); 4] = [
    ("addnode 1", "update"),
    ("commit", "commit"),
    ("epoch", "epoch"),
    ("save", "save"),
];

#[test]
fn a_broadcast_answers_for_the_first_shard_that_refused_or_could_not_be_asked() {
    for (line, counter) in BROADCASTS {
        let verb = line.split_whitespace().next().unwrap();
        for down in 0..2 {
            let (router, services, script) = scripted_router();
            // A staged edge, so a commit that reached both shards would
            // publish epoch 1.
            let (u, v) = absent_edge(&services[0]);
            let staged = ask(&router, &format!("addedge {u} {v}"));
            assert!(staged.contains("\"staged\":\"pending\""), "{staged}");
            script.fail(down, verb);
            let (errors, fanout) = errors_and_fanout(&router, counter);

            let reply = ask(&router, line);
            let want = if verb == "save" && down == 1 {
                // Shard 0 is asked first, and an in-memory replica refuses
                // `save`: its refusal is the answer, passed through as is.
                ask_service(&services[0], "save")
            } else {
                format!(
                    "{{\"error\":\"scripted failure of `{line}` on shard {down}\",\"code\":\"{}\"}}",
                    codes::SHARD_UNAVAILABLE
                )
            };
            let at = format!("`{line}` with shard {down} down");
            assert_eq!(reply, want, "{at}");
            assert_eq!(
                errors_and_fanout(&router, counter),
                (errors + 1, fanout + 2),
                "{at}"
            );
            assert_eq!(router.epoch(), 0, "{at}: nothing is published");
        }
    }
}

#[test]
fn in_memory_replicas_refuse_save_and_the_router_passes_the_refusal_through() {
    let (router, services, _script) = scripted_router();
    let (errors, fanout) = errors_and_fanout(&router, "save");
    let reply = ask(&router, "save");
    assert!(
        reply.contains(&format!("\"code\":\"{}\"", codes::NOT_DURABLE)),
        "{reply}"
    );
    assert_eq!(reply, ask_service(&services[0], "save"));
    assert_eq!(reply, ask_service(&services[1], "save"));
    assert_eq!(errors_and_fanout(&router, "save"), (errors + 1, fanout + 2));
}

#[test]
fn epoch_and_commit_answer_internal_when_a_replica_committed_out_of_band() {
    for (line, message) in [
        ("epoch", "shard epochs diverge ([0, 1]); commit to heal"),
        (
            "commit",
            "shard epochs diverge after commit ([0, 1]); retry commit to heal",
        ),
    ] {
        let (router, services, _script) = scripted_router();
        let (u, v) = absent_edge(&services[1]);
        services[1].store().stage_insert(u, v).unwrap();
        services[1].commit().unwrap();
        let (errors, fanout) = errors_and_fanout(&router, line);

        let reply = ask(&router, line);
        assert_eq!(
            reply,
            format!(
                "{{\"error\":\"{message}\",\"code\":\"{}\"}}",
                codes::INTERNAL
            ),
            "{line}"
        );
        assert_eq!(
            errors_and_fanout(&router, line),
            (errors + 1, fanout + 2),
            "{line}"
        );
        assert_eq!(router.epoch(), 0, "{line}: nothing is published");
    }
}

#[test]
fn a_broadcast_to_healthy_replicas_counts_its_fan_out_and_no_error() {
    let (router, services, _script) = scripted_router();
    let (u, v) = absent_edge(&services[0]);
    ask(&router, &format!("addedge {u} {v}"));
    for (line, counter) in BROADCASTS {
        if line == "save" {
            continue; // in-memory replicas refuse it (see above)
        }
        let (errors, fanout) = errors_and_fanout(&router, counter);
        let reply = ask(&router, line);
        assert!(wire::error_code(&reply).is_none(), "{line}: {reply}");
        assert_eq!(
            errors_and_fanout(&router, counter),
            (errors, fanout + 2),
            "{line}"
        );
    }
    // The commit published the epoch both replicas reached, and `epoch`
    // answers with the first replica's reply.
    assert_eq!(router.epoch(), 1);
    assert_eq!(ask(&router, "epoch"), ask_service(&services[0], "epoch"));
    assert_eq!(edge_set(&services[0]), edge_set(&services[1]));
}
