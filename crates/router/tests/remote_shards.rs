//! Remote mode end-to-end: a [`ShardRouter`] over [`RemoteShard`] backends
//! speaking the **unmodified** TCP line protocol to real `net::serve`
//! listeners — replies bit-identical to the in-process path (the f64 wire
//! round-trip is exact), updates commit on every shard, and a shard that
//! dies degrades reads to a live replica (marked `degraded:true`, never a
//! wrong answer, never a hang) while its circuit breaker opens. So do a
//! wedged shard and one refusing connections at its cap, and a restart
//! behind pooled connections costs one failed round trip.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use exactsim::exactsim::ExactSimConfig;
use exactsim_graph::generators::barabasi_albert;
use exactsim_graph::partition::shard_of;
use exactsim_router::{
    BreakerConfig, BreakerState, RemoteShard, ShardBackend, ShardError, ShardRouter,
};
use exactsim_service::net::{self, LineClient, NetOptions};
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

/// What a [`FakeShard`] does with one request line.
enum Respond {
    /// Answer with this line.
    Reply(String),
    /// Answer with this line, then close the connection.
    ReplyAndHangUp(String),
    /// Never answer.
    Silent,
}

/// A listener that answers each request line as `respond(connection index,
/// line)` says, for shard behaviour a real server does not show on cue.
struct FakeShard {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
}

impl FakeShard {
    /// How often its threads look at the stop flag.
    const POLL: Duration = Duration::from_millis(20);

    fn start(respond: impl Fn(usize, &str) -> Respond + Send + Sync + 'static) -> FakeShard {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let respond = Arc::new(respond);
        let acceptor = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                let mut conns = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let index = conns.len();
                            let (respond, stop) = (Arc::clone(&respond), Arc::clone(&stop));
                            conns.push(std::thread::spawn(move || {
                                Self::serve(stream, |line| respond(index, line), &stop)
                            }));
                        }
                        Err(_) => std::thread::sleep(Self::POLL),
                    }
                }
                for conn in conns {
                    conn.join().unwrap();
                }
            }
        });
        FakeShard {
            addr,
            stop,
            acceptor,
        }
    }

    fn serve(stream: TcpStream, respond: impl Fn(&str) -> Respond, stop: &AtomicBool) {
        stream.set_nonblocking(false).unwrap();
        stream.set_read_timeout(Some(Self::POLL)).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        while !stop.load(Ordering::Acquire) {
            match reader.read_until(b'\n', &mut line) {
                Ok(0) => return,
                Ok(_) => {
                    let request = String::from_utf8_lossy(&line).trim().to_string();
                    line.clear();
                    // A failed write means the client hung up.
                    match respond(&request) {
                        Respond::Reply(reply) => {
                            if writeln!(writer, "{reply}").is_err() {
                                return;
                            }
                        }
                        Respond::ReplyAndHangUp(reply) => {
                            let _ = writeln!(writer, "{reply}");
                            return;
                        }
                        Respond::Silent => {}
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => return,
            }
        }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Release);
        self.acceptor.join().unwrap();
    }
}

/// An `epoch` reply at epoch 0, enough for a router's constructor.
const EPOCH_REPLY: &str =
    "{\"epoch\":0,\"pending_insertions\":0,\"pending_deletions\":0,\"pending_nodes\":0}";

#[test]
fn a_failed_round_trip_drops_every_idle_connection_so_a_restart_costs_one_failure() {
    // The first two connections each answer one request once both carry
    // one, then hang up: a shard that restarted behind two pooled sockets.
    // Later connections answer everything. The wait is bounded, so
    // requests that cannot run side by side slow the test, not hang it.
    const PAIRING: Duration = Duration::from_secs(5);
    let asked = Arc::new((Mutex::new(0usize), Condvar::new()));
    let shard = FakeShard::start(move |conn, _| {
        let reply = "{\"op\":\"ok\",\"epoch\":0}".to_string();
        if conn >= 2 {
            return Respond::Reply(reply);
        }
        let (count, arrived) = &*asked;
        let mut count = count.lock().unwrap();
        *count += 1;
        arrived.notify_all();
        drop(
            arrived
                .wait_timeout_while(count, PAIRING, |n| *n < 2)
                .unwrap(),
        );
        Respond::ReplyAndHangUp(reply)
    });
    let backend = RemoteShard::new(shard.addr.to_string());
    let started = Instant::now();
    std::thread::scope(|scope| {
        let asks = [(); 2].map(|_| scope.spawn(|| backend.request("epoch")));
        for ask in asks {
            assert!(ask.join().unwrap().is_ok());
        }
    });
    assert!(
        started.elapsed() < PAIRING,
        "the two requests did not run side by side"
    );
    // Writes are sent at most once, so the first one pays for a stale
    // socket. It drops the other idle one too, so the next write goes out
    // on a fresh connection instead of failing the same way.
    assert!(matches!(
        backend.request("addedge 1 2"),
        Err(ShardError::Unavailable(_))
    ));
    let second = backend.request("addedge 1 2");
    assert!(
        second.is_ok(),
        "a second stale socket was reused: {second:?}"
    );

    drop(backend);
    shard.stop();
}

#[test]
fn a_wedged_shard_is_detected_by_probes_without_waiting_for_the_read_deadline() {
    // Accepts, answers `epoch` (so a router can be built over it), and never
    // answers anything else; it keeps every other line it received.
    let seen = Arc::new(Mutex::new(Vec::new()));
    let wedged = FakeShard::start({
        let seen = Arc::clone(&seen);
        move |_, line| {
            if line == "epoch" {
                return Respond::Reply(EPOCH_REPLY.to_string());
            }
            seen.lock().unwrap().push(line.to_string());
            Respond::Silent
        }
    });

    // A read deadline that expires is a slow or wedged shard, not a stale
    // socket: the read fails once and is not re-sent on a fresh one.
    let direct = RemoteShard::new(wedged.addr.to_string())
        .with_timeouts(Duration::from_millis(500), Duration::from_millis(300));
    assert!(
        direct.request("epoch").is_ok(),
        "the epoch reply pools a connection"
    );
    let started = Instant::now();
    match direct.request("topk 3 5 exactsim") {
        Err(ShardError::Unavailable(_)) => {}
        other => panic!("a wedged read must be unavailable: {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "{:?}",
        started.elapsed()
    );
    assert_eq!(
        *seen.lock().unwrap(),
        ["topk 3 5 exactsim"],
        "the timed-out read was re-sent"
    );

    // A router with the default 60 s read deadline over the wedged shard and
    // a live replica.
    let graph = Arc::new(barabasi_albert(120, 3, true, 7).unwrap());
    let service = SimRankService::new(Arc::clone(&graph), test_config()).unwrap();
    let live = net::serve(service, "127.0.0.1:0", NetOptions::default()).unwrap();
    let router = ShardRouter::new(vec![
        Box::new(RemoteShard::new(wedged.addr.to_string())) as Box<dyn ShardBackend>,
        Box::new(RemoteShard::new(live.local_addr().to_string())),
    ])
    .unwrap();
    let owned_by_wedged = (0..120u32).find(|&n| shard_of(n, 2) == 0).unwrap();
    let line = format!("topk {owned_by_wedged} 5");

    // Each probe round gives up on the wedged shard at the ping deadline, so
    // the breaker opens within `failure_threshold` rounds; the read right
    // after fails fast to the live replica. The channel bounds the wait, so
    // a stalled prober fails the test instead of hanging it.
    let threshold = BreakerConfig::default().failure_threshold;
    let (done, finished) = mpsc::channel();
    let prober = std::thread::spawn({
        let router = router.clone();
        let line = line.clone();
        move || {
            let started = Instant::now();
            for _ in 0..threshold {
                router.probe_once();
            }
            let probing = started.elapsed();
            let health = router.shard_health(0);
            let started = Instant::now();
            let reply = ask(&router, &line);
            let _ = done.send((probing, health, reply, started.elapsed()));
        }
    });
    let (probing, health, reply, read_took) = finished
        .recv_timeout(Duration::from_secs(20))
        .expect("probing a wedged shard stalled for the read deadline");
    prober.join().unwrap();
    let bound = RemoteShard::PING_TIMEOUT * threshold + Duration::from_secs(2);
    assert!(probing < bound, "{threshold} probe rounds took {probing:?}");
    assert_eq!(health, BreakerState::Open);
    assert_eq!(router.shard_health(1), BreakerState::Closed);
    assert!(reply.contains("\"degraded\":true"), "{reply}");
    assert!(!reply.contains("\"error\""), "{reply}");
    assert!(
        read_took < Duration::from_secs(1),
        "failover took {read_took:?}"
    );
    let mut replica = LineClient::connect(live.local_addr()).unwrap();
    let direct_top = replica
        .round_trip(&format!("topk {owned_by_wedged} 5 exactsim"))
        .unwrap();
    assert_eq!(
        strip_query_time(&reply).replace(",\"degraded\":true", ""),
        strip_query_time(&direct_top),
        "the failover answer is the live replica's"
    );
    // One ping per round, none re-sent, and the read never reached it.
    let pings = vec!["ping"; threshold as usize];
    assert_eq!(seen.lock().unwrap()[1..], pings);

    drop(replica);
    router.drain();
    live.request_shutdown();
    live.join();
    wedged.stop();
}

#[test]
fn a_half_open_trial_on_a_wedged_shard_fails_over_at_the_ping_deadline() {
    // Answers `epoch`, then never answers again; keeps every other line.
    let seen = Arc::new(Mutex::new(Vec::new()));
    let wedged = FakeShard::start({
        let seen = Arc::clone(&seen);
        move |_, line| {
            if line == "epoch" {
                return Respond::Reply(EPOCH_REPLY.to_string());
            }
            seen.lock().unwrap().push(line.to_string());
            Respond::Silent
        }
    });
    let graph = Arc::new(barabasi_albert(120, 3, true, 7).unwrap());
    let service = SimRankService::new(Arc::clone(&graph), test_config()).unwrap();
    let live = net::serve(service, "127.0.0.1:0", NetOptions::default()).unwrap();
    // A 3 s read deadline: a read sent to the wedged shard waits all of it.
    let read_deadline = Duration::from_secs(3);
    let router = ShardRouter::new(vec![
        Box::new(
            RemoteShard::new(wedged.addr.to_string())
                .with_timeouts(Duration::from_millis(500), read_deadline),
        ) as Box<dyn ShardBackend>,
        Box::new(RemoteShard::new(live.local_addr().to_string())),
    ])
    .unwrap();
    let owned_by_wedged = (0..120u32).find(|&n| shard_of(n, 2) == 0).unwrap();

    let config = BreakerConfig::default();
    for _ in 0..config.failure_threshold {
        router.probe_once();
    }
    assert_eq!(router.shard_health(0), BreakerState::Open);
    // The first cool-down is `backoff_base` jittered by at most +20%, so
    // after this sleep the next read is admitted as the half-open trial.
    std::thread::sleep(config.backoff_base * 3 / 2);

    let started = Instant::now();
    let reply = ask(&router, &format!("topk {owned_by_wedged} 5"));
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(1_500),
        "the trial read failed over after {took:?} (read deadline {read_deadline:?})"
    );
    assert!(reply.contains("\"degraded\":true"), "{reply}");
    assert!(!reply.contains("\"error\""), "{reply}");
    assert_eq!(
        router.shard_health(0),
        BreakerState::Open,
        "the failed trial re-opens the breaker"
    );
    // The trial was a ping; the read itself never reached the wedged shard.
    let pings = vec!["ping"; config.failure_threshold as usize + 1];
    assert_eq!(*seen.lock().unwrap(), pings);

    router.drain();
    live.request_shutdown();
    live.join();
    wedged.stop();
}

#[test]
fn a_shard_refusing_a_connection_at_capacity_fails_its_reads_over() {
    let graph = Arc::new(barabasi_albert(120, 3, true, 7).unwrap());
    let serve = |max_conns: usize| {
        let service = SimRankService::new(Arc::clone(&graph), test_config()).unwrap();
        let options = NetOptions {
            max_conns,
            ..NetOptions::default()
        };
        net::serve(service, "127.0.0.1:0", options).expect("bind shard listener")
    };
    let shard0 = serve(1);
    let shard1 = serve(64);
    let tight = |addr: SocketAddr| {
        Box::new(
            RemoteShard::new(addr.to_string())
                .with_timeouts(Duration::from_millis(500), Duration::from_secs(30)),
        ) as Box<dyn ShardBackend>
    };
    let router =
        ShardRouter::new(vec![tight(shard0.local_addr()), tight(shard1.local_addr())]).unwrap();
    // The router's pooled connection holds shard 0's only slot: let it go,
    // then have a direct client take the slot once shard 0 has freed it.
    router.drain();
    let started = Instant::now();
    let holder = loop {
        let mut client = LineClient::connect(shard0.local_addr()).unwrap();
        if client
            .round_trip("ping")
            .is_ok_and(|r| r.contains("\"op\":\"ping\""))
        {
            break client;
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shard 0 never freed its slot"
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    let owned_by_full = (0..120u32).find(|&n| shard_of(n, 2) == 0).unwrap();
    let reply = ask(&router, &format!("topk {owned_by_full} 5"));
    assert!(!reply.contains("\"code\":\"capacity\""), "{reply}");
    assert!(!reply.contains("\"error\""), "{reply}");
    assert!(reply.contains("\"degraded\":true"), "{reply}");
    let mut replica = LineClient::connect(shard1.local_addr()).unwrap();
    let direct = replica
        .round_trip(&format!("topk {owned_by_full} 5 exactsim"))
        .unwrap();
    assert_eq!(
        strip_query_time(&reply).replace(",\"degraded\":true", ""),
        strip_query_time(&direct),
        "the failover answer is shard 1's"
    );

    drop((holder, replica));
    router.drain();
    for shard in [shard0, shard1] {
        shard.request_shutdown();
        shard.join();
    }
}
