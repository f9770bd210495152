//! Network demo: the serving stack end-to-end over real TCP sockets.
//!
//! ```text
//! cargo run --release -p exactsim-examples --bin network_demo
//! ```
//!
//! Boots an in-process `exactsim_service::net` listener on an ephemeral
//! port, then drives it the way remote clients would: three concurrent
//! query connections, one updater connection staging and committing an edge
//! delta mid-traffic, a `stats` readout, and a graceful `shutdown` drain.
//! Exits nonzero if any reply is a protocol error, any answer mixes epochs,
//! or the drain fails — CI runs this on every push.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use exactsim::exactsim::ExactSimConfig;
use exactsim_graph::generators::barabasi_albert;
use exactsim_service::net::{self, LineClient, NetOptions};
use exactsim_service::{AlgorithmKind, ServiceConfig, SimRankService};

fn connect(addr: SocketAddr) -> LineClient {
    LineClient::connect(addr).expect("connect")
}

/// One request-reply exchange; the demo treats any protocol error as fatal.
fn round_trip(client: &mut LineClient, request: &str) -> String {
    let reply = client
        .round_trip(request)
        .unwrap_or_else(|e| panic!("`{request}`: {e}"));
    assert!(!reply.contains("\"error\""), "`{request}` failed: {reply}");
    reply
}

fn epoch_of(json: &str) -> u64 {
    let start = json.find("\"epoch\":").expect("epoch field") + "\"epoch\":".len();
    json[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("numeric epoch")
}

fn main() {
    let n = 1_200;
    let graph = Arc::new(barabasi_albert(n, 4, true, 42).expect("valid generator parameters"));
    let service = SimRankService::new(
        Arc::clone(&graph),
        ServiceConfig {
            exactsim: ExactSimConfig {
                epsilon: 1e-2,
                walk_budget: Some(100_000),
                ..ExactSimConfig::default()
            },
            ..ServiceConfig::default()
        },
    )
    .expect("valid service config");

    let handle = net::serve(
        service,
        "127.0.0.1:0",
        NetOptions {
            max_conns: 8,
            default_algo: AlgorithmKind::ExactSim,
        },
    )
    .expect("bind ephemeral port");
    let addr = handle.local_addr();
    println!("network_demo: listening on {addr}");

    // Three query clients hammer ten hot sources while the updater commits
    // an edge delta mid-traffic over its own socket.
    let started = Instant::now();
    let barrier = Arc::new(Barrier::new(4));
    let clients: Vec<_> = (0..3)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = connect(addr);
                let mut epochs = [0u64; 2];
                barrier.wait();
                for i in 0..30u32 {
                    let source = (7 * c + i) % 10;
                    let reply = if i % 3 == 0 {
                        round_trip(&mut client, &format!("topk {source} 5"))
                    } else {
                        round_trip(&mut client, &format!("query {source}"))
                    };
                    let epoch = epoch_of(&reply);
                    assert!(epoch <= 1, "unexpected epoch {epoch}");
                    epochs[epoch as usize] += 1;
                }
                epochs
            })
        })
        .collect();

    let mut updater = connect(addr);
    barrier.wait();
    round_trip(&mut updater, &format!("addedge 0 {}", n - 1));
    round_trip(&mut updater, &format!("deledge 0 {}", 1));
    let commit = round_trip(&mut updater, "commit");
    assert_eq!(epoch_of(&commit), 1, "commit publishes epoch 1: {commit}");
    println!("network_demo: {commit}");

    let mut served = [0u64; 2];
    for client in clients {
        let epochs = client.join().expect("query client");
        served[0] += epochs[0];
        served[1] += epochs[1];
    }
    println!(
        "network_demo: 90 queries over 3 sockets in {:.0?} ({} pre-commit, {} post-commit), zero errors",
        started.elapsed(),
        served[0],
        served[1]
    );

    let stats = round_trip(&mut updater, "stats");
    println!("network_demo: stats {stats}");
    assert!(stats.contains("\"connections_accepted\":4"), "{stats}");
    assert!(stats.contains("\"connections_rejected\":0"), "{stats}");

    // The Prometheus scrape is the protocol's one multi-line reply; it must
    // frame on the `# EOF` sentinel and carry the traffic just generated.
    let scrape = updater
        .round_trip_multi("metrics", "# EOF")
        .expect("metrics scrape");
    assert!(scrape.ends_with("# EOF\n"), "scrape framing");
    for series in [
        "simrank_queries_total{algo=\"exactsim\",outcome=\"miss\"}",
        "simrank_query_latency_us_bucket{algo=\"exactsim\"",
        "simrank_query_stage_us_count{stage=\"kernel\"}",
        "simrank_connections_accepted_total 4",
        "simrank_net_bytes_total{direction=\"out\"}",
        "simrank_commits_total 1",
    ] {
        assert!(scrape.contains(series), "scrape missing `{series}`");
    }
    println!(
        "network_demo: metrics scrape ok ({} lines, {} bytes)",
        scrape.lines().count(),
        scrape.len()
    );

    let ack = round_trip(&mut updater, "shutdown");
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    handle.join();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener closed after drain"
    );
    println!("network_demo: graceful drain complete");
}
