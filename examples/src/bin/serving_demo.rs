//! Serving-layer demo: spin up a [`SimRankService`] on a generated
//! Barabási–Albert graph, fire a batch of repeated top-k queries from
//! several scoped threads, and print throughput plus the cache hit rate.
//!
//! ```text
//! cargo run --release -p exactsim-examples --bin serving_demo
//! ```

use std::sync::Arc;
use std::time::Instant;

use exactsim::exactsim::ExactSimConfig;
use exactsim_graph::generators::barabasi_albert;
use exactsim_graph::NeighborAccess;
use exactsim_service::{AlgorithmKind, ServiceConfig, SimRankService};

/// Client threads sending the batch; the service itself runs no threads.
const CLIENT_THREADS: u32 = 8;

fn main() {
    let n = 2_000;
    let graph = Arc::new(barabasi_albert(n, 4, true, 42).expect("valid generator parameters"));
    println!(
        "graph: Barabási–Albert, {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    let config = ServiceConfig {
        cache_capacity: 256,
        exactsim: ExactSimConfig {
            epsilon: 1e-2,
            walk_budget: Some(200_000),
            ..ExactSimConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = SimRankService::new(graph, config).expect("valid service config");
    println!("service: ExactSim ε = 1e-2, {CLIENT_THREADS} client threads\n");

    // A production-shaped workload: 400 top-k queries concentrated on 25 hot
    // sources (popular nodes dominate real SimRank traffic), dealt
    // round-robin to the client threads so duplicates race while the cache
    // is still cold.
    let hot_sources = 25u32;
    let total = 400u32;

    let start = Instant::now();
    let failures: usize = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENT_THREADS)
            .map(|thread| {
                let service = &service;
                scope.spawn(move || {
                    (thread..total)
                        .step_by(CLIENT_THREADS as usize)
                        .filter(|i| {
                            service
                                .top_k(AlgorithmKind::ExactSim, i % hot_sources, 10)
                                .is_err()
                        })
                        .count()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread"))
            .sum()
    });
    let elapsed = start.elapsed();

    let snap = service.stats();
    println!("batch: {total} top-10 queries over {hot_sources} hot sources");
    println!(
        "time:  {elapsed:?} total, {:.0} queries/s",
        total as f64 / elapsed.as_secs_f64()
    );
    println!("failures: {failures}\n");
    println!("{snap}");
    assert_eq!(failures, 0);
    assert!(
        snap.computations <= u64::from(hot_sources),
        "dedup + cache should cap computations at one per distinct source"
    );

    // --- Online updates: rewire the hottest source and republish ----------
    // The serving loop never stops: the commit bumps the epoch, the stale
    // cached columns become unreachable, and the next query recomputes on
    // the new snapshot.
    println!("\n--- online update ---");
    let before = service.query(AlgorithmKind::ExactSim, 0).expect("serve");
    let far = (n - 1) as u32;
    let existing = *service
        .graph()
        .out_neighbors(0)
        .first()
        .expect("BA node 0 has out-edges");
    service.store().stage_insert(0, far).expect("valid edge");
    service
        .store()
        .stage_delete(0, existing)
        .expect("valid edge");
    let report = service.commit().expect("commit persists");
    println!(
        "commit: epoch {} ({} inserted, {} deleted, {} edges now, built in {:?})",
        report.epoch,
        report.edges_inserted,
        report.edges_deleted,
        report.num_edges,
        report.build_time
    );
    let after = service.query(AlgorithmKind::ExactSim, 0).expect("serve");
    assert_eq!(report.epoch, 1);
    assert_ne!(
        before.scores, after.scores,
        "rewiring node 0 must change its similarity column"
    );
    let snap = service.stats();
    println!(
        "epoch {} serving; {} cached entries invalidated by the commit",
        snap.epoch, snap.invalidations
    );
    assert_eq!(snap.epoch, 1);
    assert!(snap.invalidations > 0, "the epoch-0 generation was swept");
}
