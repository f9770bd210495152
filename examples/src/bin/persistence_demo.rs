//! Crash-recovery demo: commit edge deltas into a durable store, "kill" the
//! process state, reopen the data directory, and prove the restarted service
//! answers **bit-identically** at the same epoch.
//!
//! ```text
//! cargo run --release -p exactsim-examples --bin persistence_demo
//! ```
//!
//! This is also the CI crash-recovery gate: every assertion here is a hard
//! failure, and the final line is machine-readable.

use std::sync::Arc;

use exactsim::exactsim::ExactSimConfig;
use exactsim_graph::generators::barabasi_albert;
use exactsim_service::{AlgorithmKind, GraphStore, ServiceConfig, SimRankService};

fn config() -> ServiceConfig {
    ServiceConfig {
        exactsim: ExactSimConfig {
            epsilon: 1e-2,
            walk_budget: Some(100_000),
            ..ExactSimConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// The query mix both processes must agree on: a few ExactSim and MonteCarlo
/// single-source columns (both derive randomness deterministically from
/// `(seed, source)`, so equality is exact, not approximate).
fn answer_all(service: &SimRankService) -> Vec<(AlgorithmKind, u32, Vec<f64>)> {
    let mut answers = Vec::new();
    for algo in [AlgorithmKind::ExactSim, AlgorithmKind::MonteCarlo] {
        for source in [0u32, 7, 42, 199] {
            let response = service.query(algo, source).expect("query");
            answers.push((algo, source, response.scores.clone()));
        }
    }
    answers
}

fn main() {
    let dir =
        std::env::temp_dir().join(format!("exactsim-persistence-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- Process 1: build, serve, commit a stream of deltas ---------------
    let graph = Arc::new(barabasi_albert(400, 3, true, 42).expect("valid generator"));
    println!(
        "graph: Barabási–Albert, {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );
    let store = Arc::new(GraphStore::create(&dir, graph).expect("create durable store"));
    let service = SimRankService::with_store(Arc::clone(&store), config()).expect("service");
    println!("store: durable, data dir {}", dir.display());

    // Commit 5 epochs: inserts and deletes, with a mid-stream `save` so
    // recovery exercises snapshot + WAL together.
    let deltas: [(&str, u32, u32); 5] = [
        ("ins", 0, 399),
        ("ins", 7, 300),
        ("del", 0, 399),
        ("ins", 42, 7),
        ("ins", 199, 0),
    ];
    for (i, &(op, u, v)) in deltas.iter().enumerate() {
        let staged = if op == "ins" {
            store.stage_insert(u, v)
        } else {
            store.stage_delete(u, v)
        }
        .expect("stage");
        assert!(staged.changed(), "delta {i} must not be a no-op");
        let report = service.commit().expect("durable commit");
        println!(
            "commit {}: epoch {} ({op} {u}->{v}), {} edges, WAL {} records",
            i + 1,
            report.epoch,
            report.num_edges,
            store.durability().expect("durable").wal_records,
        );
        if i == 2 {
            let epoch = store.save().expect("compaction");
            println!("save: WAL folded into snapshot-{epoch}.snap");
        }
    }

    let epoch_before = service.epoch();
    let answers_before = answer_all(&service);
    let stats = service.stats();
    assert_eq!(stats.last_snapshot_epoch, Some(3));
    assert_eq!(stats.wal_len, Some(2), "two commits after the save");
    println!(
        "process 1: epoch {epoch_before}, {} answered columns, stats {}",
        answers_before.len(),
        stats.to_json()
    );

    // --- Kill ---------------------------------------------------------------
    // Dropping everything discards all in-memory state; only what commit()
    // fsynced before publishing survives, exactly like a SIGKILL between
    // requests.
    drop(service);
    drop(store);
    println!("process 1 killed (all in-memory state gone)\n");

    // --- Process 2: recover and re-answer -----------------------------------
    let recovered = Arc::new(GraphStore::open(&dir).expect("recover data dir"));
    assert_eq!(recovered.epoch(), epoch_before, "recovered the last epoch");
    let service2 = SimRankService::with_store(Arc::clone(&recovered), config()).expect("service");
    let answers_after = answer_all(&service2);

    assert_eq!(answers_before.len(), answers_after.len());
    for ((algo, source, before), (_, _, after)) in answers_before.iter().zip(&answers_after) {
        assert_eq!(
            before, after,
            "{algo} column of source {source} must be bit-identical after restart"
        );
    }
    println!(
        "process 2: epoch {}, all {} columns bit-identical to pre-restart",
        recovered.epoch(),
        answers_after.len()
    );

    // The recovered store keeps committing durably.
    recovered.stage_insert(300, 7).expect("stage");
    let report = service2.commit().expect("durable commit after recovery");
    assert_eq!(report.epoch, epoch_before + 1);
    println!("post-recovery commit: epoch {}", report.epoch);

    std::fs::remove_dir_all(&dir).expect("cleanup");
    println!(
        "\nPERSISTENCE_DEMO_OK epoch={} columns={} recovered_identical=true",
        report.epoch,
        answers_after.len()
    );
}
