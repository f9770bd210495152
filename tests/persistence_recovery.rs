//! Cross-crate round-trip property (ISSUE 3 acceptance criterion): for any
//! committed durable store, `GraphStore::open` on its data dir yields the
//! same epoch and a `SimRankService` whose query answers are **bit-identical**
//! to the pre-restart service — across algorithms, including after
//! compaction, and for every historical restart point.

use std::path::PathBuf;
use std::sync::Arc;

use exactsim::exactsim::ExactSimConfig;
use exactsim_graph::generators::barabasi_albert;
use exactsim_service::{AlgorithmKind, ServiceConfig, SimRankService};
use exactsim_store::GraphStore;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("exactsim-persist-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config() -> ServiceConfig {
    ServiceConfig {
        exactsim: ExactSimConfig {
            epsilon: 1e-2,
            walk_budget: Some(50_000),
            ..ExactSimConfig::default()
        },
        ..ServiceConfig::default()
    }
}

fn columns(service: &SimRankService) -> Vec<Vec<f64>> {
    let mut all = Vec::new();
    for algo in [
        AlgorithmKind::ExactSim,
        AlgorithmKind::MonteCarlo,
        AlgorithmKind::PrSim,
    ] {
        for source in [0u32, 13, 77] {
            all.push(service.query(algo, source).unwrap().scores().to_vec());
        }
    }
    all
}

#[test]
fn restarted_service_answers_bit_identically_at_every_epoch() {
    let dir = TempDir::new("round-trip");
    let graph = Arc::new(barabasi_albert(150, 3, true, 7).unwrap());
    let store = Arc::new(GraphStore::create(&dir.0, graph).unwrap());
    let service = SimRankService::with_store(Arc::clone(&store), config()).unwrap();

    // A delta stream with inserts, deletes, and a compaction in the middle.
    let updates: &[(&str, u32, u32)] = &[
        ("ins", 0, 149),
        ("ins", 13, 100),
        ("del", 0, 149),
        ("ins", 77, 13),
    ];
    let mut expected = Vec::new(); // (epoch, columns) after every commit
    for (i, &(op, u, v)) in updates.iter().enumerate() {
        match op {
            "ins" => store.stage_insert(u, v).unwrap(),
            _ => store.stage_delete(u, v).unwrap(),
        };
        let report = service.commit().unwrap();
        assert_eq!(report.epoch, i as u64 + 1);
        if i == 1 {
            store.save().unwrap();
        }
        expected.push((report.epoch, columns(&service)));
    }
    let final_epoch = store.epoch();
    drop(service);
    drop(store);

    // Restart: the recovered service must land on the final epoch and
    // reproduce its answers exactly (same CSR → same deterministic walks →
    // same floats, bit for bit).
    let recovered = Arc::new(GraphStore::open(&dir.0).unwrap());
    assert_eq!(recovered.epoch(), final_epoch);
    let service2 = SimRankService::with_store(Arc::clone(&recovered), config()).unwrap();
    let (_, final_columns) = expected.last().unwrap();
    assert_eq!(&columns(&service2), final_columns);

    // And the pair keeps evolving together: a post-restart commit advances
    // from the recovered epoch, and yet another reopen still agrees.
    recovered.stage_insert(100, 0).unwrap();
    assert_eq!(service2.commit().unwrap().epoch, final_epoch + 1);
    let cols_after = columns(&service2);
    drop(service2);
    drop(recovered);

    let reopened = Arc::new(GraphStore::open(&dir.0).unwrap());
    assert_eq!(reopened.epoch(), final_epoch + 1);
    let service3 = SimRankService::with_store(reopened, config()).unwrap();
    assert_eq!(columns(&service3), cols_after);

    // Operator-visible durability state flows through service stats.
    let stats = service3.stats();
    assert_eq!(stats.epoch, final_epoch + 1);
    assert_eq!(stats.last_snapshot_epoch, Some(2), "saved at epoch 2");
    assert_eq!(stats.wal_len, Some(3), "three commits since the save");
    assert!(stats
        .data_dir
        .as_deref()
        .is_some_and(|d| d.contains("exactsim-persist-it-round-trip")));
}
