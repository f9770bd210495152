//! Fault-injection coverage for the durable store: a failed WAL append must
//! leave the staged delta intact and nothing published; a torn append must
//! recover to the previous epoch on reopen; 50 commit cycles under a plan of
//! clean and torn WAL failures, each failure followed by a crash and a
//! reopen, must stay bit-identical to a never-faulted control; an exhausted
//! buffer pool under concurrent pinners must fail typed instead of
//! deadlocking.

use std::sync::{Arc, Barrier, Mutex};

use exactsim_graph::generators::barabasi_albert;
use exactsim_graph::{DiGraph, NodeId};
use exactsim_obs::fault;
use exactsim_store::pages::{write_page_file, FileManager};
use exactsim_store::{BufferPool, GraphStore, StoreError};

// The fault registry is process-global and integration tests run in
// threads, so every test that installs (or must observe a clean) plan
// serialises on this lock.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_guard() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("exactsim-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seed_graph() -> Arc<DiGraph> {
    Arc::new(DiGraph::from_edges(4, &[(0, 2), (1, 2), (2, 3), (3, 0)]))
}

#[test]
fn wal_append_failure_keeps_delta_staged_and_store_retryable() {
    let _g = fault_guard();
    let dir = scratch_dir("wal-error");
    let store = GraphStore::create(&dir, seed_graph()).unwrap();
    store.stage_insert(0, 1).unwrap();

    fault::configure("wal.fsync=nth:1").unwrap();
    let err = store.commit().expect_err("injected fsync failure");
    assert!(
        err.to_string().contains("injected fault at wal.fsync"),
        "unexpected error: {err}"
    );
    // Nothing published, delta still staged: the commit is safe to retry.
    assert_eq!(store.epoch(), 0);
    assert_eq!(store.pending_counts(), (1, 0));
    assert!(!store.graph().has_edge(0, 1));

    // The nth:1 rule fired once; the retry must land — and because the
    // failed append rolled the WAL back to a frame boundary, the retried
    // frame is the only epoch-1 record on disk.
    let report = store.commit().unwrap();
    assert_eq!(report.epoch, 1);
    assert_eq!(store.pending_counts(), (0, 0));
    assert!(store.graph().has_edge(0, 1));

    drop(store);
    let recovered = GraphStore::open(&dir).unwrap();
    assert_eq!(recovered.epoch(), 1);
    assert!(recovered.graph().has_edge(0, 1));

    fault::reset();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_append_recovers_to_previous_epoch() {
    let _g = fault_guard();
    let dir = scratch_dir("wal-torn");
    let store = GraphStore::create(&dir, seed_graph()).unwrap();
    store.stage_insert(0, 1).unwrap();
    store.commit().unwrap(); // epoch 1, clean

    // Power loss mid-append: half the epoch-2 frame reaches disk.
    fault::configure("wal.fsync=nth:1:torn").unwrap();
    store.stage_insert(1, 3).unwrap();
    let err = store.commit().expect_err("injected torn append");
    assert!(err.to_string().contains("injected fault at wal.fsync"));
    fault::reset();

    // Crash and recover: the torn tail must be truncated, landing exactly
    // on epoch 1 — never a partial epoch 2.
    drop(store);
    let recovered = GraphStore::open(&dir).unwrap();
    assert_eq!(recovered.epoch(), 1);
    assert!(recovered.graph().has_edge(0, 1));
    assert!(!recovered.graph().has_edge(1, 3));

    // And the truncated WAL accepts appends again.
    recovered.stage_insert(1, 3).unwrap();
    assert_eq!(recovered.commit().unwrap().epoch, 2);
    drop(recovered);
    let recovered = GraphStore::open(&dir).unwrap();
    assert_eq!(recovered.epoch(), 2);
    assert!(recovered.graph().has_edge(1, 3));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Epoch, node count and the exact edge sequence of `faulted` must match
/// the control's: both are CSR-built from the same committed deltas.
fn assert_identical(label: &str, faulted: &GraphStore, control: &GraphStore) {
    let (f, c) = (faulted.snapshot(), control.snapshot());
    assert_eq!(f.epoch, c.epoch, "{label}: epoch diverged");
    let fg = f.graph.materialize().unwrap();
    let cg = c.graph.materialize().unwrap();
    assert_eq!(fg.num_nodes(), cg.num_nodes(), "{label}: node count");
    assert!(
        fg.iter_edges().eq(cg.iter_edges()),
        "{label}: edges diverged"
    );
}

#[test]
fn crash_loop_under_wal_faults_recovers_bit_identically_every_cycle() {
    const ITERATIONS: u64 = 50;
    const MAX_RETRIES: u32 = 16;
    const NODES: u64 = 64;
    let _g = fault_guard();
    let dir = scratch_dir("crash-loop");
    let seed = Arc::new(DiGraph::from_edges(
        NODES as usize,
        &[(0, 1), (1, 2), (2, 3), (3, 0)],
    ));
    let mut faulted = Some(GraphStore::create(&dir, Arc::clone(&seed)).unwrap());
    // In-memory, so it has no WAL and the `wal.fsync` rules never touch it.
    let control = GraphStore::new(seed);
    // Every 3rd append fails cleanly, every 5th tears its frame; the rule
    // counters are independent, so a retry can fail again.
    fault::configure("wal.fsync=every:3;wal.fsync=every:5:torn").unwrap();

    let mut rng = 0x5eed_f417u64;
    let mut next = move || {
        rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % NODES
    };
    let (mut injected, mut recoveries) = (0u64, 0u64);
    for iter in 0..ITERATIONS {
        let mut batch: Vec<(NodeId, NodeId)> = Vec::new();
        while batch.len() < 3 + (iter % 5) as usize {
            let (u, v) = (next() as NodeId, next() as NodeId);
            if u != v {
                batch.push((u, v));
            }
        }
        for attempt in 1.. {
            let store = faulted.as_ref().unwrap();
            for &(u, v) in &batch {
                store.stage_insert(u, v).unwrap();
            }
            let Err(e) = store.commit() else {
                for &(u, v) in &batch {
                    control.stage_insert(u, v).unwrap();
                }
                control.commit().unwrap();
                assert_identical(&format!("iteration {iter} commit"), store, &control);
                break;
            };
            assert!(
                e.to_string().contains("injected fault"),
                "iteration {iter}: {e}"
            );
            injected += 1;
            // A failed append leaves the delta staged, safe to retry.
            assert!(
                store.pending_counts().0 > 0,
                "iteration {iter}: delta drained"
            );
            // Crash: drop the store with its staged delta, then recover.
            drop(faulted.take());
            let reopened = GraphStore::open(&dir).unwrap();
            recoveries += 1;
            assert_identical(&format!("iteration {iter} recovery"), &reopened, &control);
            faulted = Some(reopened);
            assert!(attempt <= MAX_RETRIES, "iteration {iter}: no commit lands");
        }
    }
    drop(faulted.take());
    let reopened = GraphStore::open(&dir).unwrap();
    assert_identical("final reopen", &reopened, &control);
    let wal_hits = fault::hits(fault::sites::WAL_FSYNC);
    fault::reset();

    // The plan's deterministic outcome: a change here means the store
    // commits, fails or recovers differently.
    assert_eq!((injected, recoveries + 1, wal_hits), (42, 43, 154));
    assert_eq!(reopened.epoch(), ITERATIONS);
    assert_eq!(reopened.snapshot().graph.num_edges(), 244);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_write_failure_leaves_store_serving_and_retryable() {
    let _g = fault_guard();
    let dir = scratch_dir("snapshot");
    let store = GraphStore::create(&dir, seed_graph()).unwrap();
    store.stage_insert(0, 1).unwrap();
    store.commit().unwrap();

    fault::configure("snapshot.write=nth:1").unwrap();
    let err = store.save().expect_err("injected snapshot failure");
    assert!(err.to_string().contains("injected fault at snapshot.write"));
    fault::reset();

    // The failed fold lost nothing: the WAL still holds the commit, the
    // store still serves, and the retried save lands.
    assert_eq!(store.epoch(), 1);
    assert!(store.graph().has_edge(0, 1));
    assert_eq!(store.save().unwrap(), 1);
    drop(store);
    assert_eq!(GraphStore::open(&dir).unwrap().epoch(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pool_exhausted_under_concurrent_pinners_is_typed_not_a_deadlock() {
    // Takes the fault lock only to guarantee no other test's plan (e.g. a
    // page.read rule) is installed while pages are being fetched.
    let _g = fault_guard();
    fault::reset();
    let dir = scratch_dir("pool");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("epoch-0.pages");
    let graph = barabasi_albert(200, 3, true, 5).unwrap().into_in_graph();
    write_page_file(&path, &graph, 0, 64).unwrap();
    let fm = FileManager::open(&path).unwrap();
    assert!(fm.num_pages() >= 3, "need at least 3 pages for this test");

    let pool = BufferPool::new(2);
    let pinned = Barrier::new(3);
    let release = Barrier::new(3);
    std::thread::scope(|s| {
        for page in 0..2u32 {
            let (pool, fm, pinned, release) = (&pool, &fm, &pinned, &release);
            s.spawn(move || {
                let guard = pool.fetch(fm, page).unwrap();
                pinned.wait(); // both frames are now pinned
                release.wait(); // hold the pin until the main assert ran
                drop(guard);
            });
        }
        pinned.wait();
        // Every frame is pinned by another thread: the fetch must give up
        // with the typed error after its bounded clock sweep — blocking
        // here would deadlock the test.
        assert!(matches!(
            pool.fetch(&fm, 2),
            Err(StoreError::PoolExhausted { capacity: 2 })
        ));
        release.wait();
    });

    // Pins released: the same fetch now succeeds by evicting.
    assert!(pool.fetch(&fm, 2).is_ok());
    assert_eq!(pool.stats().pinned, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
