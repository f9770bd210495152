//! Crash-recovery integration tests for the durable [`GraphStore`]:
//! round-trip fidelity, WAL replay (a random history reopened after every
//! commit must equal the live store bit for bit), compaction, and —
//! crucially — corrupt persistence inputs (truncated WAL tails, bit-flipped
//! checksums, wrong version headers, growth past the id space), each of
//! which must fail with a typed [`StoreError`], never a panic or a silent
//! partial load.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use exactsim_graph::DiGraph;
use exactsim_store::{GraphStore, Opened, StoreError, DEFAULT_COMPACT_EVERY};

/// A unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "exactsim-recovery-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn base_graph() -> Arc<DiGraph> {
    // 0 -> 2, 1 -> 2, 2 -> 3, 3 -> 0, plus two spare nodes for growth.
    Arc::new(DiGraph::from_edges(
        6,
        &[(0, 2), (1, 2), (2, 3), (3, 0), (4, 5)],
    ))
}

/// Commits `rounds` single-edge epochs so the WAL has real content.
fn commit_rounds(store: &GraphStore, rounds: usize) {
    let edges = [(0, 1), (1, 3), (2, 0), (3, 2), (4, 0), (5, 1), (0, 4)];
    for &(u, v) in edges.iter().take(rounds) {
        store.stage_insert(u, v).unwrap();
        assert!(store.commit().unwrap().advanced());
    }
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

fn single_snapshot_path(dir: &Path) -> PathBuf {
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    assert_eq!(snaps.len(), 1, "expected exactly one snapshot file");
    snaps.pop().unwrap()
}

#[test]
fn round_trip_recovers_epoch_and_graph_bit_identically() {
    let dir = TempDir::new("round-trip");
    let store = GraphStore::create(dir.path(), base_graph()).unwrap();
    commit_rounds(&store, 3);
    // A deletion epoch too, so replay exercises both directions.
    store.stage_delete(2, 3).unwrap();
    store.commit().unwrap();
    let (graph_before, epoch_before) = {
        let snap = store.snapshot();
        (snap.graph.materialize().unwrap(), snap.epoch)
    };
    drop(store); // crash: nothing is flushed at drop — the WAL already has it

    let recovered = GraphStore::open(dir.path()).unwrap();
    assert_eq!(recovered.epoch(), epoch_before);
    let graph_after = recovered.graph().materialize().unwrap();
    // Bit-identical CSR arrays, not just the same edge set.
    assert_eq!(graph_after.in_csr(), graph_before.in_csr());
    assert!(graph_after.validate());
    assert!(!graph_after.has_edge(2, 3));

    // The recovered store keeps committing durably.
    recovered.stage_insert(2, 5).unwrap();
    assert_eq!(recovered.commit().unwrap().epoch, epoch_before + 1);
    let info = recovered.durability().unwrap();
    assert_eq!(info.last_snapshot_epoch, 0, "no compaction ran yet");
    assert_eq!(info.wal_records, 5);
}

#[test]
fn create_refuses_an_occupied_directory_and_open_needs_a_snapshot() {
    let dir = TempDir::new("occupied");
    let store = GraphStore::create(dir.path(), base_graph()).unwrap();
    drop(store);
    assert!(matches!(
        GraphStore::create(dir.path(), base_graph()),
        Err(StoreError::StoreExists { .. })
    ));

    let empty = TempDir::new("empty");
    std::fs::create_dir_all(empty.path()).unwrap();
    assert!(matches!(
        GraphStore::open(empty.path()),
        Err(StoreError::NoSnapshot { .. })
    ));
}

#[test]
fn open_or_create_boots_fresh_then_recovers() {
    let dir = TempDir::new("open-or-create");
    let (store, how) = GraphStore::open_or_create(dir.path(), || Ok(base_graph())).unwrap();
    assert_eq!(how, Opened::Created);
    commit_rounds(&store, 2);
    drop(store);
    // Second boot must recover, not re-initialize from the closure.
    let (recovered, how) =
        GraphStore::open_or_create(dir.path(), || panic!("must not rebuild")).unwrap();
    assert_eq!(how, Opened::Recovered);
    assert_eq!(recovered.epoch(), 2);

    // A failing init on a fresh dir surfaces the callback's own error.
    let fresh = TempDir::new("init-fails");
    assert!(matches!(
        GraphStore::open_or_create(fresh.path(), || Err(StoreError::InitFailed(
            "no dataset".into()
        ))),
        Err(StoreError::InitFailed(_))
    ));
}

#[test]
fn second_live_process_cannot_open_a_locked_store() {
    let dir = TempDir::new("locked");
    let store = GraphStore::create(dir.path(), base_graph()).unwrap();
    commit_rounds(&store, 1);
    // While the first handle lives, a concurrent open must refuse — two
    // writers appending to one WAL would interleave epochs.
    assert!(matches!(
        GraphStore::open(dir.path()),
        Err(StoreError::Locked { .. })
    ));
    drop(store);
    // The advisory lock dies with the handle (even on a crash): reopening
    // afterwards works.
    assert_eq!(GraphStore::open(dir.path()).unwrap().epoch(), 1);
}

#[test]
fn wal_records_with_out_of_range_endpoints_are_rejected_on_replay() {
    // A WAL paired with the wrong (smaller) store's snapshot must not reach
    // the CSR merge with out-of-range node ids. Build a 20-node store's WAL,
    // then splice it next to a 6-node store's snapshot.
    let big_dir = TempDir::new("range-big");
    let big = GraphStore::create(
        big_dir.path(),
        Arc::new(DiGraph::from_edges(20, &[(0, 1), (18, 19)])),
    )
    .unwrap();
    big.stage_insert(17, 3).unwrap();
    big.commit().unwrap();
    drop(big);

    let small_dir = TempDir::new("range-small");
    let small = GraphStore::create(small_dir.path(), base_graph()).unwrap();
    drop(small);
    std::fs::copy(wal_path(big_dir.path()), wal_path(small_dir.path())).unwrap();

    match GraphStore::open(small_dir.path()) {
        Err(StoreError::WalCorrupt { detail, .. }) => {
            assert!(detail.contains("out of range"), "{detail}");
        }
        other => panic!("expected WalCorrupt, got {other:?}"),
    }
}

/// Appends one hand-framed WAL record with no edges to the store in `dir`,
/// in the format of the `persist` module docs: `payload_len u32`,
/// `crc32 u32` over the payload, then the payload `epoch u64`, `added u64`,
/// `n_ins u32`, `n_del u32`.
fn append_growth_record(dir: &Path, epoch: u64, added_nodes: u64) {
    let mut payload = Vec::new();
    payload.extend_from_slice(&epoch.to_le_bytes());
    payload.extend_from_slice(&added_nodes.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    let mut file = OpenOptions::new().append(true).open(wal_path(dir)).unwrap();
    file.write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    file.write_all(&exactsim_store::persist::crc32(&payload).to_le_bytes())
        .unwrap();
    file.write_all(&payload).unwrap();
}

#[test]
fn wal_records_growing_past_the_u32_id_space_are_rejected_on_replay() {
    // A checksum-valid record whose `added_nodes` leaves the id space that
    // `addnode` staging enforces: `u64::MAX` wraps an unchecked sum (the
    // 6-node store came back with 5 nodes), and a node count of
    // `u32::MAX + 1` is just past the bound (unchecked, recovery tried to
    // allocate the offsets and aborted).
    for added in [u64::MAX, u64::from(u32::MAX) + 1 - 6] {
        let dir = TempDir::new("growth-bound");
        drop(GraphStore::create(dir.path(), base_graph()).unwrap());
        append_growth_record(dir.path(), 1, added);
        match GraphStore::open(dir.path()) {
            Err(StoreError::WalCorrupt { detail, .. }) => {
                assert!(detail.contains("epoch 1"), "{detail}");
                assert!(detail.contains("u32 id space"), "{detail}");
            }
            Ok(store) => panic!(
                "added_nodes {added} recovered Ok with {} nodes",
                store.num_nodes()
            ),
            Err(other) => panic!("added_nodes {added}: expected WalCorrupt, got {other:?}"),
        }
    }
}

/// SplitMix64, the seeded generator of the random histories below.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }
}

/// A copy of the store files in `dir`, which can be opened while the live
/// store holds its WAL lock.
fn copy_store(dir: &Path) -> TempDir {
    let copy = TempDir::new("copy");
    std::fs::create_dir_all(copy.path()).unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), copy.path().join(entry.file_name())).unwrap();
    }
    copy
}

#[test]
fn reopening_after_every_commit_of_a_random_history_equals_the_live_store() {
    // Deletes of published edges (often ones a recent commit inserted),
    // random inserts (on a few nodes, often of an edge deleted earlier),
    // `addnode` with an edge to a new id, and a `save` midway: WAL replay
    // merges many deltas that name the same rows, in order, after growing
    // the graph.
    for seed in 1..=4u64 {
        let mut rng = Rng(seed);
        let dir = TempDir::new("history");
        let store = GraphStore::create(dir.path(), base_graph()).unwrap();
        for commit in 0..30 {
            if commit == 15 {
                store.save().unwrap();
            }
            let n = store.num_nodes() as u64;
            if rng.below(4) == 0 {
                store.stage_add_nodes(1 + rng.below(3)).unwrap();
                let new_id = (n + rng.below(store.pending_nodes())) as u32;
                store.stage_insert(rng.below(n) as u32, new_id).unwrap();
            }
            let space = n + store.pending_nodes();
            for _ in 0..1 + rng.below(4) {
                // Sorted by source: the order the draws index into.
                let mut edges: Vec<(u32, u32)> =
                    store.graph().materialize().unwrap().iter_edges().collect();
                edges.sort_unstable();
                if rng.below(2) == 0 && !edges.is_empty() {
                    let (u, v) = edges[rng.below(edges.len() as u64) as usize];
                    store.stage_delete(u, v).unwrap();
                } else {
                    let (u, v) = (rng.below(space) as u32, rng.below(space) as u32);
                    if u != v {
                        store.stage_insert(u, v).unwrap();
                    }
                }
            }
            store.commit().unwrap();

            let copy = copy_store(dir.path());
            let reopened = GraphStore::open(copy.path()).unwrap();
            let live = store.snapshot();
            let case = format!("seed {seed}, commit {commit}");
            assert_eq!(reopened.epoch(), live.epoch, "{case}");
            let (got, want) = (
                reopened.graph().materialize().unwrap(),
                live.graph.materialize().unwrap(),
            );
            // Bit-identical CSR arrays, not just the same edge set.
            assert_eq!(got.in_csr(), want.in_csr(), "{case}");
        }
    }
}

#[test]
fn save_compacts_the_wal_into_a_fresh_snapshot() {
    let dir = TempDir::new("save");
    let store = GraphStore::create(dir.path(), base_graph()).unwrap();
    commit_rounds(&store, 4);
    assert_eq!(store.durability().unwrap().wal_records, 4);

    assert_eq!(store.save().unwrap(), 4);
    let info = store.durability().unwrap();
    assert_eq!(info.wal_records, 0);
    assert_eq!(info.last_snapshot_epoch, 4);
    // Old snapshot files are gone; exactly one remains.
    let snap = single_snapshot_path(dir.path());
    assert!(snap.ends_with("snapshot-4.snap"));

    // Recovery from the compacted state alone.
    let graph_before = store.graph().materialize().unwrap();
    drop(store);
    let recovered = GraphStore::open(dir.path()).unwrap();
    assert_eq!(recovered.epoch(), 4);
    assert_eq!(
        recovered.graph().materialize().unwrap().in_csr(),
        graph_before.in_csr()
    );
}

#[test]
fn auto_compaction_triggers_at_the_threshold() {
    let dir = TempDir::new("auto-compact");
    let store = GraphStore::create(dir.path(), base_graph()).unwrap();
    assert_eq!(
        store.durability().unwrap().wal_records,
        0,
        "fresh WAL is empty (threshold default {DEFAULT_COMPACT_EVERY})"
    );
    store.set_auto_compaction(3).unwrap();
    commit_rounds(&store, 2);
    assert_eq!(store.durability().unwrap().wal_records, 2);
    commit_rounds_from(&store, &[(0, 4)]);
    let info = store.durability().unwrap();
    assert_eq!(info.wal_records, 0, "third commit folded the WAL");
    assert_eq!(info.last_snapshot_epoch, 3);
    drop(store);
    assert_eq!(GraphStore::open(dir.path()).unwrap().epoch(), 3);
}

fn commit_rounds_from(store: &GraphStore, edges: &[(u32, u32)]) {
    for &(u, v) in edges {
        store.stage_insert(u, v).unwrap();
        store.commit().unwrap();
    }
}

#[test]
fn torn_wal_tail_is_truncated_and_recovery_lands_on_the_last_full_commit() {
    let dir = TempDir::new("torn-tail");
    let store = GraphStore::create(dir.path(), base_graph()).unwrap();
    commit_rounds(&store, 3);
    drop(store);

    // Simulate a crash mid-append: chop bytes off the last record.
    let wal = wal_path(dir.path());
    let len = std::fs::metadata(&wal).unwrap().len();
    let file = OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(len - 5).unwrap();
    drop(file);

    let recovered = GraphStore::open(dir.path()).unwrap();
    assert_eq!(
        recovered.epoch(),
        2,
        "the torn third commit is truncated away"
    );
    assert_eq!(recovered.durability().unwrap().wal_records, 2);
    // The file itself was truncated to the valid prefix, so appending new
    // commits keeps the log well-formed end-to-end.
    recovered.stage_insert(5, 0).unwrap();
    assert_eq!(recovered.commit().unwrap().epoch, 3);
    drop(recovered);
    assert_eq!(GraphStore::open(dir.path()).unwrap().epoch(), 3);
}

#[test]
fn bit_flipped_wal_record_is_a_typed_corruption_error() {
    let dir = TempDir::new("wal-flip");
    let store = GraphStore::create(dir.path(), base_graph()).unwrap();
    commit_rounds(&store, 2);
    drop(store);

    // Flip one payload byte of the FIRST record (offset 8 header + 8 frame):
    // the record is fully present, so this is corruption, not a torn tail.
    let wal = wal_path(dir.path());
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&wal)
        .unwrap();
    file.seek(SeekFrom::Start(20)).unwrap();
    let mut byte = [0u8; 1];
    file.read_exact(&mut byte).unwrap();
    file.seek(SeekFrom::Start(20)).unwrap();
    file.write_all(&[byte[0] ^ 0x40]).unwrap();
    drop(file);

    match GraphStore::open(dir.path()) {
        Err(StoreError::WalCorrupt { offset, detail, .. }) => {
            assert_eq!(offset, 8, "first record sits right after the header");
            assert!(detail.contains("checksum"), "{detail}");
        }
        other => panic!("expected WalCorrupt, got {other:?}"),
    }
}

#[test]
fn corrupted_length_field_before_durable_records_is_corruption_not_a_torn_tail() {
    // A bit-flipped payload_len on a NON-final record must not be treated as
    // a torn tail: truncating there would silently destroy the durably
    // committed records that follow it.
    let dir = TempDir::new("len-flip");
    let store = GraphStore::create(dir.path(), base_graph()).unwrap();
    commit_rounds(&store, 3);
    drop(store);

    // Inflate the FIRST record's length field (offset 8 = right after the
    // file header) so its declared payload overruns the file, while records
    // 2 and 3 physically remain intact after it.
    let wal = wal_path(dir.path());
    let mut file = OpenOptions::new().write(true).open(&wal).unwrap();
    file.seek(SeekFrom::Start(8)).unwrap();
    file.write_all(&0x4000_0000u32.to_le_bytes()).unwrap();
    drop(file);

    match GraphStore::open(dir.path()) {
        Err(StoreError::WalCorrupt { offset, detail, .. }) => {
            assert_eq!(offset, 8);
            assert!(detail.contains("valid records follow"), "{detail}");
        }
        other => panic!("expected WalCorrupt, got {other:?}"),
    }
    // The WAL was NOT truncated: the committed records are still there for
    // offline repair.
    assert!(std::fs::metadata(&wal).unwrap().len() > 8);
}

#[test]
fn corrupt_newest_snapshot_never_silently_rolls_back_to_an_older_one() {
    // Compaction leaves (transiently) multiple snapshots. If the newest one
    // rots and the WAL cannot re-reach its epoch, recovery must refuse with
    // the newest snapshot's error — not quietly publish the older epoch.
    let dir = TempDir::new("no-silent-rollback");
    let store = GraphStore::create(dir.path(), base_graph()).unwrap();
    commit_rounds(&store, 2); // snapshot-0 + WAL records for epochs 1, 2
    let graph = store.graph().materialize().unwrap();
    // Simulate a compaction that wrote its snapshot but crashed before
    // truncating the WAL or deleting snapshot-0.
    exactsim_store::persist::write_snapshot(dir.path(), &graph, 2).unwrap();
    drop(store);

    // Rot the newest snapshot.
    let snap2 = dir.path().join("snapshot-2.snap");
    let mut bytes = std::fs::read(&snap2).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&snap2, &bytes).unwrap();

    // The WAL still covers epochs 1..=2, so falling back to snapshot-0 fully
    // re-reaches the newest proven epoch: recovery succeeds, nothing lost.
    let recovered = GraphStore::open(dir.path()).unwrap();
    assert_eq!(recovered.epoch(), 2);
    assert_eq!(
        recovered.graph().materialize().unwrap().in_csr(),
        graph.in_csr()
    );
    drop(recovered);

    // Now empty the WAL (as a completed compaction would have) while the
    // corrupt snapshot-2 and stale snapshot-0 remain: the fallback can no
    // longer re-reach epoch 2, so recovery must refuse with the newest
    // snapshot's own error instead of silently publishing epoch 0.
    let store = GraphStore::create(dir.path().join("scratch"), base_graph()).unwrap();
    drop(store); // borrow a fresh, empty WAL file (header only)
    std::fs::copy(dir.path().join("scratch/wal.log"), wal_path(dir.path())).unwrap();
    std::fs::remove_dir_all(dir.path().join("scratch")).unwrap();

    match GraphStore::open(dir.path()) {
        Err(StoreError::SnapshotCorrupt { path, .. }) => {
            assert!(path.ends_with("snapshot-2.snap"), "{}", path.display());
        }
        other => panic!("expected SnapshotCorrupt for the newest, got {other:?}"),
    }
}

#[test]
fn bit_flipped_snapshot_checksum_is_a_typed_corruption_error() {
    let dir = TempDir::new("snap-flip");
    let store = GraphStore::create(dir.path(), base_graph()).unwrap();
    drop(store);

    let snap = single_snapshot_path(dir.path());
    // Flip a byte in the middle of the graph payload.
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&snap, &bytes).unwrap();

    match GraphStore::open(dir.path()) {
        Err(StoreError::SnapshotCorrupt { detail, .. }) => {
            assert!(detail.contains("checksum"), "{detail}");
        }
        other => panic!("expected SnapshotCorrupt, got {other:?}"),
    }
}

#[test]
fn wrong_snapshot_version_header_is_a_typed_error() {
    let dir = TempDir::new("snap-version");
    let store = GraphStore::create(dir.path(), base_graph()).unwrap();
    drop(store);

    let snap = single_snapshot_path(dir.path());
    let mut bytes = std::fs::read(&snap).unwrap();
    // Bump the version field (bytes 4..8) to a future version and re-seal
    // the checksum so ONLY the version mismatch can trip.
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    let body_end = bytes.len() - 4;
    let crc = exactsim_store::persist::crc32(&bytes[..body_end]);
    bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&snap, &bytes).unwrap();

    match GraphStore::open(dir.path()) {
        Err(StoreError::UnsupportedVersion {
            found, supported, ..
        }) => {
            assert_eq!(found, 99);
            assert_eq!(supported, 3);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn wrong_wal_version_header_is_a_typed_error() {
    let dir = TempDir::new("wal-version");
    let store = GraphStore::create(dir.path(), base_graph()).unwrap();
    commit_rounds(&store, 1);
    drop(store);

    let wal = wal_path(dir.path());
    let mut file = OpenOptions::new().write(true).open(&wal).unwrap();
    file.seek(SeekFrom::Start(4)).unwrap();
    file.write_all(&7u32.to_le_bytes()).unwrap();
    drop(file);

    assert!(matches!(
        GraphStore::open(dir.path()),
        Err(StoreError::UnsupportedVersion { found: 7, .. })
    ));
}

#[test]
fn version_2_snapshots_and_wals_are_refused() {
    // Version 2 held the out-rows where version 3 holds the in-rows, in the
    // same shape: a v2 file that passed every other check would decode as
    // the transposed graph, so the version field alone must refuse it.
    let dir = TempDir::new("v2");
    let store = GraphStore::create(dir.path(), base_graph()).unwrap();
    commit_rounds(&store, 1);
    drop(store);
    let want = |result: Result<GraphStore, StoreError>, what: &str| match result {
        Err(StoreError::UnsupportedVersion {
            path,
            found: 2,
            supported: 3,
        }) => assert!(path.ends_with(what), "{}", path.display()),
        other => panic!("expected UnsupportedVersion {{ found: 2, supported: 3 }}, got {other:?}"),
    };

    // A v2 WAL header behind a valid v3 snapshot.
    let wal = wal_path(dir.path());
    let v3_wal = std::fs::read(&wal).unwrap();
    let mut bytes = v3_wal.clone();
    bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
    std::fs::write(&wal, &bytes).unwrap();
    want(GraphStore::open(dir.path()), "wal.log");
    std::fs::write(&wal, &v3_wal).unwrap();

    // A v2 snapshot header with its checksum resealed, so only the version
    // can trip.
    let snap = single_snapshot_path(dir.path());
    let mut bytes = std::fs::read(&snap).unwrap();
    bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
    let body_end = bytes.len() - 4;
    let crc = exactsim_store::persist::crc32(&bytes[..body_end]);
    bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&snap, &bytes).unwrap();
    want(GraphStore::open(dir.path()), "snapshot-0.snap");
}

#[test]
fn truncated_snapshot_file_is_a_typed_error() {
    let dir = TempDir::new("snap-truncated");
    let store = GraphStore::create(dir.path(), base_graph()).unwrap();
    drop(store);

    let snap = single_snapshot_path(dir.path());
    let len = std::fs::metadata(&snap).unwrap().len();
    let file = OpenOptions::new().write(true).open(&snap).unwrap();
    file.set_len(len - 9).unwrap();
    drop(file);

    assert!(matches!(
        GraphStore::open(dir.path()),
        Err(StoreError::SnapshotCorrupt { .. })
    ));
}

#[test]
fn stale_wal_records_below_the_snapshot_epoch_replay_as_noops() {
    // Simulate the crash window between compaction's snapshot write and its
    // WAL truncate: snapshot at epoch 2 coexists with WAL records 1..=2.
    let dir = TempDir::new("stale-records");
    let store = GraphStore::create(dir.path(), base_graph()).unwrap();
    commit_rounds(&store, 2);
    let graph = store.graph().materialize().unwrap();
    exactsim_store::persist::write_snapshot(dir.path(), &graph, 2).unwrap();
    // Remove the epoch-0 snapshot so recovery must use the epoch-2 one.
    std::fs::remove_file(dir.path().join("snapshot-0.snap")).unwrap();
    drop(store);

    let recovered = GraphStore::open(dir.path()).unwrap();
    assert_eq!(recovered.epoch(), 2);
    assert_eq!(
        recovered.graph().materialize().unwrap().in_csr(),
        graph.in_csr()
    );
    let info = recovered.durability().unwrap();
    assert_eq!(info.last_snapshot_epoch, 2);
}
