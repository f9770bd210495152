//! The durable store's file bytes, pinned across commits.
//!
//! A data directory written by one build is recovered by the next, so the
//! snapshot and WAL bytes are a format, not an implementation detail: how a
//! snapshot is encoded, buffered or checksummed may change, the bytes may
//! not. Each file below is written through the store's public API and folded
//! into one FNV-1a digest:
//!
//! - the epoch-0 snapshot of a Table 2 stand-in (IC@0.001), of a
//!   `DiGraph::from_edges` multigraph (duplicates, self-loops, both
//!   directions of some pairs) and of the empty graph;
//! - the WAL after an insert commit, a delete commit and an `addnode`
//!   commit that attaches an edge to a new id;
//! - the snapshot `save()` folds those three commits into.
//!
//! Re-recording the constants is allowed only in a change whose CHANGES.md
//! entry declares a change of the on-disk format (and bumps
//! `persist::FORMAT_VERSION`). The failure message prints the table to
//! paste.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use exactsim_datasets::dataset_by_key;
use exactsim_graph::{DiGraph, NodeId};
use exactsim_store::GraphStore;

/// `(file, digest)` as recorded for format version 3 (in-row snapshot
/// payloads); the order is the order of [`files`].
const EXPECTED_DIGESTS: [(&str, u64); 5] = [
    ("snapshot IC@0.001", 0x160b588a5d82e468),
    ("snapshot from_edges_multigraph", 0x78a27ae45f9de654),
    ("snapshot empty", 0xcee8c833004f3070),
    ("wal insert+delete+addnode", 0x60a16b52cf497c71),
    ("snapshot saved at epoch 3", 0x163d78d5a96c850d),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "exactsim-file-digests-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A deterministic edge list with duplicates, self-loops and both
/// directions of some pairs, over `n` nodes.
fn messy_edges(n: u32, m: usize) -> Vec<(NodeId, NodeId)> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % u64::from(n)) as NodeId
    };
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let (u, v) = (next(), next());
        edges.push((u, v));
        match edges.len() % 7 {
            0 => edges.push((u, v)), // a duplicate
            3 => edges.push((u, u)), // a self-loop
            5 => edges.push((v, u)), // the reverse
            _ => {}
        }
    }
    edges
}

/// The epoch-0 snapshot file `GraphStore::create` writes for `graph`.
fn created_snapshot(tag: &str, graph: DiGraph) -> Vec<u8> {
    let dir = TempDir::new(tag);
    drop(GraphStore::create(&dir.0, Arc::new(graph)).unwrap());
    read(&dir.0.join("snapshot-0.snap"))
}

fn files() -> Vec<(&'static str, Vec<u8>)> {
    let ic = dataset_by_key("IC")
        .unwrap()
        .generate_scaled(0.001)
        .unwrap()
        .graph;
    let mut out = vec![
        ("snapshot IC@0.001", created_snapshot("ic", ic)),
        (
            "snapshot from_edges_multigraph",
            created_snapshot("multi", DiGraph::from_edges(310, &messy_edges(300, 2_000))),
        ),
        (
            "snapshot empty",
            created_snapshot("empty", DiGraph::from_edges(0, &[])),
        ),
    ];

    let dir = TempDir::new("log");
    let base = DiGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7)]);
    let store = GraphStore::create(&dir.0, Arc::new(base)).unwrap();
    store.stage_insert(0, 2).unwrap();
    store.stage_insert(7, 4).unwrap();
    assert_eq!(store.commit().unwrap().epoch, 1);
    store.stage_delete(1, 2).unwrap();
    assert_eq!(store.commit().unwrap().epoch, 2);
    store.stage_add_nodes(2).unwrap();
    store.stage_insert(9, 3).unwrap();
    assert_eq!(store.commit().unwrap().epoch, 3);
    out.push(("wal insert+delete+addnode", read(&dir.0.join("wal.log"))));
    assert_eq!(store.save().unwrap(), 3);
    out.push((
        "snapshot saved at epoch 3",
        read(&dir.0.join("snapshot-3.snap")),
    ));
    out
}

#[test]
fn snapshot_and_wal_bytes_match_their_recorded_digests() {
    let got: Vec<(&str, u64)> = files()
        .iter()
        .map(|(name, bytes)| (*name, fnv1a(bytes)))
        .collect();
    let names: Vec<&str> = got.iter().map(|&(name, _)| name).collect();
    let expected: Vec<&str> = EXPECTED_DIGESTS.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, expected, "the file list changed");
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:#018x}),\n"))
        .collect();
    let mismatched: Vec<&str> = got
        .iter()
        .zip(EXPECTED_DIGESTS)
        .filter(|(g, e)| g.1 != e.1)
        .map(|(g, _)| g.0)
        .collect();
    assert!(
        mismatched.is_empty(),
        "file bytes changed for {mismatched:?}; if the format change is deliberate, \
         paste:\n{table}"
    );
}
