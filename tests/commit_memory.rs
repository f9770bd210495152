//! Heap a store allocates per commit and per snapshot write, gated against
//! the graph it holds.
//!
//! ExactSim keeps no index, so the graph is all a commit rebuilds; the
//! store builds each commit into the arrays of the graph the commit before
//! it superseded, and a snapshot write streams through a small buffer. This
//! binary installs a counting global allocator with a running total of
//! bytes allocated and checks, on IC@0.005 (the serving benchmark's graph):
//!
//! - on an in-memory store, a durable store recovered with WAL records and
//!   one recovered from a bare snapshot, 20 commits of 2 inserts and 2
//!   deletes: after the second, no commit allocates more than 1% of the
//!   graph's `memory_bytes()` (the first two may build fresh arrays: the
//!   first has no superseded graph, the second supersedes a graph built at
//!   its exact size);
//! - `save()` allocates less than 256 KiB: not the ~4-MB encoding;
//! - an `addnode` commit allocates at most one graph (it grows the id space
//!   inside the merge) plus that 1%, both when it can reuse the superseded
//!   graph and when a held snapshot makes it build fresh.
//!
//! Allocation sizes are deterministic, so the gate is exact in any build
//! profile. A `realloc` counts its whole new size. The file holds a single
//! test because parallel tests would share the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use exactsim_datasets::dataset_by_key;
use exactsim_graph::{DiGraph, NodeId};
use exactsim_store::GraphStore;

/// Bytes allocated since the process started (frees are not subtracted).
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the bytes it allocated.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOCATED.load(Ordering::SeqCst) - before)
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "exactsim-commit-memory-{tag}-{}",
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

/// Stages commits shaped like perfbench's `update_mix` cycles: two new
/// edges in, the previous commit's two out (the base graph's first two for
/// the first commit), so the edge count stays level.
struct Churn {
    state: u64,
    last: Vec<(NodeId, NodeId)>,
}

impl Churn {
    fn new(seed: u64) -> Self {
        Churn {
            state: seed | 1,
            last: Vec::new(),
        }
    }

    fn next_node(&mut self, n: usize) -> NodeId {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        (self.state % n as u64) as NodeId
    }

    fn stage(&mut self, store: &GraphStore) {
        let graph = store.graph().materialize().unwrap();
        if self.last.is_empty() {
            self.last = graph.iter_edges().take(2).collect();
        }
        for (u, v) in std::mem::take(&mut self.last) {
            store.stage_delete(u, v).unwrap();
        }
        while self.last.len() < 2 {
            let (u, v) = (
                self.next_node(graph.num_nodes()),
                self.next_node(graph.num_nodes()),
            );
            if u != v && !graph.has_edge(u, v) && !self.last.contains(&(u, v)) {
                store.stage_insert(u, v).unwrap();
                self.last.push((u, v));
            }
        }
    }
}

/// Runs 20 churn commits on `store` and returns what each allocated.
fn churn_commits(store: &GraphStore, seed: u64) -> Vec<usize> {
    let mut churn = Churn::new(seed);
    (0..20)
        .map(|_| {
            churn.stage(store);
            let (report, bytes) = allocated_by(|| store.commit().unwrap());
            assert_eq!(report.edges_inserted + report.edges_deleted, 4);
            bytes
        })
        .collect()
}

/// Stages an `addnode` commit of three nodes with an edge on each side of
/// the new ids, commits it, and returns its allocation and the new graph.
fn addnode_commit(store: &GraphStore) -> (usize, Arc<DiGraph>) {
    let n = store.num_nodes() as NodeId;
    store.stage_add_nodes(3).unwrap();
    store.stage_insert(n, 0).unwrap();
    store.stage_insert(1, n + 2).unwrap();
    let (report, bytes) = allocated_by(|| store.commit().unwrap());
    assert_eq!(report.nodes_added, 3);
    let graph = store.graph().materialize().unwrap();
    assert!(graph.has_edge(n, 0) && graph.has_edge(1, n + 2));
    (bytes, graph)
}

/// Fails every commit after the second that allocated more than `limit`.
fn check_commits(failures: &mut Vec<String>, what: &str, per_commit: &[usize], limit: usize) {
    println!("{what}: bytes allocated per commit {per_commit:?}");
    for (i, &bytes) in per_commit.iter().enumerate().skip(2) {
        if bytes > limit {
            failures.push(format!(
                "{what}: commit {} allocated {bytes} B > {limit} B",
                i + 1
            ));
        }
    }
}

/// Fails an `addnode` commit that allocated more than the graph it built
/// plus `limit`, the allowance of any commit (a fresh array is rounded up to
/// whole pages, with one more to spare).
fn check_one_graph(
    failures: &mut Vec<String>,
    what: &str,
    (bytes, grown): (usize, Arc<DiGraph>),
    limit: usize,
) {
    println!("{what}: {bytes} B");
    if bytes > grown.memory_bytes() + limit {
        failures.push(format!(
            "{what} allocated {bytes} B > one graph ({} B) + {limit} B",
            grown.memory_bytes()
        ));
    }
}

#[test]
fn commits_and_snapshot_writes_allocate_nothing_the_size_of_the_graph() {
    let graph = dataset_by_key("IC")
        .unwrap()
        .generate_scaled(0.005)
        .unwrap()
        .graph;
    let limit = graph.memory_bytes() / 100;
    println!(
        "IC@0.005: graph {} B, per-commit limit {limit} B",
        graph.memory_bytes()
    );
    let mut failures = Vec::new();

    let memory = GraphStore::new(Arc::new(graph.clone()));
    let per_commit = churn_commits(&memory, 1);
    check_commits(&mut failures, "in-memory", &per_commit, limit);
    check_one_graph(
        &mut failures,
        "in-memory addnode commit",
        addnode_commit(&memory),
        limit,
    );
    // A snapshot of the superseded epoch makes the next commit but one
    // build fresh arrays: still one graph, not two.
    let held = memory.snapshot();
    addnode_commit(&memory);
    check_one_graph(
        &mut failures,
        "addnode commit beside a held snapshot",
        addnode_commit(&memory),
        limit,
    );
    drop((held, memory));

    // Recovered with WAL records: replay builds the graph, so its arrays
    // come out of a merge.
    let dir = TempDir::new("wal");
    {
        let store = GraphStore::create(&dir.0, Arc::new(graph.clone())).unwrap();
        let mut churn = Churn::new(2);
        for _ in 0..6 {
            churn.stage(&store);
            store.commit().unwrap();
        }
    }
    let recovered = GraphStore::open(&dir.0).unwrap();
    assert_eq!(recovered.durability().unwrap().wal_records, 6);
    let per_commit = churn_commits(&recovered, 3);
    check_commits(
        &mut failures,
        "recovered with 6 WAL records",
        &per_commit,
        limit,
    );
    let (saved, bytes) = allocated_by(|| recovered.save().unwrap());
    assert_eq!(saved, recovered.epoch());
    println!("save() at epoch {saved}: {bytes} B");
    if bytes >= 256 << 10 {
        failures.push(format!("save() allocated {bytes} B >= 256 KiB"));
    }
    drop(recovered);

    // Recovered from a bare snapshot: the graph is a decode, exact-size.
    let dir = TempDir::new("bare");
    drop(GraphStore::create(&dir.0, Arc::new(graph)).unwrap());
    let recovered = GraphStore::open(&dir.0).unwrap();
    assert_eq!(recovered.durability().unwrap().wal_records, 0);
    let per_commit = churn_commits(&recovered, 4);
    check_commits(
        &mut failures,
        "recovered from a bare snapshot",
        &per_commit,
        limit,
    );
    check_one_graph(
        &mut failures,
        "durable addnode commit",
        addnode_commit(&recovered),
        limit,
    );

    assert!(failures.is_empty(), "{failures:#?}");
}
