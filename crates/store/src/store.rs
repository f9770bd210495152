//! The epoch-based dynamic graph store.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use std::path::PathBuf;

use exactsim_graph::{DiGraph, InGraph, NodeId};

use crate::buffer::{BufferPool, PoolStats};
use crate::delta::{DeltaBuffer, Staged};
use crate::error::StoreError;
use crate::handle::GraphHandle;
use crate::paged::PagedGraph;
use crate::pages::{write_page_file, DEFAULT_PAGE_BYTES};
use crate::persist::{DurabilityInfo, DurableLog, WalRecord};

/// Default WAL auto-compaction threshold: once this many delta records
/// accumulate, a commit folds them into a fresh snapshot file.
pub const DEFAULT_COMPACT_EVERY: u64 = 64;

/// How [`GraphStore::open_or_create`] obtained its store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Opened {
    /// The directory held a store; it was recovered.
    Recovered,
    /// The directory held no store; a fresh one was initialized.
    Created,
}

/// A consistent `(graph, epoch)` pair published by a [`GraphStore`].
///
/// The two fields are captured under one lock, so the epoch always describes
/// exactly this graph. Holding a snapshot keeps its backend alive (the
/// handle is `Arc`-backed); later commits publish new snapshots without
/// disturbing it.
#[derive(Clone, Debug)]
pub struct GraphSnapshot {
    /// The immutable graph of this epoch: in-memory or paged (see
    /// [`GraphHandle`]).
    pub graph: GraphHandle,
    /// The monotonic epoch the graph was published under (the initial graph
    /// is epoch 0).
    pub epoch: u64,
}

/// Wall-clock times of five stages of one effective commit.
///
/// In pipeline order: stage the delta, merge it into a new CSR graph, append
/// to the WAL, fsync, publish the new epoch. They do not add up to
/// [`CommitReport::build_time`]: imaging the new epoch's page file (paged
/// mode) and the auto-compaction a commit may run are timed there and
/// nowhere else. The two WAL fields are zero for in-memory stores (there is
/// no log); every field is zero for an empty commit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitTimings {
    /// Copying the staged insert/delete lists out of the delta buffer.
    pub staging: Duration,
    /// Materializing the new CSR graph ([`InGraph::apply_deltas_into`]).
    pub csr_merge: Duration,
    /// Writing the delta record into the WAL (buffered write).
    pub wal_append: Duration,
    /// `fsync` of the WAL — the durability point.
    pub fsync: Duration,
    /// Swapping the published `(graph, epoch)` pair under the write lock.
    pub publish: Duration,
}

/// What one [`GraphStore::commit`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitReport {
    /// The epoch now published. An empty commit reports the unchanged
    /// current epoch.
    pub epoch: u64,
    /// Edge insertions materialized by this commit.
    pub edges_inserted: usize,
    /// Edge deletions materialized by this commit.
    pub edges_deleted: usize,
    /// Nodes appended to the id space by this commit.
    pub nodes_added: usize,
    /// Node count of the published graph.
    pub num_nodes: usize,
    /// Edge count of the published graph.
    pub num_edges: usize,
    /// Wall-clock time of the whole commit (zero for an empty one): staging,
    /// the CSR merge, imaging the page file (paged mode), the WAL append and
    /// its fsync, publishing, and any auto-compaction. The commit reply's
    /// `build_us`.
    pub build_time: Duration,
    /// Five of the stages inside `build_time`; page imaging and
    /// auto-compaction are not among them (all zero for an empty commit).
    pub timings: CommitTimings,
}

impl CommitReport {
    /// `true` iff this commit published a new epoch.
    pub fn advanced(&self) -> bool {
        self.edges_inserted + self.edges_deleted + self.nodes_added > 0
    }
}

struct Published {
    graph: GraphHandle,
    epoch: u64,
}

/// Configuration of the paged serving mode (see [`GraphStore::with_paging`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PagedOptions {
    /// Buffer-pool capacity in pages. Must be at least `threads + 1` for the
    /// pin contract; the default suits the bench graphs.
    pub pool_pages: usize,
    /// Regular-page target capacity in bytes.
    pub page_bytes: usize,
}

impl Default for PagedOptions {
    fn default() -> Self {
        PagedOptions {
            pool_pages: 256,
            page_bytes: DEFAULT_PAGE_BYTES,
        }
    }
}

/// Live state of the paged mode: where epoch page files go and the pool
/// shared across epochs (so hit/miss/eviction counters stay monotonic).
struct PagedMode {
    dir: PathBuf,
    page_bytes: usize,
    pool: Arc<BufferPool>,
}

/// The page file imaging `epoch` inside the paged-mode directory.
fn page_file_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("epoch-{epoch}.pages"))
}

/// A dynamic graph store with epoch-based snapshot publication and optional
/// on-disk durability.
///
/// The store owns the current published graph behind an `Arc` plus a
/// buffer of staged edge updates. Readers call [`GraphStore::snapshot`] (or
/// [`GraphStore::graph`] / [`GraphStore::epoch`]) and never block on writers
/// beyond a pointer-swap critical section; in-flight work simply finishes on
/// the snapshot it captured. Writers stage updates with
/// [`GraphStore::stage_insert`] / [`GraphStore::stage_delete`] — validated
/// against the node-id space and deduplicated against both the base graph
/// and each other — and [`GraphStore::commit`] materializes a new CSR graph
/// in one pass per batch ([`InGraph::apply_deltas_into`]: rows the delta
/// does not name are copied in bulk, and only the named rows are merged),
/// bumps the monotonic epoch, and atomically swaps the published snapshot.
///
/// ## One orientation
///
/// The store serves, commits, snapshots and pages an [`InGraph`]: each
/// node's sorted in-neighbors, which is all a query reads. A [`DiGraph`]
/// handed to [`GraphStore::new`] or [`GraphStore::create`] keeps only its
/// in-rows: when the caller's `Arc` is the only reference (what
/// `simrank-serve` passes), they are moved out without a copy and the
/// out-CSR is freed; a shared `Arc` (a library caller that keeps its graph)
/// has its in-rows copied once. A served graph therefore costs
/// `8·(n+1) + 4·m` bytes, half of the [`DiGraph`] it came from.
///
/// ## What a commit builds into
///
/// The graph is the only state a commit rebuilds, and in steady state a
/// commit allocates nothing the size of it. The store keeps the graph the last commit superseded, and the
/// next commit writes its CSR arrays into that graph's cleared arrays
/// (`Arc::try_unwrap`), so a store holds two graphs: the published one and
/// the retired one. The reuse needs the store's reference to be the last
/// one. Anything still holding the retired epoch — a query in flight, a
/// service that has not adopted the newer epoch yet, a caller's
/// [`GraphSnapshot`] — keeps it intact, and that commit falls back to fresh
/// arrays; so does an array too small for the result (a graph built by a
/// decode or a clone has no room to spare; commit-built arrays keep a page
/// of it). Either way the published bits are the same. A paged store
/// materializes each base transiently and always builds fresh.
///
/// ## Durability
///
/// A store created with [`GraphStore::create`] (or recovered with
/// [`GraphStore::open`]) additionally persists its state under a data
/// directory: a full snapshot file per compaction point plus an append-only
/// delta WAL (see [`crate::persist`] for the formats and the recovery
/// protocol). Each commit appends its delta to the WAL and fsyncs *before*
/// publishing the new epoch, so `open` after a crash restarts the store into
/// exactly the last fully-committed epoch; it replays the whole WAL with one
/// merge ([`InGraph::apply_deltas_into`]), not one per record. A compaction
/// streams the snapshot to disk ([`crate::persist::write_snapshot`]), so it
/// holds no encoding of the graph either.
/// [`GraphStore::save`] folds the WAL into a fresh snapshot; commits also do
/// this automatically once the WAL exceeds a threshold
/// ([`GraphStore::set_auto_compaction`]).
///
/// ## Node-space growth
///
/// The node-id space grows through [`GraphStore::stage_add_nodes`]: new
/// nodes are appended at the top of the id space on commit (recorded in the
/// WAL before the edge delta), and staged insertions may already reference
/// them. The merge appends their empty rows itself, so an `addnode` commit
/// costs the same one copy as any other.
///
/// ## Paged mode
///
/// [`GraphStore::with_paging`] converts the published handle to the paged
/// backend: each epoch is imaged as a page file served through a shared
/// pinning [`BufferPool`], so queries stream adjacency instead of holding
/// the whole CSR in RAM. The page file holds the in-rows alone and is a
/// rebuildable cache — durability still rests solely on the snapshot + WAL.
pub struct GraphStore {
    published: RwLock<Published>,
    /// Mirrors `published.epoch` for lock-free epoch polls on hot paths.
    epoch: AtomicU64,
    /// Staging is serialized; commit holds this lock end-to-end so the base
    /// graph cannot change under a validation or a CSR rebuild.
    pending: Mutex<DeltaBuffer>,
    /// `Some` for durable stores. Locked *after* `pending` everywhere (commit
    /// and save both hold `pending` first), so the order is consistent.
    durable: Mutex<Option<DurableLog>>,
    commits: AtomicU64,
    /// `Some` once [`GraphStore::with_paging`] ran; immutable afterwards.
    paged: Option<PagedMode>,
    /// The in-memory graph the last commit superseded, whose arrays the next
    /// commit builds into if this is the last reference to it by then.
    /// Taken and refilled only by `commit`, under `pending`.
    retired: Mutex<Option<Arc<InGraph>>>,
}

impl std::fmt::Debug for GraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snapshot = self.snapshot();
        f.debug_struct("GraphStore")
            .field("epoch", &snapshot.epoch)
            .field("num_nodes", &snapshot.graph.num_nodes())
            .field("num_edges", &snapshot.graph.num_edges())
            .field("durable", &self.durability())
            .finish_non_exhaustive()
    }
}

/// The in-rows a store serves from `graph`: moved out without a copy when
/// the caller's `Arc` is the only one (the out-CSR is freed), copied once
/// when the graph is shared.
fn served_rows(graph: Arc<DiGraph>) -> InGraph {
    match Arc::try_unwrap(graph) {
        Ok(graph) => graph.into_in_graph(),
        Err(shared) => shared.in_graph().clone(),
    }
}

impl GraphStore {
    /// Creates an in-memory store publishing `graph`'s in-rows as epoch 0
    /// (see [One orientation](GraphStore#one-orientation): a uniquely held
    /// `graph` is not copied). Nothing is persisted; use
    /// [`GraphStore::create`] for a durable store.
    pub fn new(graph: Arc<DiGraph>) -> Self {
        Self::assemble(Arc::new(served_rows(graph)), 0, None)
    }

    /// Creates a durable store publishing `graph`'s in-rows as epoch 0 and
    /// initializes `dir` with their first snapshot file and an empty WAL.
    /// Fails with [`StoreError::StoreExists`] if `dir` already holds a store
    /// — recover those with [`GraphStore::open`] instead.
    pub fn create<P: AsRef<Path>>(dir: P, graph: Arc<DiGraph>) -> Result<Self, StoreError> {
        let graph = served_rows(graph);
        let log = DurableLog::create(dir.as_ref(), &graph, 0)?;
        Ok(Self::assemble(Arc::new(graph), 0, Some(log)))
    }

    /// Recovers a durable store from its data directory: loads the newest
    /// valid snapshot, replays the WAL to the last fully-committed epoch
    /// (truncating a torn tail), and publishes the result. The recovered
    /// store answers queries bit-identically to the pre-restart process at
    /// the same epoch.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self, StoreError> {
        let (graph, epoch, log) = DurableLog::open(dir.as_ref())?;
        Ok(Self::assemble(Arc::new(graph), epoch, Some(log)))
    }

    /// [`GraphStore::open`] if `dir` holds a store, otherwise
    /// [`GraphStore::create`] with the graph produced by `init` (which is
    /// only invoked in the create case — recovery never pays for a graph
    /// build, and an `init` failure surfaces as its returned error). The
    /// boot path for servers with a `--data-dir`; the [`Opened`]
    /// discriminant says which branch ran, for logging.
    pub fn open_or_create<P, F>(dir: P, init: F) -> Result<(Self, Opened), StoreError>
    where
        P: AsRef<Path>,
        F: FnOnce() -> Result<Arc<DiGraph>, StoreError>,
    {
        match Self::open(dir.as_ref()) {
            Ok(store) => Ok((store, Opened::Recovered)),
            Err(e) if e.means_no_store_yet(dir.as_ref()) => {
                Ok((Self::create(dir, init()?)?, Opened::Created))
            }
            Err(e) => Err(e),
        }
    }

    fn assemble(graph: Arc<InGraph>, epoch: u64, log: Option<DurableLog>) -> Self {
        GraphStore {
            published: RwLock::new(Published {
                graph: GraphHandle::Mem(graph),
                epoch,
            }),
            epoch: AtomicU64::new(epoch),
            pending: Mutex::new(DeltaBuffer::new()),
            durable: Mutex::new(log),
            commits: AtomicU64::new(0),
            paged: None,
            retired: Mutex::new(None),
        }
    }

    /// Converts the store to the paged serving mode: images the current
    /// epoch as a page file under `dir`, opens it over a fresh
    /// [`BufferPool`] of `opts.pool_pages` frames, and republishes the
    /// snapshot as [`GraphHandle::Paged`]. Every later commit images its new
    /// epoch the same way (removing the superseded file) through the *same*
    /// pool, so pool counters are monotonic across epochs.
    ///
    /// Call at construction time, before the store is shared:
    ///
    /// ```ignore
    /// let store = GraphStore::open(&data_dir)?
    ///     .with_paging(data_dir.join("pages"), PagedOptions::default())?;
    /// ```
    pub fn with_paging<P: AsRef<Path>>(
        mut self,
        dir: P,
        opts: PagedOptions,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, "create_dir", e))?;
        let snapshot = self.snapshot();
        let graph = snapshot.graph.materialize()?;
        let path = page_file_path(&dir, snapshot.epoch);
        write_page_file(&path, &graph, snapshot.epoch, opts.page_bytes)?;
        let pool = Arc::new(BufferPool::new(opts.pool_pages));
        let paged_graph = PagedGraph::open(&path, Arc::clone(&pool))?;
        {
            let mut published = self.published.write().expect("published snapshot poisoned");
            published.graph = GraphHandle::Paged(Arc::new(paged_graph));
        }
        // Stale page files from previous runs (other epochs) are dead weight,
        // and so are the temp files of page writes a crash or a failure cut
        // short (this epoch's was renamed into place above).
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                if entry.path() != path
                    && entry.file_name().to_str().is_some_and(|n| {
                        n.starts_with("epoch-")
                            && (n.ends_with(".pages") || n.ends_with(".pages.tmp"))
                    })
                {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        self.paged = Some(PagedMode {
            dir,
            page_bytes: opts.page_bytes,
            pool,
        });
        Ok(self)
    }

    /// `true` iff the store serves through the paged backend.
    pub fn is_paged(&self) -> bool {
        self.paged.is_some()
    }

    /// Buffer-pool statistics (`None` unless paged).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.paged.as_ref().map(|mode| mode.pool.stats())
    }

    /// The current consistent `(graph, epoch)` pair.
    pub fn snapshot(&self) -> GraphSnapshot {
        let published = self.published.read().expect("published snapshot poisoned");
        GraphSnapshot {
            graph: published.graph.clone(),
            epoch: published.epoch,
        }
    }

    /// The currently published graph handle.
    pub fn graph(&self) -> GraphHandle {
        self.snapshot().graph
    }

    /// The currently published epoch (lock-free; pairs with the snapshot the
    /// same or a later epoch publishes).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Node count of the currently published snapshot (grows when `addnode`
    /// commits land).
    pub fn num_nodes(&self) -> usize {
        self.snapshot().graph.num_nodes()
    }

    /// Durable-state description (`None` for in-memory stores): data
    /// directory, WAL record count, epoch of the newest snapshot file.
    pub fn durability(&self) -> Option<DurabilityInfo> {
        self.durable
            .lock()
            .expect("durable log poisoned")
            .as_ref()
            .map(|log| log.info())
    }

    /// Sets the WAL auto-compaction threshold (`0` disables; default
    /// [`DEFAULT_COMPACT_EVERY`]). Fails on in-memory stores.
    pub fn set_auto_compaction(&self, every: u64) -> Result<(), StoreError> {
        match self.durable.lock().expect("durable log poisoned").as_mut() {
            Some(log) => {
                log.set_compact_every(every);
                Ok(())
            }
            None => Err(StoreError::NotDurable),
        }
    }

    /// Validates an edge's endpoints against a node space of `n` ids (the
    /// published count plus any staged-but-uncommitted `addnode` growth).
    fn validate(n: u64, u: NodeId, v: NodeId) -> Result<(), StoreError> {
        for node in [u, v] {
            if u64::from(node) >= n {
                return Err(StoreError::NodeOutOfRange {
                    node: u64::from(node),
                    num_nodes: n,
                });
            }
        }
        if u == v {
            return Err(StoreError::SelfLoop(u64::from(u)));
        }
        Ok(())
    }

    /// Stages the insertion of `u → v` for the next commit.
    ///
    /// Returns how the buffer changed: inserting an edge the published graph
    /// already has (or that is already staged) is a [`Staged::NoOp`], and
    /// inserting an edge staged for deletion cancels the deletion. Self-loops
    /// and out-of-range endpoints are rejected.
    pub fn stage_insert(&self, u: NodeId, v: NodeId) -> Result<Staged, StoreError> {
        let mut pending = self.pending.lock().expect("pending delta poisoned");
        // One published-lock acquisition per staged edge: validation and
        // dedup share the same base snapshot (stable while `pending` is
        // held, since commits serialize on it).
        let base = self.graph();
        Self::validate(base.num_nodes() as u64 + pending.added_nodes(), u, v)?;
        Ok(pending.stage_insert(&base, u, v))
    }

    /// Stages the growth of the node-id space by `count` nodes for the next
    /// commit and returns the total pending growth. The new ids are
    /// `n .. n + total` (appended at the top of the id space, born
    /// isolated); staged insertions may reference them immediately. Fails
    /// only if the growth would overflow the `u32` node-id space.
    pub fn stage_add_nodes(&self, count: u64) -> Result<u64, StoreError> {
        let mut pending = self.pending.lock().expect("pending delta poisoned");
        let base_n = self.graph().num_nodes() as u64;
        let total = base_n
            .checked_add(pending.added_nodes())
            .and_then(|t| t.checked_add(count));
        if total.is_none_or(|t| t > u64::from(u32::MAX)) {
            return Err(StoreError::NodeSpaceExhausted {
                requested: count,
                num_nodes: base_n,
            });
        }
        Ok(pending.stage_add_nodes(count))
    }

    /// Total nodes staged for addition by the next commit.
    pub fn pending_nodes(&self) -> u64 {
        self.pending
            .lock()
            .expect("pending delta poisoned")
            .added_nodes()
    }

    /// Stages the deletion of `u → v` for the next commit. Deleting an edge
    /// the published graph does not have is a [`Staged::NoOp`]; deleting a
    /// staged insertion cancels it.
    pub fn stage_delete(&self, u: NodeId, v: NodeId) -> Result<Staged, StoreError> {
        let mut pending = self.pending.lock().expect("pending delta poisoned");
        let base = self.graph();
        Self::validate(base.num_nodes() as u64 + pending.added_nodes(), u, v)?;
        Ok(pending.stage_delete(&base, u, v))
    }

    /// Number of staged `(insertions, deletions)`.
    pub fn pending_counts(&self) -> (usize, usize) {
        let pending = self.pending.lock().expect("pending delta poisoned");
        (pending.num_insertions(), pending.num_deletions())
    }

    /// Discards every staged update without publishing anything.
    pub fn rollback(&self) -> (usize, usize) {
        let mut pending = self.pending.lock().expect("pending delta poisoned");
        let counts = (pending.num_insertions(), pending.num_deletions());
        pending.clear();
        counts
    }

    /// Number of commits that published a new epoch.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Materializes the staged delta into a new CSR graph, bumps the epoch,
    /// and atomically swaps the published snapshot.
    ///
    /// Readers never see a torn state: the `(graph, epoch)` pair changes
    /// under one write lock held only for the pointer swap, and snapshots
    /// captured before the swap stay fully usable. An empty commit publishes
    /// nothing and reports the current epoch with zero counts.
    ///
    /// On a durable store the delta is appended to the WAL and fsynced
    /// *before* the epoch is published — the WAL write is the durability
    /// point, and a failed write returns an error with the staged delta
    /// intact (nothing published, safe to retry). In-memory stores cannot
    /// fail. After a successful durable commit the WAL may additionally be
    /// folded into a fresh snapshot (auto-compaction); a compaction failure
    /// is *not* surfaced here because the commit itself is already durable —
    /// the WAL still holds every delta and the next commit or
    /// [`GraphStore::save`] retries the fold.
    pub fn commit(&self) -> Result<CommitReport, StoreError> {
        let mut pending = self.pending.lock().expect("pending delta poisoned");
        if pending.is_empty() {
            let snapshot = self.snapshot();
            return Ok(CommitReport {
                epoch: snapshot.epoch,
                edges_inserted: 0,
                edges_deleted: 0,
                nodes_added: 0,
                num_nodes: snapshot.graph.num_nodes(),
                num_edges: snapshot.graph.num_edges(),
                build_time: Duration::ZERO,
                timings: CommitTimings::default(),
            });
        }
        let start = Instant::now();
        let mut timings = CommitTimings::default();
        // Copy (not drain) so a failed WAL append leaves the delta staged.
        let (insertions, deletions) = {
            let stage_start = Instant::now();
            let lists = pending.lists();
            timings.staging = stage_start.elapsed();
            exactsim_obs::trace::record("stage", stage_start, timings.staging);
            lists
        };
        let added_nodes = pending.added_nodes();
        // The pending lock serializes commits, so the published graph cannot
        // change between this read and the swap below.
        let base = self.snapshot();
        let merge_start = Instant::now();
        // The paged backend materializes transiently; `Mem` hands back its
        // existing `Arc` (no copy).
        let base_graph = base.graph.materialize()?;
        // The graph the last commit superseded becomes this one's arrays,
        // unless something still holds it: then the merge allocates fresh.
        let spare = self
            .retired
            .lock()
            .expect("retired graph poisoned")
            .take()
            .and_then(|graph| Arc::try_unwrap(graph).ok());
        // The new ids are appended before the delta applies, so staged
        // insertions may reference them.
        let num_nodes = base_graph.num_nodes() + added_nodes as usize;
        let next =
            Arc::new(base_graph.apply_deltas_into(num_nodes, &[(&insertions, &deletions)], spare));
        timings.csr_merge = merge_start.elapsed();
        exactsim_obs::trace::record("csr_merge", merge_start, timings.csr_merge);
        let next_epoch = base.epoch + 1;

        // Image the new epoch as a page file *before* the WAL append: a
        // failed image leaves at worst an orphan file (overwritten on
        // retry), whereas failing after the append would strand a durable
        // epoch that was never published.
        let next_handle = match &self.paged {
            None => GraphHandle::Mem(Arc::clone(&next)),
            Some(mode) => {
                let path = page_file_path(&mode.dir, next_epoch);
                write_page_file(&path, &next, next_epoch, mode.page_bytes)?;
                let paged = PagedGraph::open(&path, Arc::clone(&mode.pool))?;
                GraphHandle::Paged(Arc::new(paged))
            }
        };

        let mut durable = self.durable.lock().expect("durable log poisoned");
        if let Some(log) = durable.as_mut() {
            let append_start = Instant::now();
            let (wal_append, fsync) = log.append(&WalRecord {
                epoch: next_epoch,
                added_nodes,
                insertions: insertions.clone(),
                deletions: deletions.clone(),
            })?;
            timings.wal_append = wal_append;
            timings.fsync = fsync;
            exactsim_obs::trace::record("wal_append", append_start, wal_append);
            exactsim_obs::trace::record("fsync", append_start + wal_append, fsync);
        }
        pending.clear();

        let publish_start = Instant::now();
        let epoch = {
            let mut published = self.published.write().expect("published snapshot poisoned");
            published.epoch = next_epoch;
            published.graph = next_handle;
            self.epoch.store(published.epoch, Ordering::Release);
            published.epoch
        };
        timings.publish = publish_start.elapsed();
        exactsim_obs::trace::record("publish", publish_start, timings.publish);
        self.commits.fetch_add(1, Ordering::Relaxed);
        if self.paged.is_none() {
            *self.retired.lock().expect("retired graph poisoned") = Some(base_graph);
        }

        // The superseded epoch's page file is dead once no snapshot holds
        // it; removal is best-effort (an open handle keeps the inode alive
        // on Unix, and a leftover file is only disk, not correctness).
        if let Some(mode) = &self.paged {
            let _ = std::fs::remove_file(page_file_path(&mode.dir, base.epoch));
        }

        if let Some(log) = durable.as_mut() {
            if log.should_compact() {
                // Best-effort: the commit is already durable in the WAL; a
                // failed fold leaves the WAL long and is retried later.
                let _ = log.compact(&next, epoch);
            }
        }

        Ok(CommitReport {
            epoch,
            edges_inserted: insertions.len(),
            edges_deleted: deletions.len(),
            nodes_added: added_nodes as usize,
            num_nodes: next.num_nodes(),
            num_edges: next.num_edges(),
            build_time: start.elapsed(),
            timings,
        })
    }

    /// Folds the WAL into a fresh snapshot file of the current epoch and
    /// deletes superseded snapshot files. Returns the epoch the snapshot
    /// holds. Fails with [`StoreError::NotDurable`] on in-memory stores.
    pub fn save(&self) -> Result<u64, StoreError> {
        // Taking `pending` first serializes with commit, so the snapshot we
        // write is exactly the published graph and no WAL append interleaves
        // with the truncate.
        let _pending = self.pending.lock().expect("pending delta poisoned");
        let mut durable = self.durable.lock().expect("durable log poisoned");
        let log = durable.as_mut().ok_or(StoreError::NotDurable)?;
        let snapshot = self.snapshot();
        let graph = snapshot.graph.materialize()?;
        log.compact(&graph, snapshot.epoch)?;
        Ok(snapshot.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> GraphStore {
        // 0 -> 2, 1 -> 2, 2 -> 3, 3 -> 0
        GraphStore::new(Arc::new(DiGraph::from_edges(
            4,
            &[(0, 2), (1, 2), (2, 3), (3, 0)],
        )))
    }

    #[test]
    fn commit_publishes_a_new_epoch_with_the_delta_applied() {
        let store = store();
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.stage_insert(0, 1).unwrap(), Staged::Pending);
        assert_eq!(store.stage_delete(2, 3).unwrap(), Staged::Pending);
        assert_eq!(store.pending_counts(), (1, 1));

        let report = store.commit().unwrap();
        assert!(report.advanced());
        assert_eq!(report.epoch, 1);
        assert_eq!(report.edges_inserted, 1);
        assert_eq!(report.edges_deleted, 1);
        assert_eq!(report.num_edges, 4);
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.commits(), 1);
        assert_eq!(store.pending_counts(), (0, 0));

        let graph = store.graph();
        assert!(graph.has_edge(0, 1));
        assert!(!graph.has_edge(2, 3));
        assert!(graph.validate());
    }

    #[test]
    fn empty_commit_is_a_published_noop() {
        let store = store();
        let report = store.commit().unwrap();
        assert!(!report.advanced());
        assert_eq!(report.epoch, 0);
        assert_eq!(report.num_edges, 4);
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.commits(), 0);
    }

    #[test]
    fn staging_validates_ids_and_self_loops() {
        let store = store();
        assert_eq!(
            store.stage_insert(0, 9),
            Err(StoreError::NodeOutOfRange {
                node: 9,
                num_nodes: 4
            })
        );
        assert!(store
            .stage_delete(7, 0)
            .unwrap_err()
            .to_string()
            .contains('7'));
        assert_eq!(store.stage_insert(2, 2), Err(StoreError::SelfLoop(2)));
        assert_eq!(store.pending_counts(), (0, 0));
    }

    #[test]
    fn old_snapshots_survive_commits_unchanged() {
        let store = store();
        let before = store.snapshot();
        store.stage_insert(1, 3).unwrap();
        store.commit().unwrap();
        let after = store.snapshot();
        assert_eq!(before.epoch, 0);
        assert_eq!(after.epoch, 1);
        assert!(
            !before.graph.has_edge(1, 3),
            "old snapshot must be immutable"
        );
        assert!(after.graph.has_edge(1, 3));
    }

    #[test]
    fn rollback_discards_staged_updates() {
        let store = store();
        store.stage_insert(0, 1).unwrap();
        store.stage_delete(3, 0).unwrap();
        assert_eq!(store.rollback(), (1, 1));
        let report = store.commit().unwrap();
        assert!(!report.advanced());
        assert_eq!(store.epoch(), 0);
    }

    #[test]
    fn staging_dedups_against_published_graph_and_buffer() {
        let store = store();
        assert_eq!(store.stage_insert(0, 2).unwrap(), Staged::NoOp); // exists
        assert_eq!(store.stage_delete(0, 1).unwrap(), Staged::NoOp); // absent
        assert_eq!(store.stage_insert(0, 1).unwrap(), Staged::Pending);
        assert_eq!(store.stage_delete(0, 1).unwrap(), Staged::Cancelled);
        assert_eq!(store.pending_counts(), (0, 0));
    }

    #[test]
    fn successive_commits_compose() {
        let store = store();
        store.stage_insert(0, 1).unwrap();
        assert_eq!(store.commit().unwrap().epoch, 1);
        // Now 0 -> 1 is part of the published base: re-inserting is a no-op,
        // deleting stages a real deletion.
        assert_eq!(store.stage_insert(0, 1).unwrap(), Staged::NoOp);
        assert_eq!(store.stage_delete(0, 1).unwrap(), Staged::Pending);
        assert_eq!(store.commit().unwrap().epoch, 2);
        assert!(!store.graph().has_edge(0, 1));
        assert_eq!(store.graph().num_edges(), 4);
    }

    #[test]
    fn in_memory_store_reports_no_durability() {
        let store = store();
        assert!(store.durability().is_none());
        assert_eq!(store.save(), Err(StoreError::NotDurable));
        assert_eq!(store.set_auto_compaction(4), Err(StoreError::NotDurable));
    }

    #[test]
    fn concurrent_readers_never_observe_torn_snapshots() {
        let store = Arc::new(store());
        let stop = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last_epoch = 0;
                    while stop.load(Ordering::Relaxed) == 0 {
                        let snap = store.snapshot();
                        assert!(snap.epoch >= last_epoch, "epoch must be monotonic");
                        last_epoch = snap.epoch;
                        // Epoch k has exactly 4 + k edges in this workload —
                        // a torn (graph, epoch) pair would break this.
                        assert_eq!(
                            snap.graph.num_edges(),
                            4 + snap.epoch as usize,
                            "snapshot tore: epoch and graph disagree"
                        );
                        assert!(snap.graph.validate());
                    }
                })
            })
            .collect();
        // 8 commits, each adding exactly one edge.
        for (u, v) in [
            (0, 1),
            (0, 3),
            (1, 0),
            (1, 3),
            (2, 0),
            (2, 1),
            (3, 1),
            (3, 2),
        ] {
            store.stage_insert(u, v).unwrap();
            let report = store.commit().unwrap();
            assert!(report.advanced());
        }
        stop.store(1, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(store.epoch(), 8);
        assert_eq!(store.graph().num_edges(), 12);
    }

    #[test]
    fn addnode_grows_the_id_space_and_accepts_edges_to_new_ids() {
        let store = store();
        assert_eq!(store.num_nodes(), 4);
        // Edges to not-yet-added ids are still rejected.
        assert_eq!(
            store.stage_insert(0, 4),
            Err(StoreError::NodeOutOfRange {
                node: 4,
                num_nodes: 4
            })
        );
        assert_eq!(store.stage_add_nodes(2).unwrap(), 2);
        assert_eq!(store.pending_nodes(), 2);
        // Staged growth widens the id space visible to staging immediately.
        store.stage_insert(0, 4).unwrap();
        store.stage_insert(5, 1).unwrap();
        assert_eq!(
            store.stage_insert(0, 6),
            Err(StoreError::NodeOutOfRange {
                node: 6,
                num_nodes: 6
            })
        );
        let report = store.commit().unwrap();
        assert!(report.advanced());
        assert_eq!(report.nodes_added, 2);
        assert_eq!(report.num_nodes, 6);
        assert_eq!(store.num_nodes(), 6);
        let graph = store.graph();
        assert!(graph.has_edge(0, 4));
        assert!(graph.has_edge(5, 1));
        assert!(graph.validate());
        assert_eq!(store.pending_nodes(), 0);
    }

    #[test]
    fn addnode_alone_advances_the_epoch() {
        let store = store();
        store.stage_add_nodes(3).unwrap();
        let report = store.commit().unwrap();
        assert!(report.advanced());
        assert_eq!(report.epoch, 1);
        assert_eq!(report.nodes_added, 3);
        assert_eq!(report.edges_inserted, 0);
        assert_eq!(store.num_nodes(), 7);
        assert_eq!(store.graph().num_edges(), 4);
    }

    #[test]
    fn addnode_rejects_u32_overflow() {
        let store = store();
        assert!(matches!(
            store.stage_add_nodes(u64::from(u32::MAX)),
            Err(StoreError::NodeSpaceExhausted { .. })
        ));
        // The failed staging left nothing pending.
        assert_eq!(store.pending_nodes(), 0);
    }

    #[test]
    fn rollback_discards_staged_node_growth() {
        let store = store();
        store.stage_add_nodes(5).unwrap();
        store.rollback();
        assert_eq!(store.pending_nodes(), 0);
        assert!(!store.commit().unwrap().advanced());
        assert_eq!(store.num_nodes(), 4);
    }

    /// Where the published graph's offsets and targets live.
    fn target_arrays(store: &GraphStore) -> (*const usize, *const NodeId) {
        let graph = store.graph();
        let graph = graph.as_mem().expect("an in-memory store");
        (
            graph.in_csr().offsets().as_ptr(),
            graph.in_csr().targets().as_ptr(),
        )
    }

    #[test]
    fn a_held_snapshot_reads_back_intact_while_commits_build_around_it() {
        // A ring; commit k swaps k -> k+1 for k -> k+5, so every epoch has
        // the same edge count and a commit-built graph has room for the next.
        let n = 64u32;
        let ring: Vec<(NodeId, NodeId)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        let store = GraphStore::new(Arc::new(DiGraph::from_edges(n as usize, &ring)));
        let mut k = 0;
        let mut commit = || {
            k += 1;
            store.stage_delete(k, (k + 1) % n).unwrap();
            store.stage_insert(k, (k + 5) % n).unwrap();
            store.commit().unwrap();
            target_arrays(&store)
        };
        let epoch1 = commit();
        let epoch2 = commit(); // epoch 0's exact-size arrays had no room
        let held = store.snapshot();
        assert_eq!(held.epoch, 2);
        let in_rows = held.graph.as_mem().unwrap().in_csr().clone();

        // Epoch 3 is built into epoch 1's arrays, which nothing holds.
        let epoch3 = commit();
        assert_eq!(epoch3, epoch1);
        // Epoch 4 would take epoch 2's arrays, but the snapshot holds them:
        // fresh arrays.
        let epoch4 = commit();
        assert_ne!(epoch4, epoch2);
        assert_ne!(epoch4, epoch3);
        let epoch5 = commit();
        assert_eq!(epoch5, epoch3);
        for arrays in [epoch3, epoch4, epoch5] {
            assert_ne!(arrays.0, epoch2.0);
            assert_ne!(arrays.1, epoch2.1);
        }
        // Three commits later, epoch 2 reads back every row bit for bit.
        assert_eq!(store.epoch(), 5);
        let graph = held.graph.as_mem().unwrap();
        assert_eq!(graph.in_csr(), &in_rows);
        assert!(graph.has_edge(2, 7) && graph.has_edge(3, 4) && !graph.has_edge(3, 8));
        drop(held);

        // Released, recycling resumes: each commit reuses the arrays of the
        // epoch two before it, the fresh ones of epoch 4 included.
        let epoch6 = commit();
        assert_eq!(epoch6, epoch4);
        let epoch7 = commit();
        assert_eq!(epoch7, epoch5);
        let graph = store.graph();
        assert!(graph.validate());
        assert_eq!(graph.num_edges(), n as usize);
        for u in 1..=7 {
            assert!(!graph.has_edge(u, u + 1) && graph.has_edge(u, u + 5));
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("exactsim-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn paged_store_serves_the_same_graph_and_counts_pool_traffic() {
        let dir = temp_dir("paged");
        let store = store()
            .with_paging(
                dir.join("pages"),
                PagedOptions {
                    pool_pages: 2,
                    page_bytes: 8,
                },
            )
            .unwrap();
        assert!(store.is_paged());
        let handle = store.graph();
        assert!(handle.as_paged().is_some());
        assert_eq!(handle.num_nodes(), 4);
        assert!(handle.has_edge(0, 2));
        assert!(handle.validate());
        assert!(store.pool_stats().unwrap().misses > 0);

        // Commits re-image through the same pool; staged growth works too.
        store.stage_add_nodes(1).unwrap();
        store.stage_insert(4, 0).unwrap();
        let report = store.commit().unwrap();
        assert_eq!(report.nodes_added, 1);
        let after = store.graph();
        assert!(after.as_paged().is_some());
        assert!(after.has_edge(4, 0));
        assert!(after.validate());
        // The superseded epoch's page file is gone; the new epoch's exists.
        assert!(!dir.join("pages/epoch-0.pages").exists());
        assert!(dir.join("pages/epoch-1.pages").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paging_sweeps_the_temp_files_of_page_writes_cut_short() {
        let dir = temp_dir("paged-tmp");
        let pages = dir.join("pages");
        std::fs::create_dir_all(&pages).unwrap();
        let stale = pages.join("epoch-7.pages.tmp");
        std::fs::write(&stale, b"half a page image").unwrap();
        let store = store()
            .with_paging(&pages, PagedOptions::default())
            .unwrap();
        assert!(!stale.exists(), "a stale page temp file survived");
        assert!(pages.join("epoch-0.pages").exists());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_sweeps_the_temp_files_of_snapshot_writes_cut_short() {
        let dir = temp_dir("snap-tmp");
        let store = GraphStore::create(
            &dir,
            Arc::new(DiGraph::from_edges(4, &[(0, 2), (1, 2), (2, 3), (3, 0)])),
        )
        .unwrap();
        store.stage_insert(0, 1).unwrap();
        store.commit().unwrap();
        // A snapshot write at epoch 1 that failed before its rename.
        let stale = dir.join("snapshot-1.snap.tmp");
        std::fs::write(&stale, b"half a snapshot").unwrap();
        store.stage_insert(1, 3).unwrap();
        store.commit().unwrap();
        assert_eq!(store.save().unwrap(), 2);
        assert!(!stale.exists(), "a stale snapshot temp file survived");
        assert!(dir.join("snapshot-2.snap").exists());
        assert!(!dir.join("snapshot-0.snap").exists());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_paged_store_recovers_addnode_commits() {
        let dir = temp_dir("durable-paged");
        {
            let store = GraphStore::create(
                &dir,
                Arc::new(DiGraph::from_edges(4, &[(0, 2), (1, 2), (2, 3), (3, 0)])),
            )
            .unwrap()
            .with_paging(dir.join("pages"), PagedOptions::default())
            .unwrap();
            store.stage_add_nodes(2).unwrap();
            store.stage_insert(0, 5).unwrap();
            store.commit().unwrap();
        }
        let store = GraphStore::open(&dir)
            .unwrap()
            .with_paging(dir.join("pages"), PagedOptions::default())
            .unwrap();
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.num_nodes(), 6);
        assert!(store.graph().has_edge(0, 5));
        assert!(store.graph().validate());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
