//! # exactsim-store
//!
//! An epoch-based dynamic graph store for the ExactSim serving stack, with
//! optional crash-recoverable on-disk persistence.
//!
//! Every graph the algorithm and serving layers read is immutable behind an
//! `Arc` — the right call for query speed, but a serving system must
//! also absorb a continuous stream of edge arrivals and removals. The store
//! resolves that tension with the classic snapshot/epoch scheme used by
//! systems that answer queries under updates: updates are cheap against a
//! mutable *delta buffer*, while queries run against an immutable published
//! *snapshot*; a `commit` folds the delta into a new snapshot and atomically
//! republishes it under the next epoch.
//!
//! | type | role |
//! |---|---|
//! | [`GraphStore`] | owns the published [`GraphHandle`] + epoch, stages updates, commits |
//! | [`GraphHandle`] | the published graph's in-rows behind either backend: in-memory CSR or paged |
//! | [`DeltaBuffer`] | sorted, deduplicated pending insert/delete sets + staged node growth |
//! | [`GraphSnapshot`] | a consistent `(graph, epoch)` pair readers pin |
//! | [`CommitReport`] | what a commit materialized (epoch, counts, whole-commit time) |
//! | [`CommitTimings`] | five commit stages (staging, CSR merge, WAL append, fsync, publish) |
//! | [`persist`] | snapshot files + delta WAL: formats, recovery, compaction |
//! | [`pages`] | the paged backend's on-disk page-file format |
//! | [`BufferPool`] | pinning clock-replacement page cache shared across epochs |
//! | [`PagedGraph`] | `NeighborAccess` backend streaming adjacency through the pool |
//! | [`DurabilityInfo`] | operator-visible durable state (data dir, WAL length, snapshot epoch) |
//!
//! ## Guarantees
//!
//! * **Readers never block.** A snapshot is two pointer-sized reads under a
//!   briefly-held read lock; commits materialize the new CSR *outside* the
//!   publication lock and swap with a single pointer assignment.
//! * **Snapshots are immutable.** In-flight queries finish on the graph they
//!   started on; the epoch they captured identifies it exactly.
//! * **Epochs are monotonic.** Every effective commit bumps the epoch by
//!   one; an empty commit publishes nothing. Cache layers can therefore use
//!   the epoch as an invalidation generation.
//! * **Deltas have set semantics.** Inserting a present edge or deleting an
//!   absent one is a no-op; opposite updates to the same edge cancel;
//!   endpoints are validated against the node-id space (including staged
//!   [`GraphStore::stage_add_nodes`] growth) and self-loops are rejected
//!   (matching the dataset preprocessing used throughout the reproduction).
//! * **Durable commits survive restarts.** On a store with a data directory
//!   ([`GraphStore::create`] / [`GraphStore::open`]), a commit appends its
//!   delta to an fsynced write-ahead log *before* publishing, and recovery
//!   replays the newest valid snapshot plus the WAL to the last
//!   fully-committed epoch — torn tails are truncated, corrupt records and
//!   snapshots are rejected with typed [`StoreError`]s, never a panic or a
//!   silent partial load. See [`persist`] for the on-disk formats and the
//!   recovery protocol.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use exactsim_graph::DiGraph;
//! use exactsim_store::GraphStore;
//!
//! let store = GraphStore::new(Arc::new(DiGraph::from_edges(
//!     4,
//!     &[(0, 2), (1, 2), (2, 3), (3, 0)],
//! )));
//! let before = store.snapshot(); // epoch 0
//!
//! store.stage_insert(0, 1).unwrap();
//! store.stage_delete(2, 3).unwrap();
//! let report = store.commit().unwrap();
//! assert_eq!(report.epoch, 1);
//!
//! // New readers see the new graph; the old snapshot is untouched.
//! assert!(store.graph().has_edge(0, 1));
//! assert!(!before.graph.has_edge(0, 1));
//! ```
//!
//! ## Storage backends
//!
//! The store serves a graph's in-rows alone ([`exactsim_graph::InGraph`]:
//! each node's sorted in-neighbors, `8·(n+1) + 4·m` bytes), because every
//! kernel reads in-neighbors only; a `DiGraph` handed to the store drops its
//! out-CSR. It publishes each epoch behind a [`GraphHandle`]: either the
//! in-memory CSR (`Mem`, the default zero-overhead path) or a *paged*
//! backend ([`GraphStore::with_paging`]) that images the epoch's in-rows as
//! a page file and streams them through a pinning [`BufferPool`] — serving
//! graphs whose CSR exceeds RAM. Pages hold exactly the same sorted
//! neighbor lists as the in-memory CSR, so solver output is bit-identical
//! across backends. Page files are rebuildable caches; durability rests
//! solely on the snapshot + WAL.
//!
//! ## Durable example
//!
//! ```
//! use std::sync::Arc;
//! use exactsim_graph::DiGraph;
//! use exactsim_store::GraphStore;
//!
//! let dir = std::env::temp_dir().join(format!("exactsim-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let graph = Arc::new(DiGraph::from_edges(4, &[(0, 2), (1, 2), (2, 3), (3, 0)]));
//! let store = GraphStore::create(&dir, graph).unwrap();
//! store.stage_insert(0, 1).unwrap();
//! store.commit().unwrap(); // fsynced to the WAL before publication
//! drop(store); // "crash"
//!
//! let recovered = GraphStore::open(&dir).unwrap();
//! assert_eq!(recovered.epoch(), 1);
//! assert!(recovered.graph().has_edge(0, 1));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod buffer;
pub mod delta;
pub mod error;
pub mod handle;
pub mod paged;
pub mod pages;
pub mod persist;
pub mod store;

pub use buffer::{BufferPool, PinnedPage, PoolStats};
pub use delta::{DeltaBuffer, Staged};
pub use error::StoreError;
pub use handle::{GraphHandle, HandleNeighbors};
pub use paged::{PagedGraph, PagedNeighbors};
pub use pages::DEFAULT_PAGE_BYTES;
pub use persist::DurabilityInfo;
pub use store::{
    CommitReport, CommitTimings, GraphSnapshot, GraphStore, Opened, PagedOptions,
    DEFAULT_COMPACT_EVERY,
};
