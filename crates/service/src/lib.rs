//! # exactsim-service
//!
//! A concurrent query-serving subsystem that turns the `exactsim` algorithm
//! library into a long-lived engine, following the preprocess-once /
//! query-many split of incremental-view-maintenance systems: index
//! construction happens (lazily) once per algorithm, and a serving layer
//! answers heavy single-source / top-k SimRank traffic on top of it.
//!
//! The moving parts:
//!
//! | module | role |
//! |---|---|
//! | [`service`] | [`SimRankService`]: resolves its graph through an epoch-based [`exactsim_store::GraphStore`] and keeps per-epoch lazily-built algorithm indices behind `Arc<dyn SingleSourceAlgorithm + Send + Sync>` |
//! | [`cache`] | sharded LRU result cache keyed by `(epoch, algorithm, source, epsilon-tier)` with generation invalidation |
//! | `inflight` (private) | in-flight query deduplication: concurrent requests for the same key block on one computation |
//! | `metrics` (private) | the labeled metric families (Prometheus text exposition via the `metrics` verb) wired over [`exactsim_obs`]: the one place every served query, build, write, and connection is counted |
//! | [`stats`] | [`StatsSnapshot`]: the `stats` reply, a typed read of those registry series plus live cache, store and config state |
//! | [`response`] | serializable [`QueryResponse`] / [`TopKResponse`] wire types |
//! | [`protocol`] | the line protocol itself: request grammar, parser, error codes, executor — shared by the stdin REPL, the TCP listener, and `simrank-client` |
//! | [`net`] | TCP front-end: acceptor + per-connection handler threads bounded by a `max_conns` semaphore, graceful drain on `shutdown`/SIGTERM; [`NetMetrics`] holds its connection/byte series |
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use exactsim_graph::generators::barabasi_albert;
//! use exactsim_service::{AlgorithmKind, ServiceConfig, SimRankService};
//!
//! let graph = Arc::new(barabasi_albert(200, 3, true, 42).unwrap());
//! let service = SimRankService::new(graph, ServiceConfig::fast_demo()).unwrap();
//!
//! // Single-source query: the first call computes, the second is a cache hit
//! // returning the exact same scores.
//! let a = service.query(AlgorithmKind::ExactSim, 7).unwrap();
//! let b = service.query(AlgorithmKind::ExactSim, 7).unwrap();
//! assert_eq!(a.scores(), b.scores());
//! assert_eq!(service.stats().cache_hits, 1);
//!
//! // Top-k rides on the same cached single-source vectors.
//! let top = service.top_k(AlgorithmKind::ExactSim, 7, 5).unwrap();
//! assert!(top.entries.len() <= 5);
//! ```
//!
//! ## Online updates
//!
//! The service answers queries against immutable epoch snapshots published
//! by an [`exactsim_store::GraphStore`]. Stage edge updates on
//! [`SimRankService::store`], then [`SimRankService::commit`]:
//!
//! ```
//! use std::sync::Arc;
//! use exactsim_graph::generators::barabasi_albert;
//! use exactsim_service::{AlgorithmKind, ServiceConfig, SimRankService};
//!
//! let graph = Arc::new(barabasi_albert(200, 3, true, 42).unwrap());
//! let service = SimRankService::new(graph, ServiceConfig::fast_demo()).unwrap();
//! let before = service.query(AlgorithmKind::ExactSim, 7).unwrap();
//!
//! service.store().stage_insert(7, 100).unwrap();
//! let report = service.commit().unwrap();
//! assert_eq!(report.epoch, 1);
//!
//! // The serving loop never stopped; the next query sees the new epoch and
//! // the stale cached column for source 7 can no longer be returned.
//! let after = service.query(AlgorithmKind::ExactSim, 7).unwrap();
//! assert_eq!(service.epoch(), 1);
//! assert_ne!(before.scores(), after.scores());
//! ```
//!
//! ## Concurrency model
//!
//! * Each epoch's graph is immutable and shared (its in-rows behind an
//!   `Arc`, see `exactsim_store::GraphHandle`); algorithm
//!   indices are built at most once per epoch under a `OnceLock`.
//! * The service owns no threads: a query runs on the thread that issues
//!   it (a TCP connection handler, the stdin REPL, or an application
//!   thread — `std::thread::scope` is enough to send a batch).
//! * Queries may be issued from any number of threads; a sharded mutex LRU
//!   keeps cache contention low, and the in-flight table guarantees that at
//!   any moment at most one thread computes a given `(epoch, algorithm,
//!   source, epsilon-tier)` key — latecomers block and receive the leader's
//!   result.
//! * A commit never blocks readers: queries capture one epoch state up
//!   front and finish on it; the first query to observe the new epoch swaps
//!   the serving state and sweeps the cache generation.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod cache;
pub mod error;
pub(crate) mod inflight;
pub(crate) mod metrics;
pub mod net;
pub mod protocol;
pub mod response;
pub mod service;
pub mod stats;

pub use cache::{epsilon_tier, CacheKey, ShardedLruCache};
pub use error::ServiceError;
pub use net::{NetMetrics, NetOptions, NetServerHandle, ProtocolHost};
pub use protocol::{Outcome, ProtoError, Request};
pub use response::{AlgorithmKind, QueryResponse, TopKResponse};
pub use service::{ServiceConfig, SimRankService};
pub use stats::{ServingShape, StatsSnapshot};

// Re-exported so protocol front-ends can drive updates and persistence
// without naming the store crate themselves.
pub use exactsim_store::{
    CommitReport, DurabilityInfo, GraphHandle, GraphSnapshot, GraphStore, Opened, PagedOptions,
    PoolStats, Staged, StoreError,
};
