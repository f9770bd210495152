//! # exactsim-router
//!
//! The sharded serving tier: one protocol endpoint fronting N SimRank
//! shards behind the [`ShardBackend`] trait — remote `simrank-serve`
//! processes in deployment, in-process services in tests and embeddings.
//!
//! | module | role |
//! |---|---|
//! | [`backend`] | [`ShardBackend`]: one shard the router can ask — [`RemoteShard`] speaks the unmodified TCP line protocol to a `simrank-serve --listen` process over a stack of idle connections, with connect/read deadlines; [`LocalShard`] wraps an in-process [`exactsim_service::SimRankService`] (the test backend) |
//! | [`health`] | per-shard closed → open → half-open circuit breakers (exponential backoff + jitter) behind every request and the background `ping` prober |
//! | [`router`] | [`ShardRouter`]: routes `query` and `topk` to the owning shard with one call per read, fenced to the published epoch (failover marks replies `degraded`), fans out updates with compensation and commits under a write barrier, and answers `stats`/`metrics` with fan-out, barrier, and per-shard series |
//! | [`scenario`] | workload scenarios for `simrank-client --scenario`: Zipfian source popularity, read/write/algorithm mixes, open-loop Poisson arrivals with burst phases, expanded into deterministic operation plans |
//! | [`wire`] | field scanners for the protocol's flat JSON reply lines, shared by the router and `simrank-client` |
//!
//! The router implements [`exactsim_service::net::ProtocolHost`], so the
//! same TCP listener (and stdin REPL) serves either a single service or a
//! shard fan-out — `simrank-serve --shard-of a:1,b:2` is the only
//! difference an operator sees. Consistency story and the replica model are
//! documented on [`router`].
//!
//! ## Quickstart (in-process shards)
//!
//! ```
//! use std::sync::Arc;
//! use exactsim_graph::generators::barabasi_albert;
//! use exactsim_router::{LocalShard, ShardBackend, ShardRouter};
//! use exactsim_service::protocol::{parse_line, Outcome};
//! use exactsim_service::{AlgorithmKind, ServiceConfig, SimRankService};
//!
//! let graph = Arc::new(barabasi_albert(120, 3, true, 7).unwrap());
//! let shards: Vec<Box<dyn ShardBackend>> = (0..4)
//!     .map(|_| {
//!         let service =
//!             SimRankService::new(Arc::clone(&graph), ServiceConfig::fast_demo()).unwrap();
//!         Box::new(LocalShard::new(service)) as Box<dyn ShardBackend>
//!     })
//!     .collect();
//! let router = ShardRouter::new(shards).unwrap();
//!
//! let request = parse_line("topk 7 5").unwrap().unwrap();
//! match router.execute(AlgorithmKind::ExactSim, &request) {
//!     Outcome::Reply(reply) => assert!(reply.contains("\"results\":[")),
//!     other => panic!("unexpected outcome: {other:?}"),
//! }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod backend;
pub mod health;
pub mod router;
pub mod scenario;
pub mod wire;

pub use backend::{LocalShard, RemoteShard, ShardBackend, ShardError};
pub use health::{Admission, Breaker, BreakerConfig, BreakerState};
pub use router::ShardRouter;
