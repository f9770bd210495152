//! # exactsim
//!
//! A reproduction of **"Exact Single-Source SimRank Computation on Large
//! Graphs"** (Wang, Wei, Yuan, Du, Wen — SIGMOD 2020), together with every
//! baseline the paper evaluates against.
//!
//! SimRank scores the structural similarity of two nodes in a directed graph:
//! two nodes are similar if they are pointed at by similar nodes. Formally,
//! with decay factor `c` and in-neighbor sets `I(·)`,
//!
//! ```text
//! S(i,i) = 1
//! S(i,j) = c / (din(i)·din(j)) · Σ_{i'∈I(i)} Σ_{j'∈I(j)} S(i',j')
//! ```
//!
//! A *single-source* query asks for the whole column `S(·, i)` of one node; a
//! *top-k* query asks for the `k` most similar nodes. The paper's
//! contribution, **ExactSim**, answers single-source queries with additive
//! error `ε = 1e-7` ("probabilistic exactness") in time that no longer carries
//! the `O(n·log n/ε²)` term of prior work.
//!
//! ## What is in this crate
//!
//! | module | algorithm | role in the paper |
//! |---|---|---|
//! | [`power_method`] | Power Method (all pairs) | the only prior exact method; ground truth on small graphs |
//! | [`naive`] | pair-recursive SimRank | independent ground truth for tests |
//! | [`mc`] | Monte-Carlo index (Fogaras–Rácz) | baseline |
//! | [`parsim`] | ParSim (`D = (1-c)·I`) | baseline |
//! | [`linearization`] | Linearization with MC-estimated `D` | baseline |
//! | [`prsim`] | PRSim-style ℓ-hop PPR index | baseline |
//! | [`exactsim`] | **ExactSim** basic + optimized | the paper's contribution |
//! | [`diagonal`] | estimators for the diagonal correction matrix `D` | Algorithms 2 and 3 |
//! | [`ppr`] | ℓ-hop Personalized PageRank vectors | shared substrate (eq. 8) |
//! | [`walks`] | √c-walk sampling engine | shared substrate (eq. 2) |
//! | [`scratch`] | reusable per-query workspaces ([`scratch::Scratch`]) | engineering: allocation-free, deterministic kernels |
//! | [`counters`] | process-global kernel counters (scratch reuse, iterations, walks) | engineering: observability without dependencies |
//! | [`topk`], [`metrics`] | top-k extraction, MaxError / Precision@k | evaluation methodology |
//!
//! Every solver is generic over its graph backend
//! (`G: exactsim_graph::NeighborAccess` — `&DiGraph` for borrowing library
//! use, `Arc<DiGraph>` for `'static + Send + Sync` sharing, or a paged
//! buffer-pool handle from `exactsim-store` for out-of-core graphs), and
//! [`suite`] wraps them behind the uniform [`suite::SingleSourceAlgorithm`]
//! trait. The workspace's `exactsim-service` crate builds on exactly that: a
//! concurrent query-serving engine (sharded LRU result cache, in-flight
//! deduplication, one metrics registry behind its latency stats) holding the
//! solvers as `Arc<dyn SingleSourceAlgorithm + Send + Sync>`.
//!
//! ## Quickstart
//!
//! ```
//! use exactsim_graph::generators::barabasi_albert;
//! use exactsim::prelude::*;
//!
//! let graph = barabasi_albert(100, 3, true, 42).unwrap();
//! let config = ExactSimConfig {
//!     epsilon: 1e-2,
//!     walk_budget: Some(100_000),
//!     ..ExactSimConfig::default()
//! };
//! let result = ExactSim::new(&graph, config).unwrap().query(0).unwrap();
//! let top = exactsim::topk::top_k(&result.scores, 0, 10);
//! assert!((result.scores[0] - 1.0).abs() < 1e-2); // S(v, v) = 1
//! assert!(top.iter().all(|e| e.score <= 1.0));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod config;
pub mod counters;
pub mod diagonal;
pub mod error;
pub mod exactsim;
pub mod linearization;
pub mod mc;
pub mod metrics;
pub mod naive;
pub mod parsim;
pub mod power_method;
pub mod ppr;
pub mod prsim;
pub mod scratch;
pub mod suite;
pub mod topk;
pub mod walks;

pub use config::SimRankConfig;
pub use error::SimRankError;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::config::SimRankConfig;
    pub use crate::error::SimRankError;
    pub use crate::exactsim::{ExactSim, ExactSimConfig, ExactSimVariant};
    pub use crate::linearization::{Linearization, LinearizationConfig};
    pub use crate::mc::{MonteCarlo, MonteCarloConfig};
    pub use crate::metrics::{max_error, precision_at_k};
    pub use crate::parsim::{ParSim, ParSimConfig};
    pub use crate::power_method::{PowerMethod, PowerMethodConfig};
    pub use crate::prsim::{PrSim, PrSimConfig};
    pub use crate::scratch::{Scratch, ScratchPool};
    pub use crate::suite::{QueryOutput, SingleSourceAlgorithm};
    pub use crate::topk::{top_k, TopKEntry};
}
