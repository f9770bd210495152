//! # exactsim-graph
//!
//! Directed-graph substrate for the ExactSim SimRank reproduction
//! (SIGMOD 2020, "Exact Single-Source SimRank Computation on Large Graphs").
//!
//! Everything the SimRank algorithms need from a graph lives here:
//!
//! * [`NeighborAccess`] — the storage/compute seam: read-only in-adjacency
//!   access (counts, in-degrees, sorted in-neighbor lists behind a deref
//!   guard) that every kernel and solver is generic over, so in-memory CSR
//!   and buffer-managed paged backends are interchangeable.
//! * [`InGraph`] — the in-orientation CSR alone: each node's sorted
//!   in-neighbors. SimRank's √c-walks, `P·x` and `Pᵀ·x` all read in-rows
//!   and nothing else, so this is the graph a store serves.
//! * [`DiGraph`] — an [`InGraph`] plus the out-orientation CSR: the type
//!   every graph is built and analysed as.
//! * [`GraphBuilder`] — incremental construction with deduplication and
//!   undirected symmetrisation.
//! * [`io`] — plain-text edge-list reading/writing (SNAP-compatible) so the
//!   real datasets of the paper can be dropped in when available.
//! * [`binfmt`] — a compact, validated binary codec for a graph's in-rows,
//!   the payload format of the `exactsim-store` snapshot persistence layer.
//! * [`generators`] — deterministic synthetic graph generators (Erdős–Rényi,
//!   Barabási–Albert, power-law configuration model, stochastic block model,
//!   and regular families) used as stand-ins for the SNAP/LAW datasets.
//! * [`analysis`] — degree statistics and PageRank.
//! * [`partition`] — the deterministic node-to-shard assignment of the
//!   sharded serving tier ([`PartitionMap`]), a pure function of
//!   `(node, num_shards)` shared by routers and shard processes.
//! * [`linalg`] — dense/sparse vectors and the transition-matrix kernels
//!   `P·x` and `Pᵀ·x` that every Linearization-style algorithm is built on.
//!
//! ## Conventions
//!
//! Nodes are dense indices `0..n` of type [`NodeId`] (`u32`). An edge `(u, v)`
//! means `u → v`; consequently `u` is an *in-neighbor* of `v` and `v` is an
//! *out-neighbor* of `u`. The (reverse) transition matrix `P` of the paper is
//! defined by `P(i, j) = 1 / din(j)` whenever `i ∈ I(j)` (i.e. the edge
//! `i → j` exists), and the distribution of a random walk that repeatedly
//! jumps to a uniformly random in-neighbor evolves as `x ← P · x`.
//!
//! ```
//! use exactsim_graph::{GraphBuilder, linalg};
//!
//! // A tiny citation-style graph: 0 -> 2, 1 -> 2, 2 -> 3.
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 2);
//! b.add_edge(1, 2);
//! b.add_edge(2, 3);
//! let g = b.build();
//!
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.in_degree(2), 2);
//! assert_eq!(g.in_neighbors(3), &[2]);
//!
//! // One step of the reverse transition operator from node 3:
//! let e3 = linalg::unit_vector(4, 3);
//! let mut step = vec![0.0; 4];
//! linalg::p_multiply(&g, &e3, &mut step);
//! assert!((step[2] - 1.0).abs() < 1e-12); // all mass flows to 3's in-neighbor 2
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod access;
pub mod analysis;
pub mod binfmt;
pub mod builder;
pub mod csr;
pub mod digraph;
pub mod error;
pub mod generators;
pub mod ingraph;
pub mod io;
pub mod linalg;
pub mod partition;

pub use access::NeighborAccess;
pub use builder::GraphBuilder;
pub use csr::{CsrAdjacency, EdgeDelta};
pub use digraph::DiGraph;
pub use error::GraphError;
pub use ingraph::InGraph;
pub use linalg::SparseVec;
pub use partition::PartitionMap;

/// Dense node identifier. Nodes of an `n`-node graph are `0..n`.
///
/// `u32` keeps adjacency arrays compact (the largest graph in the paper has
/// ~4.2 × 10⁷ nodes, well inside `u32`).
pub type NodeId = u32;

/// Convenience conversion from a [`NodeId`] to a `usize` index.
#[inline(always)]
pub fn idx(v: NodeId) -> usize {
    v as usize
}
