//! Vector and transition-matrix kernels.
//!
//! All Linearization-style SimRank algorithms (ParSim, Linearization, PRSim's
//! analysis, and ExactSim itself) are built from two primitives over the
//! reverse transition matrix `P` (`P(i,j) = 1/din(j)` iff edge `i → j` exists):
//!
//! * `P · x` — pushes mass from each node to its in-neighbors, weighted by
//!   `1/din`: this is one step of the backward random walk in distribution form
//!   (used to compute the ℓ-hop Personalized PageRank vectors `π^ℓ_i`);
//! * `Pᵀ · x` — averages over in-neighbors: this is the accumulation step of
//!   equation (8)/(9) of the paper (`s^ℓ = √c·Pᵀ·s^{ℓ-1} + …`).
//!
//! Both read in-rows only. `P·x` comes in dense (`Vec<f64>`) and sparse
//! ([`SparseVec`]) forms, the sparse ones backed by a reusable dense scratch
//! space ([`Workspace`]) so that repeated calls allocate nothing; `Pᵀ·x` is
//! dense, one mean per in-row.

mod dense;
mod sparse_vec;
mod transition;
mod workspace;

pub use dense::{
    add_assign, axpy, dot, l1_norm, l2_norm_sq, linf_distance, scale, unit_vector, zero_vector,
};
pub use sparse_vec::SparseVec;
pub use transition::{
    p_multiply, p_multiply_accumulate, p_multiply_sparse, p_multiply_sparse_into, pt_multiply,
};
pub use workspace::Workspace;
