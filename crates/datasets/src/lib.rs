//! # exactsim-datasets
//!
//! Deterministic stand-ins for the eight datasets of the ExactSim paper's
//! Table 2, plus loaders for the real edge lists when they are available.
//!
//! The paper evaluates on four small graphs (ca-GrQc, CA-HepTh, Wikivote,
//! CA-HepPh) and four large graphs (DBLP-Author, IndoChina, It-2004,
//! Twitter) from SNAP and LAW. Those datasets cannot be redistributed here,
//! so each dataset is represented by a [`DatasetSpec`] that records the
//! paper's statistics and knows how to produce a *synthetic stand-in*: a
//! scale-free graph with the same directedness and average degree, at the
//! original node count for the small graphs and at a configurable scale-down
//! factor for the large ones. The substitution rationale is spelled out in
//! the "Dataset provenance" section of REPRODUCING.md; if a real SNAP/LAW edge
//! list is placed on disk, [`DatasetSpec::load_or_generate`] prefers it over
//! the synthetic graph.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod registry;
pub mod sources;

pub use registry::{
    all_datasets, dataset_by_key, large_datasets, small_datasets, DatasetKind, DatasetSpec,
    GeneratedDataset,
};
pub use sources::query_sources;
