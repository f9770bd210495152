//! Graph analysis utilities: degree statistics and PageRank.
//!
//! These are used to characterise the synthetic stand-in datasets (so the
//! benchmark harness can report the same dataset-statistics table as the
//! paper's Table 2) and by PRSim, whose index construction selects "hub" nodes
//! by PageRank and whose average-case cost is governed by `‖π‖²`.

mod degree;
mod pagerank;

pub use degree::DegreeStats;
pub use pagerank::{pagerank, PageRankConfig};
