//! Deterministic synthetic graph generators.
//!
//! The ExactSim paper evaluates on eight SNAP/LAW graphs (Table 2). Those
//! datasets cannot be redistributed here, so the benchmark harness uses
//! synthetic stand-ins produced by these generators: every generator takes an
//! explicit RNG seed and produces the same graph for the same parameters on
//! every run, which keeps the experiments reproducible.
//!
//! Two families matter most for reproducing the paper's behaviour:
//!
//! * the **scale-free generators** ([`barabasi_albert`], [`power_law_digraph`])
//!   whose Personalized-PageRank vectors follow a power law — the property the
//!   paper's Lemma 3 analysis (and PRSim's sub-linear bound) relies on;
//! * the **regular families** ([`complete`], [`star`], [`cycle`], [`path`],
//!   [`grid`]) used in unit and property tests where SimRank values can be
//!   reasoned about by hand.

mod distinct;
mod erdos_renyi;
mod preferential;
mod regular;
mod sbm;

pub use erdos_renyi::{erdos_renyi_directed, erdos_renyi_undirected, gnm_directed};
pub use preferential::{barabasi_albert, power_law_digraph, PowerLawConfig};
pub use regular::{complete, cycle, grid, path, star};
pub use sbm::{stochastic_block_model, SbmConfig};
