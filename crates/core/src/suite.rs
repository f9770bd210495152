//! A uniform interface over every single-source algorithm.
//!
//! The benchmark harness sweeps parameters of five different algorithms and
//! measures the same things for each: preprocessing time, index size, query
//! time, and the resulting single-source vector. This module wraps each
//! algorithm behind [`SingleSourceAlgorithm`] so the harness (and the
//! comparison example) can treat them interchangeably.

use std::sync::Arc;
use std::time::{Duration, Instant};

use exactsim_graph::{NeighborAccess, NodeId};

use crate::error::SimRankError;
use crate::exactsim::{ExactSim, ExactSimConfig};
use crate::linearization::{Linearization, LinearizationConfig};
use crate::mc::{MonteCarlo, MonteCarloConfig};
use crate::parsim::{ParSim, ParSimConfig};
use crate::prsim::{PrSim, PrSimConfig};
use crate::scratch::ScratchPool;

/// The output of one single-source query, uniform across algorithms.
#[derive(Clone, Debug)]
pub struct QueryOutput {
    /// The similarity of every node to the query source.
    pub scores: Vec<f64>,
    /// Wall-clock query time.
    pub query_time: Duration,
}

/// A single-source SimRank algorithm with (optional) preprocessing already
/// performed.
pub trait SingleSourceAlgorithm {
    /// Short display name ("ExactSim", "MC", …) used in harness output.
    fn name(&self) -> &'static str;

    /// Answers a single-source query, measuring wall-clock time.
    fn query(&self, source: NodeId) -> Result<QueryOutput, SimRankError>;

    /// Wall-clock time spent in the preprocessing / index-building phase
    /// (zero for index-free methods).
    fn preprocessing_time(&self) -> Duration {
        Duration::ZERO
    }

    /// Size of any precomputed index in bytes (zero for index-free methods).
    fn index_bytes(&self) -> usize {
        0
    }
}

fn timed_query<F>(f: F) -> Result<QueryOutput, SimRankError>
where
    F: FnOnce() -> Result<Vec<f64>, SimRankError>,
{
    let start = Instant::now();
    let scores = f()?;
    Ok(QueryOutput {
        scores,
        query_time: start.elapsed(),
    })
}

/// [`ExactSim`] behind the uniform interface.
pub struct ExactSimAlgorithm<G: NeighborAccess> {
    solver: ExactSim<G>,
}

impl<G: NeighborAccess> ExactSimAlgorithm<G> {
    /// Wraps an ExactSim configuration (index-free, so construction is cheap).
    pub fn new(graph: G, config: ExactSimConfig) -> Result<Self, SimRankError> {
        Ok(ExactSimAlgorithm {
            solver: ExactSim::new(graph, config)?,
        })
    }

    /// Like [`ExactSimAlgorithm::new`], with the solver checking its
    /// scratches out of `pool` ([`ExactSim::with_scratch_pool`]).
    pub fn with_scratch_pool(
        graph: G,
        config: ExactSimConfig,
        pool: Arc<ScratchPool>,
    ) -> Result<Self, SimRankError> {
        Ok(ExactSimAlgorithm {
            solver: ExactSim::with_scratch_pool(graph, config, pool)?,
        })
    }
}

impl<G: NeighborAccess> SingleSourceAlgorithm for ExactSimAlgorithm<G> {
    fn name(&self) -> &'static str {
        "ExactSim"
    }

    fn query(&self, source: NodeId) -> Result<QueryOutput, SimRankError> {
        timed_query(|| self.solver.query(source).map(|r| r.scores))
    }
}

/// [`ParSim`] behind the uniform interface.
pub struct ParSimAlgorithm<G: NeighborAccess> {
    solver: ParSim<G>,
}

impl<G: NeighborAccess> ParSimAlgorithm<G> {
    /// Wraps a ParSim configuration (index-free).
    pub fn new(graph: G, config: ParSimConfig) -> Result<Self, SimRankError> {
        Ok(ParSimAlgorithm {
            solver: ParSim::new(graph, config)?,
        })
    }
}

impl<G: NeighborAccess> SingleSourceAlgorithm for ParSimAlgorithm<G> {
    fn name(&self) -> &'static str {
        "ParSim"
    }

    fn query(&self, source: NodeId) -> Result<QueryOutput, SimRankError> {
        timed_query(|| self.solver.query(source))
    }
}

/// [`MonteCarlo`] behind the uniform interface (index-based).
pub struct MonteCarloAlgorithm<G: NeighborAccess> {
    index: MonteCarlo<G>,
    preprocessing: Duration,
}

impl<G: NeighborAccess> MonteCarloAlgorithm<G> {
    /// Builds the walk index, recording the preprocessing time.
    pub fn build(graph: G, config: MonteCarloConfig) -> Result<Self, SimRankError> {
        let start = Instant::now();
        let index = MonteCarlo::build(graph, config)?;
        Ok(MonteCarloAlgorithm {
            index,
            preprocessing: start.elapsed(),
        })
    }
}

impl<G: NeighborAccess> SingleSourceAlgorithm for MonteCarloAlgorithm<G> {
    fn name(&self) -> &'static str {
        "MC"
    }

    fn query(&self, source: NodeId) -> Result<QueryOutput, SimRankError> {
        timed_query(|| self.index.query(source))
    }

    fn preprocessing_time(&self) -> Duration {
        self.preprocessing
    }

    fn index_bytes(&self) -> usize {
        self.index.index_bytes()
    }
}

/// [`Linearization`] behind the uniform interface (index-based).
pub struct LinearizationAlgorithm<G: NeighborAccess> {
    solver: Linearization<G>,
    preprocessing: Duration,
}

impl<G: NeighborAccess> LinearizationAlgorithm<G> {
    /// Runs the Monte-Carlo `D` preprocessing, recording its time.
    pub fn build(graph: G, config: LinearizationConfig) -> Result<Self, SimRankError> {
        let start = Instant::now();
        let solver = Linearization::build(graph, config)?;
        Ok(LinearizationAlgorithm {
            solver,
            preprocessing: start.elapsed(),
        })
    }
}

impl<G: NeighborAccess> SingleSourceAlgorithm for LinearizationAlgorithm<G> {
    fn name(&self) -> &'static str {
        "Linearization"
    }

    fn query(&self, source: NodeId) -> Result<QueryOutput, SimRankError> {
        timed_query(|| self.solver.query(source))
    }

    fn preprocessing_time(&self) -> Duration {
        self.preprocessing
    }

    fn index_bytes(&self) -> usize {
        self.solver.index_bytes()
    }
}

/// [`PrSim`] behind the uniform interface (index-based).
pub struct PrSimAlgorithm<G: NeighborAccess> {
    index: PrSim<G>,
    preprocessing: Duration,
}

impl<G: NeighborAccess> PrSimAlgorithm<G> {
    /// Builds the PRSim index, recording the preprocessing time.
    pub fn build(graph: G, config: PrSimConfig) -> Result<Self, SimRankError> {
        let start = Instant::now();
        let index = PrSim::build(graph, config)?;
        Ok(PrSimAlgorithm {
            index,
            preprocessing: start.elapsed(),
        })
    }
}

impl<G: NeighborAccess> SingleSourceAlgorithm for PrSimAlgorithm<G> {
    fn name(&self) -> &'static str {
        "PRSim"
    }

    fn query(&self, source: NodeId) -> Result<QueryOutput, SimRankError> {
        timed_query(|| self.index.query(source))
    }

    fn preprocessing_time(&self) -> Duration {
        self.preprocessing
    }

    fn index_bytes(&self) -> usize {
        self.index.index_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exactsim::ExactSimVariant;
    use crate::metrics::max_error;
    use crate::power_method::{PowerMethod, PowerMethodConfig};
    use exactsim_graph::generators::barabasi_albert;

    #[test]
    fn all_algorithms_answer_through_the_uniform_interface() {
        let g = barabasi_albert(40, 2, true, 3).unwrap();
        let truth = PowerMethod::compute(&g, PowerMethodConfig::default()).unwrap();
        let exact = truth.single_source(0);

        let exactsim = ExactSimAlgorithm::new(
            &g,
            ExactSimConfig {
                epsilon: 0.1,
                variant: ExactSimVariant::Optimized,
                ..Default::default()
            },
        )
        .unwrap();
        let parsim = ParSimAlgorithm::new(&g, ParSimConfig::default()).unwrap();
        let mc = MonteCarloAlgorithm::build(
            &g,
            MonteCarloConfig {
                walks_per_node: 500,
                ..Default::default()
            },
        )
        .unwrap();
        let lin = LinearizationAlgorithm::build(
            &g,
            LinearizationConfig {
                epsilon: 0.1,
                ..Default::default()
            },
        )
        .unwrap();
        let prsim = PrSimAlgorithm::build(
            &g,
            PrSimConfig {
                epsilon: 0.02,
                ..Default::default()
            },
        )
        .unwrap();

        let algorithms: Vec<&dyn SingleSourceAlgorithm> =
            vec![&exactsim, &parsim, &mc, &lin, &prsim];
        let mut names = Vec::new();
        for algo in algorithms {
            let output = algo.query(0).unwrap();
            assert_eq!(output.scores.len(), g.num_nodes());
            let err = max_error(&output.scores, &exact);
            assert!(
                err < 0.25,
                "{} error {err} is implausibly large",
                algo.name()
            );
            names.push(algo.name());
        }
        assert_eq!(
            names,
            vec!["ExactSim", "ParSim", "MC", "Linearization", "PRSim"]
        );
    }

    #[test]
    fn index_based_methods_report_nonzero_index_sizes() {
        let g = barabasi_albert(40, 2, true, 5).unwrap();
        let mc = MonteCarloAlgorithm::build(
            &g,
            MonteCarloConfig {
                walks_per_node: 50,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(mc.index_bytes() > 0);
        let lin = LinearizationAlgorithm::build(
            &g,
            LinearizationConfig {
                epsilon: 0.2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(lin.index_bytes(), 40 * 8);
        let prsim = PrSimAlgorithm::build(&g, PrSimConfig::default()).unwrap();
        assert!(prsim.index_bytes() > 0);

        // Index-free methods report zero.
        let parsim = ParSimAlgorithm::new(&g, ParSimConfig::default()).unwrap();
        assert_eq!(parsim.index_bytes(), 0);
        assert_eq!(parsim.preprocessing_time(), Duration::ZERO);
        let exactsim = ExactSimAlgorithm::new(&g, ExactSimConfig::default()).unwrap();
        assert_eq!(exactsim.index_bytes(), 0);
    }
}
