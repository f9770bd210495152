//! ParSim: Linearization with the `D = (1 − c)·I` approximation.
//!
//! ParSim (Yu & McCann, PVLDB 2015) runs the same iterative accumulation as
//! Linearization but simply *assumes* `D = (1 − c)·I`, i.e. it ignores the
//! first-meeting constraint of the √c-walk interpretation. That makes every
//! query purely deterministic and `O(m·L)` with no preprocessing at all — but
//! biased: the paper's §2.2 singles this out as the reason ParSim cannot reach
//! the 1e-7 exactness level no matter how many iterations it runs, and
//! Figures 1 and 5 show its error flattening out. The number of iterations
//! `L` is ParSim's only parameter.

use exactsim_graph::{NeighborAccess, NodeId};

use crate::config::SimRankConfig;
use crate::error::SimRankError;
use crate::exactsim::accumulate_dense;
use crate::ppr::dense_hop_vectors_into;
use crate::scratch::ScratchPool;

/// Configuration for [`ParSim`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParSimConfig {
    /// Shared SimRank parameters (decay factor `c`).
    pub simrank: SimRankConfig,
    /// Number of Linearization iterations (the paper varies this from 10 to
    /// 5·10⁵ across Figures 1–6).
    pub iterations: usize,
}

impl Default for ParSimConfig {
    fn default() -> Self {
        ParSimConfig {
            simrank: SimRankConfig::default(),
            iterations: 50,
        }
    }
}

/// The ParSim single-source solver (index-free, deterministic, biased).
///
/// Generic over the graph backend `G: NeighborAccess`, like every solver
/// in this crate — see [`crate::exactsim::ExactSim`].
#[derive(Clone, Debug)]
pub struct ParSim<G: NeighborAccess> {
    graph: G,
    config: ParSimConfig,
    /// The constant `(1 − c)·I` diagonal, materialised once.
    diagonal: Vec<f64>,
    pool: ScratchPool,
}

impl<G: NeighborAccess> ParSim<G> {
    /// Creates a solver for `graph`.
    pub fn new(graph: G, config: ParSimConfig) -> Result<Self, SimRankError> {
        config.simrank.validate()?;
        if config.iterations == 0 {
            return Err(SimRankError::InvalidParameter {
                name: "iterations",
                message: "ParSim needs at least one iteration".into(),
            });
        }
        let n = graph.num_nodes();
        if n == 0 {
            return Err(SimRankError::EmptyGraph);
        }
        let diagonal = vec![1.0 - config.simrank.decay; n];
        Ok(ParSim {
            graph,
            config,
            diagonal,
            pool: ScratchPool::new(n),
        })
    }

    /// The configuration this solver was built with.
    pub fn config(&self) -> &ParSimConfig {
        &self.config
    }

    /// Answers a single-source query; the result carries the ParSim bias.
    pub fn query(&self, source: NodeId) -> Result<Vec<f64>, SimRankError> {
        let n = self.graph.num_nodes();
        if source as usize >= n {
            return Err(SimRankError::SourceOutOfRange {
                source,
                num_nodes: n,
            });
        }
        let cfg = &self.config.simrank;
        let sqrt_c = cfg.sqrt_decay();
        let mut scratch = self.pool.checkout();
        dense_hop_vectors_into(
            &self.graph,
            source,
            sqrt_c,
            self.config.iterations,
            &mut scratch.dense_walk,
            &mut scratch.dense_tmp,
            &mut scratch.dense_hops,
        );
        let mut scores = accumulate_dense(
            &self.graph,
            &scratch.dense_hops.hops,
            &self.diagonal,
            sqrt_c,
            &mut scratch.dense_tmp,
        );
        self.pool.give_back(scratch);
        // S(i, i) = 1 by definition; without the correct D the accumulation
        // underestimates the source's own similarity, so pin it (the standard
        // convention for D = (1-c)I implementations — the bias the paper
        // measures is the off-diagonal one).
        scores[source as usize] = 1.0;
        Ok(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::max_error;
    use crate::power_method::{PowerMethod, PowerMethodConfig};
    use exactsim_graph::generators::{barabasi_albert, complete, cycle, star};

    #[test]
    fn validates_configuration() {
        let g = complete(3);
        let bad = ParSimConfig {
            iterations: 0,
            ..Default::default()
        };
        assert!(ParSim::new(&g, bad).is_err());
        let empty = exactsim_graph::GraphBuilder::new(0).build();
        assert!(ParSim::new(&empty, ParSimConfig::default()).is_err());
        let solver = ParSim::new(&g, ParSimConfig::default()).unwrap();
        assert!(solver.query(99).is_err());
    }

    #[test]
    fn exact_on_graphs_where_d_truly_is_one_minus_c() {
        // Every node of a cycle has in-degree exactly 1, so ParSim's
        // assumption holds and the result is exact (up to truncation).
        let g = cycle(8);
        let truth = PowerMethod::compute(&g, PowerMethodConfig::default()).unwrap();
        let solver = ParSim::new(
            &g,
            ParSimConfig {
                iterations: 60,
                ..Default::default()
            },
        )
        .unwrap();
        let scores = solver.query(2).unwrap();
        assert!(max_error(&scores, &truth.single_source(2)) < 1e-10);
    }

    #[test]
    fn biased_on_graphs_with_larger_in_degrees() {
        // On a scale-free graph the (1-c)I assumption is wrong and no number
        // of iterations fixes it — the error floor is what the paper's
        // Figure 1 shows for ParSim.
        let g = barabasi_albert(60, 3, true, 7).unwrap();
        let truth = PowerMethod::compute(&g, PowerMethodConfig::default()).unwrap();
        let few = ParSim::new(
            &g,
            ParSimConfig {
                iterations: 20,
                ..Default::default()
            },
        )
        .unwrap()
        .query(1)
        .unwrap();
        let many = ParSim::new(
            &g,
            ParSimConfig {
                iterations: 200,
                ..Default::default()
            },
        )
        .unwrap()
        .query(1)
        .unwrap();
        let exact = truth.single_source(1);
        let err_few = max_error(&few, &exact);
        let err_many = max_error(&many, &exact);
        assert!(err_many > 1e-4, "ParSim error floor missing: {err_many}");
        // More iterations do not help once the floor is reached.
        assert!((err_many - err_few).abs() < err_few.max(1e-6));
    }

    #[test]
    fn source_similarity_close_to_one_but_biased() {
        let g = star(9, true);
        let solver = ParSim::new(&g, ParSimConfig::default()).unwrap();
        let scores = solver.query(0).unwrap();
        // The hub's self-similarity is under-estimated because D(hub) < 1 is
        // replaced by... actually D(hub,hub)=1-c is replaced correctly only
        // for nodes with one in-neighbor; the hub has 8, so bias shows up.
        assert!(scores[0] > 0.5 && scores[0] <= 1.0 + 1e-9);
    }

    #[test]
    fn deterministic_across_calls() {
        let g = barabasi_albert(100, 2, false, 3).unwrap();
        let solver = ParSim::new(&g, ParSimConfig::default()).unwrap();
        assert_eq!(solver.query(5).unwrap(), solver.query(5).unwrap());
    }
}
