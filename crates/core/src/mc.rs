//! MC: the Monte-Carlo single-source baseline (Fogaras & Rácz).
//!
//! In a preprocessing phase MC simulates and stores `r` √c-walks of length at
//! most `L` from *every* node. A single-source query for `v_i` then pairs the
//! x-th stored walk of `v_i` with the x-th stored walk of every other node
//! `v_j` and uses the fraction of pairs that meet as the estimator of
//! `S(i, j)` (eq. 2 of the paper). Accuracy `ε` needs `r = O(log n/ε²)` walks
//! per node, which is the `O(n·log n/ε²)` preprocessing cost the paper's §2.2
//! calls out; the index (all stored walks) is also by far the largest of the
//! compared methods (Figure 4/8).

use exactsim_graph::{NeighborAccess, NodeId};

use crate::config::SimRankConfig;
use crate::error::SimRankError;
use crate::walks::{self, Walk};

/// Configuration for [`MonteCarlo`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonteCarloConfig {
    /// Shared SimRank parameters.
    pub simrank: SimRankConfig,
    /// Number of stored walks per node (`r` in the paper's parameter sweep,
    /// varied from 50 to 50 000).
    pub walks_per_node: usize,
    /// Maximum walk length (`L` in the paper's sweep, varied from 5 to 5 000;
    /// since walk lengths are geometric with mean `1/(1-√c) ≈ 4.4`, lengths
    /// beyond a few dozen change nothing).
    pub walk_length: usize,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            simrank: SimRankConfig::default(),
            walks_per_node: 100,
            walk_length: 10,
        }
    }
}

impl MonteCarloConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), SimRankError> {
        self.simrank.validate()?;
        if self.walks_per_node == 0 {
            return Err(SimRankError::InvalidParameter {
                name: "walks_per_node",
                message: "at least one walk per node is required".into(),
            });
        }
        if self.walk_length == 0 {
            return Err(SimRankError::InvalidParameter {
                name: "walk_length",
                message: "walk length must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// The MC index: `walks_per_node` stored √c-walks from every node.
///
/// Generic over the graph backend `G: NeighborAccess` (`&DiGraph`,
/// `Arc<DiGraph>`, or a paged store handle), like every solver in this
/// crate — see [`crate::exactsim::ExactSim`].
#[derive(Clone, Debug)]
pub struct MonteCarlo<G: NeighborAccess> {
    graph: G,
    config: MonteCarloConfig,
    /// `walks[v * r + x]` is the x-th stored walk from node `v`.
    walks: Vec<Walk>,
}

impl<G: NeighborAccess> MonteCarlo<G> {
    /// Runs the preprocessing phase: samples and stores all walks.
    pub fn build(graph: G, config: MonteCarloConfig) -> Result<Self, SimRankError> {
        config.validate()?;
        let g = &graph;
        let n = g.num_nodes();
        if n == 0 {
            return Err(SimRankError::EmptyGraph);
        }
        let r = config.walks_per_node;
        let sqrt_c = config.simrank.sqrt_decay();

        // Every node derives its own RNG stream from (seed, node id), so a
        // node's walks do not depend on the nodes sampled before it.
        let mut all_walks = Vec::with_capacity(n * r);
        for v in 0..n {
            let mut rng = walks::make_rng(walks::derive_seed(config.simrank.seed, v as u64));
            for _ in 0..r {
                all_walks.push(walks::sample_walk(
                    g,
                    v as NodeId,
                    sqrt_c,
                    config.walk_length,
                    &mut rng,
                ));
            }
        }
        crate::counters::add(&crate::counters::MC_WALKS, (n * r) as u64);
        Ok(MonteCarlo {
            graph,
            config,
            walks: all_walks,
        })
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> &MonteCarloConfig {
        &self.config
    }

    /// Size of the stored-walk index in bytes (Figure 4/8 accounting).
    pub fn index_bytes(&self) -> usize {
        let step_bytes: usize = self
            .walks
            .iter()
            .map(|w| w.positions.len() * std::mem::size_of::<NodeId>())
            .sum();
        step_bytes + self.walks.len() * std::mem::size_of::<Walk>()
    }

    /// Total number of stored walk steps (proportional to preprocessing work).
    pub fn total_steps(&self) -> usize {
        self.walks.iter().map(Walk::len).sum()
    }

    /// Answers a single-source query by pairing stored walks.
    pub fn query(&self, source: NodeId) -> Result<Vec<f64>, SimRankError> {
        let n = self.graph.num_nodes();
        if source as usize >= n {
            return Err(SimRankError::SourceOutOfRange {
                source,
                num_nodes: n,
            });
        }
        let r = self.config.walks_per_node;
        let source_walks = &self.walks[source as usize * r..(source as usize + 1) * r];
        let scores = self
            .walks
            .chunks_exact(r)
            .enumerate()
            .map(|(j, other)| {
                if j == source as usize {
                    return 1.0;
                }
                let meets = source_walks
                    .iter()
                    .zip(other)
                    .filter(|(a, b)| walks::walks_meet(a, b))
                    .count();
                meets as f64 / r as f64
            })
            .collect();
        Ok(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::max_error;
    use crate::power_method::{PowerMethod, PowerMethodConfig};
    use exactsim_graph::generators::{barabasi_albert, complete, cycle, star};
    use exactsim_graph::DiGraph;

    fn build(graph: &DiGraph, walks_per_node: usize) -> MonteCarlo<&DiGraph> {
        MonteCarlo::build(
            graph,
            MonteCarloConfig {
                walks_per_node,
                walk_length: 30,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn validates_configuration() {
        let g = complete(3);
        assert!(MonteCarlo::build(
            &g,
            MonteCarloConfig {
                walks_per_node: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(MonteCarlo::build(
            &g,
            MonteCarloConfig {
                walk_length: 0,
                ..Default::default()
            }
        )
        .is_err());
        let empty = exactsim_graph::GraphBuilder::new(0).build();
        assert!(MonteCarlo::build(&empty, MonteCarloConfig::default()).is_err());
    }

    #[test]
    fn estimates_converge_to_ground_truth() {
        let g = barabasi_albert(40, 2, true, 3).unwrap();
        let truth = PowerMethod::compute(&g, PowerMethodConfig::default()).unwrap();
        let index = build(&g, 4000);
        let scores = index.query(1).unwrap();
        let err = max_error(&scores, &truth.single_source(1));
        assert!(err < 0.05, "MC error {err} too large for 4000 walks/node");
    }

    #[test]
    fn more_walks_reduce_the_error() {
        let g = barabasi_albert(40, 2, true, 13).unwrap();
        let truth = PowerMethod::compute(&g, PowerMethodConfig::default()).unwrap();
        let exact = truth.single_source(0);
        let coarse = build(&g, 50).query(0).unwrap();
        let fine = build(&g, 5000).query(0).unwrap();
        let coarse_err = max_error(&coarse, &exact);
        let fine_err = max_error(&fine, &exact);
        assert!(
            fine_err < coarse_err,
            "error should shrink with more walks: {coarse_err} -> {fine_err}"
        );
    }

    #[test]
    fn cycle_gives_zero_similarity() {
        let g = cycle(6);
        let index = build(&g, 200);
        let scores = index.query(0).unwrap();
        assert_eq!(scores[0], 1.0);
        for &s in &scores[1..] {
            assert_eq!(s, 0.0, "walks on a cycle can never meet");
        }
    }

    #[test]
    fn directed_star_gives_zero_similarity_for_leaves() {
        let g = star(7, false);
        let index = build(&g, 100);
        let scores = index.query(2).unwrap();
        for (j, &s) in scores.iter().enumerate() {
            if j != 2 {
                assert_eq!(s, 0.0);
            }
        }
    }

    #[test]
    fn index_size_scales_with_walk_count() {
        let g = barabasi_albert(60, 2, true, 5).unwrap();
        let small = build(&g, 20);
        let large = build(&g, 200);
        assert!(large.index_bytes() > 5 * small.index_bytes());
        assert!(large.total_steps() > 5 * small.total_steps());
    }

    #[test]
    fn deterministic_per_seed_and_independent_of_thread_count() {
        let g = barabasi_albert(80, 2, true, 9).unwrap();
        let mut cfg = MonteCarloConfig {
            walks_per_node: 50,
            walk_length: 20,
            ..Default::default()
        };
        let a = MonteCarlo::build(&g, cfg).unwrap().query(3).unwrap();
        let a2 = MonteCarlo::build(&g, cfg).unwrap().query(3).unwrap();
        assert_eq!(a, a2);
        // The index is built on the caller's thread; no other count exists.
        cfg.simrank.threads = 4;
        assert!(MonteCarlo::build(&g, cfg).is_err());
    }

    #[test]
    fn query_checks_source_range() {
        let g = complete(4);
        let index = build(&g, 10);
        assert!(index.query(4).is_err());
    }
}
