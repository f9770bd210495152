//! Linearization: the Maehara et al. baseline with a Monte-Carlo `D`.
//!
//! Linearization answers single-source queries with the identity
//! `S·e_i = Σ_ℓ c^ℓ (P^ℓ)ᵀ D P^ℓ e_i`, exactly like ExactSim — but it obtains
//! the diagonal correction matrix `D` in a *preprocessing* phase that
//! estimates every entry `D(k,k)` to accuracy ε with `O(log n/ε²)` sampled
//! walk pairs **per node**, i.e. `O(n·log n/ε²)` total. That per-node cost is
//! the term ExactSim eliminates; in the paper's Figure 1 Linearization cannot
//! go below ε ≈ 1e-5 within the 24-hour limit for exactly this reason.
//!
//! The index is just the `n`-entry vector `D̂` (hence the characteristic
//! vertical line in the paper's index-size plots, Figure 4): queries are
//! deterministic once `D̂` is built.

use exactsim_graph::{NeighborAccess, NodeId};

use crate::config::SimRankConfig;
use crate::diagonal::{estimate_diagonal, DiagonalEstimate, DiagonalEstimator};
use crate::error::SimRankError;
use crate::exactsim::accumulate_dense;
use crate::ppr::dense_hop_vectors_into;
use crate::scratch::ScratchPool;

/// Configuration for [`Linearization`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearizationConfig {
    /// Shared SimRank parameters.
    pub simrank: SimRankConfig,
    /// Target additive error ε; controls both the per-node sample count of
    /// the preprocessing phase and the query-time iteration count.
    pub epsilon: f64,
    /// Optional cap on the *total* number of walk pairs spent estimating `D̂`
    /// (the harness uses it to keep preprocessing sweeps within a time
    /// budget; `None` reproduces the paper's counts).
    pub walk_budget: Option<u64>,
}

impl Default for LinearizationConfig {
    fn default() -> Self {
        LinearizationConfig {
            simrank: SimRankConfig::default(),
            epsilon: 1e-3,
            walk_budget: None,
        }
    }
}

/// The Linearization solver: `build` runs the `O(n·log n/ε²)` preprocessing,
/// `query` answers single-source queries deterministically.
///
/// Generic over the graph backend `G: NeighborAccess`, like every solver
/// in this crate — see [`crate::exactsim::ExactSim`].
#[derive(Clone, Debug)]
pub struct Linearization<G: NeighborAccess> {
    graph: G,
    config: LinearizationConfig,
    diagonal: Vec<f64>,
    preprocessing_walks: u64,
    pool: ScratchPool,
}

impl<G: NeighborAccess> Linearization<G> {
    /// Runs the preprocessing phase (Monte-Carlo estimation of `D̂`).
    pub fn build(graph: G, config: LinearizationConfig) -> Result<Self, SimRankError> {
        config.simrank.validate()?;
        if !(config.epsilon > 0.0 && config.epsilon < 1.0) {
            return Err(SimRankError::InvalidParameter {
                name: "epsilon",
                message: format!("epsilon must be in (0, 1), got {}", config.epsilon),
            });
        }
        let n = graph.num_nodes();
        if n == 0 {
            return Err(SimRankError::EmptyGraph);
        }
        let per_node = per_node_samples(n, config.epsilon);
        let mut allocation = vec![per_node; n];
        if let Some(budget) = config.walk_budget {
            let total = per_node.saturating_mul(n as u64);
            if total > budget {
                let capped = (budget / n as u64).max(1);
                allocation = vec![capped; n];
            }
        }
        let estimate: DiagonalEstimate = estimate_diagonal(
            &graph,
            &allocation,
            &DiagonalEstimator::Bernoulli,
            config.simrank.sqrt_decay(),
            0.0,
            config.simrank.seed,
        );
        Ok(Linearization {
            graph,
            config,
            diagonal: estimate.values,
            preprocessing_walks: estimate.walk_pairs,
            pool: ScratchPool::new(n),
        })
    }

    /// The configuration this solver was built with.
    pub fn config(&self) -> &LinearizationConfig {
        &self.config
    }

    /// Total walk pairs simulated during preprocessing.
    pub fn preprocessing_walks(&self) -> u64 {
        self.preprocessing_walks
    }

    /// Size of the index (the stored `D̂` vector) in bytes — the quantity of
    /// the paper's Figure 4/8 for Linearization.
    pub fn index_bytes(&self) -> usize {
        self.diagonal.len() * std::mem::size_of::<f64>()
    }

    /// The estimated diagonal (exposed for the ablation benches).
    pub fn diagonal(&self) -> &[f64] {
        &self.diagonal
    }

    /// Answers a single-source query using the precomputed `D̂`.
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
        let levels = cfg.iterations_for_epsilon(self.config.epsilon);
        let mut scratch = self.pool.checkout();
        dense_hop_vectors_into(
            &self.graph,
            source,
            sqrt_c,
            levels,
            &mut scratch.dense_walk,
            &mut scratch.dense_tmp,
            &mut scratch.dense_hops,
        );
        let scores = accumulate_dense(
            &self.graph,
            &scratch.dense_hops.hops,
            &self.diagonal,
            sqrt_c,
            &mut scratch.dense_tmp,
        );
        self.pool.give_back(scratch);
        crate::counters::add(&crate::counters::SOLVER_ITERATIONS, levels as u64);
        Ok(scores)
    }
}

/// The per-node sample count of the preprocessing phase: `⌈ln n / ε²⌉`
/// (the `O(log n/ε²)` rate the paper quotes; the constant is the standard
/// Chernoff-bound constant used by the original implementation).
fn per_node_samples(n: usize, epsilon: f64) -> u64 {
    let n = n.max(2) as f64;
    ((n.ln() / (epsilon * epsilon)).ceil()).min(9.0e18) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::max_error;
    use crate::power_method::{PowerMethod, PowerMethodConfig};
    use exactsim_graph::generators::{barabasi_albert, complete, cycle};

    #[test]
    fn per_node_samples_scales_with_one_over_eps_squared() {
        let a = per_node_samples(1000, 1e-1);
        let b = per_node_samples(1000, 1e-2);
        assert!(b >= 99 * a && b <= 101 * a);
        assert!(per_node_samples(10_000, 1e-1) > a);
    }

    #[test]
    fn validates_configuration() {
        let g = complete(3);
        let bad = LinearizationConfig {
            epsilon: 0.0,
            ..Default::default()
        };
        assert!(Linearization::build(&g, bad).is_err());
        let empty = exactsim_graph::GraphBuilder::new(0).build();
        assert!(Linearization::build(&empty, LinearizationConfig::default()).is_err());
    }

    #[test]
    fn accurate_on_small_graphs_with_loose_epsilon() {
        let g = barabasi_albert(50, 2, true, 5).unwrap();
        let truth = PowerMethod::compute(&g, PowerMethodConfig::default()).unwrap();
        let config = LinearizationConfig {
            epsilon: 0.05,
            ..Default::default()
        };
        let solver = Linearization::build(&g, config).unwrap();
        assert!(solver.preprocessing_walks() > 0);
        for source in [0u32, 25] {
            let scores = solver.query(source).unwrap();
            let err = max_error(&scores, &truth.single_source(source));
            assert!(err <= 0.05, "source {source}: error {err}");
        }
    }

    #[test]
    fn exact_on_cycles_regardless_of_sampling() {
        // Every node has in-degree 1, where the Bernoulli estimator returns
        // the exact value 1-c without sampling, so queries are exact.
        let g = cycle(10);
        let solver = Linearization::build(&g, LinearizationConfig::default()).unwrap();
        assert_eq!(solver.preprocessing_walks(), 0);
        let scores = solver.query(0).unwrap();
        // The self-similarity misses only the c^(L+1) truncation tail.
        assert!((scores[0] - 1.0).abs() < 1e-3);
        assert!(scores[0] <= 1.0 + 1e-12);
        assert!(scores[1..].iter().all(|&s| s.abs() < 1e-9));
    }

    #[test]
    fn preprocessing_cost_scales_with_n_and_budget_caps_it() {
        let small = barabasi_albert(50, 2, false, 1).unwrap();
        let large = barabasi_albert(200, 2, false, 1).unwrap();
        let cfg = LinearizationConfig {
            epsilon: 0.2,
            ..Default::default()
        };
        let a = Linearization::build(&small, cfg).unwrap();
        let b = Linearization::build(&large, cfg).unwrap();
        // The O(n log n / ε²) preprocessing: 4x the nodes ⇒ > 3x the walks
        // (nodes with din <= 1 are free, so allow slack).
        assert!(b.preprocessing_walks() > 2 * a.preprocessing_walks());

        let capped_cfg = LinearizationConfig {
            epsilon: 0.2,
            walk_budget: Some(1_000),
            ..Default::default()
        };
        let capped = Linearization::build(&large, capped_cfg).unwrap();
        assert!(capped.preprocessing_walks() <= 1_000 + large.num_nodes() as u64);
        assert!(capped.preprocessing_walks() < b.preprocessing_walks());
    }

    #[test]
    fn index_is_one_float_per_node() {
        let g = complete(17);
        let solver = Linearization::build(
            &g,
            LinearizationConfig {
                epsilon: 0.3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(solver.index_bytes(), 17 * 8);
        assert_eq!(solver.diagonal().len(), 17);
    }

    #[test]
    fn query_checks_source_range() {
        let g = complete(5);
        let solver = Linearization::build(
            &g,
            LinearizationConfig {
                epsilon: 0.3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(solver.query(5).is_err());
    }
}
