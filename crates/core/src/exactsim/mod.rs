//! ExactSim: probabilistic-exact single-source SimRank (the paper's §3).
//!
//! Both variants follow the same outline (Algorithm 1):
//!
//! 1. compute the ℓ-hop Personalized PageRank vectors `π^ℓ_i` of the source
//!    for `ℓ = 0..L` with `L = ⌈log_{1/c}(2/ε)⌉`;
//! 2. allocate a total budget of `R = 6·ln n / ((1−√c)⁴·ε²)` pairs of √c-walks
//!    across nodes — `R(k) = ⌈R·π_i(k)⌉` for the basic variant — and estimate
//!    the diagonal correction matrix `D̂` with them (Algorithm 2);
//! 3. run the Linearization recurrence
//!    `s^ℓ = √c·Pᵀ·s^{ℓ-1} + D̂·π^{L-ℓ}_i/(1−√c)` and return `s^L`.
//!
//! The optimized variant ([`ExactSimVariant::Optimized`]) adds the three §3.2
//! techniques: *sparse Linearization* (hop vectors pruned at `(1−√c)²·ε/2`,
//! Lemma 2), *sampling ∝ π_i(k)²* (`R` scaled down by `‖π_i‖²`, Lemma 3) and
//! the *local deterministic exploitation* of `D` (Algorithm 3).
//!
//! ## Practical deviations
//!
//! The theoretical sample count at `ε = 1e-7` is astronomically large; the
//! guarantee is what makes the output a ground truth, but most of those
//! samples are redundant once the deterministic exploration has resolved the
//! bulk of each `D(k,k)`. This implementation therefore supports
//!
//! * an optional **walk budget** ([`ExactSimConfig::walk_budget`]) that caps
//!   the total number of walk pairs and scales every `R(k)` proportionally.
//!   `simrank-serve` sets it to 2M pairs by default (`--walk-budget`), and
//!   the benchmark harness uses it to trace out time/error curves. A cap
//!   that binds widens the sampling part of the error bound by
//!   `√(requested/total)`, so a small ε needs the cap lifted; and
//! * the **equivalent-variance tail-sample reduction** inside Algorithm 3
//!   (see [`crate::diagonal`]).
//!
//! With the budget left at `None` the implementation is the paper's algorithm
//! verbatim.

mod result;

pub use result::{ExactSimResult, ExactSimStats};

use exactsim_graph::linalg::{pt_multiply, SparseVec};
use exactsim_graph::{NeighborAccess, NodeId};

use crate::config::SimRankConfig;
use crate::diagonal::{estimate_diagonal_in, DiagonalEstimator, LocalExploreCaps};
use crate::error::SimRankError;
use crate::ppr::{dense_hop_vectors_into, sparse_hop_vectors_into};
use crate::scratch::{Scratch, ScratchPool};

/// Which ExactSim variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExactSimVariant {
    /// Algorithm 1 + Algorithm 2: dense hop vectors, `R(k) ∝ π_i(k)`,
    /// Bernoulli estimation of `D`.
    Basic,
    /// §3.2: sparse hop vectors, `R(k) ∝ π_i(k)²`, Algorithm 3 for `D`.
    #[default]
    Optimized,
}

/// How ExactSim obtains the diagonal correction matrix.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum DiagonalMode {
    /// Estimate `D̂` with the variant's estimator (the paper's algorithm).
    #[default]
    Estimated,
    /// Use an externally supplied exact `D` (ablation / validation): the
    /// query then reduces to pure (sparse) Linearization.
    Exact(Vec<f64>),
    /// Use the ParSim approximation `D = (1−c)·I` (ablation).
    ParSimApprox,
}

/// Configuration of an [`ExactSim`] instance.
#[derive(Clone, Debug, PartialEq)]
pub struct ExactSimConfig {
    /// Shared SimRank parameters (decay factor `c` and seed).
    pub simrank: SimRankConfig,
    /// Target additive error ε. The paper's "probabilistic exactness" is
    /// ε = 1e-7 (`float`-level precision).
    pub epsilon: f64,
    /// Basic (Algorithm 1/2) or Optimized (§3.2).
    pub variant: ExactSimVariant,
    /// Source of the diagonal correction matrix.
    pub diagonal: DiagonalMode,
    /// Optional cap on the total number of walk pairs. `None` reproduces the
    /// paper's sample counts exactly; `Some(budget)` scales every `R(k)`
    /// down proportionally once the total exceeds the budget, which loosens
    /// the sampling part of the ε guarantee. `simrank-serve` serves with a
    /// 2M-pair budget by default.
    pub walk_budget: Option<u64>,
    /// Engineering caps for Algorithm 3 (optimized variant only).
    pub explore_caps: LocalExploreCaps,
    /// Overrides the sparse-Linearization pruning threshold of the optimized
    /// variant (default `(1−√c)²·ε/2`). Used by the ablation benches to study
    /// the space/accuracy trade-off of Lemma 2 in isolation.
    pub prune_threshold_override: Option<f64>,
}

impl Default for ExactSimConfig {
    fn default() -> Self {
        ExactSimConfig {
            simrank: SimRankConfig::default(),
            epsilon: 1e-7,
            variant: ExactSimVariant::Optimized,
            diagonal: DiagonalMode::Estimated,
            walk_budget: None,
            explore_caps: LocalExploreCaps::default(),
            prune_threshold_override: None,
        }
    }
}

impl ExactSimConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), SimRankError> {
        self.simrank.validate()?;
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(SimRankError::InvalidParameter {
                name: "epsilon",
                message: format!("epsilon must be in (0, 1), got {}", self.epsilon),
            });
        }
        if let Some(0) = self.walk_budget {
            return Err(SimRankError::InvalidParameter {
                name: "walk_budget",
                message: "walk budget must be positive when set".into(),
            });
        }
        if let Some(t) = self.prune_threshold_override {
            if !(t >= 0.0 && t.is_finite()) {
                return Err(SimRankError::InvalidParameter {
                    name: "prune_threshold_override",
                    message: format!("pruning threshold must be finite and >= 0, got {t}"),
                });
            }
        }
        if let DiagonalMode::Exact(values) = &self.diagonal {
            if values.iter().any(|v| !v.is_finite()) {
                return Err(SimRankError::InvalidParameter {
                    name: "diagonal",
                    message: "exact diagonal contains non-finite entries".into(),
                });
            }
        }
        Ok(())
    }
}

/// The ExactSim single-source SimRank solver.
///
/// Construction validates the configuration against the graph; every
/// [`ExactSim::query`] call is independent (ExactSim is index-free — the
/// paper classifies it, like ParSim, as requiring no preprocessing).
///
/// Generic over the graph backend `G: NeighborAccess`, so the solver can
/// borrow an in-memory graph (`ExactSim<&DiGraph>`, the usual library
/// usage), share ownership of one (`ExactSim<Arc<DiGraph>>`, `'static +
/// Send + Sync`, what the `exactsim-service` query engine holds behind
/// trait objects), or stream adjacency from a buffer-managed page store
/// (`exactsim-store`'s `GraphHandle`).
///
/// The solver owns a [`ScratchPool`]: concurrent queries each check out a
/// reusable [`Scratch`] workspace, so steady-state query traffic performs no
/// accumulator allocation. Callers that manage their own workspaces (the
/// benchmark harness, batch drivers) can use [`ExactSim::query_with`].
#[derive(Clone, Debug)]
pub struct ExactSim<G: NeighborAccess> {
    graph: G,
    config: ExactSimConfig,
    pool: ScratchPool,
}

impl<G: NeighborAccess> ExactSim<G> {
    /// Creates a solver for `graph` with the given configuration.
    pub fn new(graph: G, config: ExactSimConfig) -> Result<Self, SimRankError> {
        config.validate()?;
        let n = graph.num_nodes();
        if n == 0 {
            return Err(SimRankError::EmptyGraph);
        }
        if let DiagonalMode::Exact(values) = &config.diagonal {
            if values.len() != n {
                return Err(SimRankError::InvalidParameter {
                    name: "diagonal",
                    message: format!(
                        "exact diagonal has {} entries but the graph has {} nodes",
                        values.len(),
                        n
                    ),
                });
            }
        }
        Ok(ExactSim {
            graph,
            config,
            pool: ScratchPool::new(n),
        })
    }

    /// The configuration this solver was built with.
    pub fn config(&self) -> &ExactSimConfig {
        &self.config
    }

    /// Answers a single-source SimRank query for `source`, using a pooled
    /// [`Scratch`] workspace (allocation-free in steady state).
    pub fn query(&self, source: NodeId) -> Result<ExactSimResult, SimRankError> {
        let mut scratch = self.pool.checkout();
        let result = self.query_with(source, &mut scratch);
        self.pool.give_back(scratch);
        result
    }

    /// Answers a single-source SimRank query with a caller-owned workspace.
    ///
    /// The result is bit-identical to [`ExactSim::query`] regardless of the
    /// scratch's history. The scratch must have been created for a graph of
    /// the same size (a mismatch is an error here instead of an index panic
    /// deep inside a kernel).
    pub fn query_with(
        &self,
        source: NodeId,
        scratch: &mut Scratch,
    ) -> Result<ExactSimResult, SimRankError> {
        let n = self.graph.num_nodes();
        if scratch.num_nodes() != n {
            return Err(SimRankError::InvalidParameter {
                name: "scratch",
                message: format!(
                    "scratch was created for {} nodes but the graph has {n}",
                    scratch.num_nodes()
                ),
            });
        }
        if source as usize >= n {
            return Err(SimRankError::SourceOutOfRange {
                source,
                num_nodes: n,
            });
        }
        match self.config.variant {
            ExactSimVariant::Basic => self.query_basic(source, scratch),
            ExactSimVariant::Optimized => self.query_optimized(source, scratch),
        }
    }

    /// The paper's theoretical total sample count
    /// `R = 6·ln n / ((1−√c)⁴·ε²)` for the configured ε (before any budget
    /// capping and before the Lemma 3 `‖π_i‖²` scaling).
    pub fn theoretical_sample_count(&self) -> f64 {
        let n = self.graph.num_nodes().max(2) as f64;
        let sqrt_c = self.config.simrank.sqrt_decay();
        let eps = self.effective_epsilon();
        6.0 * n.ln() / ((1.0 - sqrt_c).powi(4) * eps * eps)
    }

    /// ε/2 for the optimized variant (half the error budget is spent on
    /// sparsification, per Lemma 2), ε for the basic variant.
    fn effective_epsilon(&self) -> f64 {
        match self.config.variant {
            ExactSimVariant::Basic => self.config.epsilon,
            ExactSimVariant::Optimized => self.config.epsilon / 2.0,
        }
    }

    fn diagonal_estimator(&self) -> DiagonalEstimator {
        match (&self.config.diagonal, self.config.variant) {
            (DiagonalMode::Exact(values), _) => DiagonalEstimator::Exact(values.clone()),
            (DiagonalMode::ParSimApprox, _) => DiagonalEstimator::ParSimApprox,
            (DiagonalMode::Estimated, ExactSimVariant::Basic) => DiagonalEstimator::Bernoulli,
            (DiagonalMode::Estimated, ExactSimVariant::Optimized) => {
                DiagonalEstimator::LocalDeterministic(self.config.explore_caps)
            }
        }
    }

    /// Scales the per-node allocation down proportionally when a walk budget
    /// is configured. Returns (requested_total, actual_total).
    fn apply_budget(&self, allocation: &mut [u64]) -> (u64, u64) {
        let requested: u64 = allocation
            .iter()
            .fold(0u64, |acc, &r| acc.saturating_add(r));
        let actual = match self.config.walk_budget {
            Some(budget) if requested > budget => {
                let factor = budget as f64 / requested as f64;
                for r in allocation.iter_mut() {
                    if *r > 0 {
                        *r = (((*r as f64) * factor).ceil() as u64).max(1);
                    }
                }
                allocation
                    .iter()
                    .fold(0u64, |acc, &r| acc.saturating_add(r))
            }
            _ => requested,
        };
        (requested, actual)
    }

    fn query_basic(
        &self,
        source: NodeId,
        scratch: &mut Scratch,
    ) -> Result<ExactSimResult, SimRankError> {
        let n = self.graph.num_nodes();
        let cfg = &self.config.simrank;
        let sqrt_c = cfg.sqrt_decay();
        let eps = self.effective_epsilon();
        let levels = cfg.iterations_for_epsilon(eps);
        let Scratch {
            dense_hops,
            dense_walk,
            dense_tmp,
            allocation,
            diag: diag_scratch,
            ..
        } = scratch;

        // Lines 2–5: ℓ-hop PPR vectors and their aggregate.
        dense_hop_vectors_into(
            &self.graph,
            source,
            sqrt_c,
            levels,
            dense_walk,
            dense_tmp,
            dense_hops,
        );
        let hops = &*dense_hops;
        let ppr_norm_sq = hops.aggregate_l2_norm_sq();

        // Lines 6–8: allocate R(k) = ⌈R·π_i(k)⌉ and estimate D.
        let r_total = self.theoretical_sample_count();
        allocation.clear();
        allocation.resize(n, 0);
        for (slot, &p) in allocation.iter_mut().zip(hops.aggregate.iter()) {
            if p > 0.0 {
                *slot = (r_total * p).ceil().min(9.0e18) as u64;
            }
        }
        let (requested, actual) = self.apply_budget(allocation);
        let estimator = self.diagonal_estimator();
        let diag = estimate_diagonal_in(
            &self.graph,
            allocation,
            &estimator,
            sqrt_c,
            0.0,
            cfg.seed ^ source as u64,
            diag_scratch,
        );

        let aux_memory_bytes =
            aux_memory_bytes(hops.memory_bytes(), diag.values.len(), allocation.len(), n);

        // Lines 9–12: the Linearization recurrence.
        let scores = accumulate_dense(&self.graph, &hops.hops, &diag.values, sqrt_c, dense_tmp);

        crate::counters::add(&crate::counters::SOLVER_ITERATIONS, levels as u64);
        crate::counters::add(&crate::counters::WALK_PAIRS, diag.walk_pairs);
        Ok(ExactSimResult {
            scores,
            stats: ExactSimStats {
                levels,
                requested_walk_pairs: requested,
                total_walk_pairs: actual,
                simulated_walk_pairs: diag.walk_pairs,
                explore_edges: diag.explore_edges,
                tails_skipped: diag.tails_skipped,
                aux_memory_bytes,
                ppr_norm_sq,
                hop_nnz: (levels + 1) * n,
            },
        })
    }

    fn query_optimized(
        &self,
        source: NodeId,
        scratch: &mut Scratch,
    ) -> Result<ExactSimResult, SimRankError> {
        let n = self.graph.num_nodes();
        let cfg = &self.config.simrank;
        let sqrt_c = cfg.sqrt_decay();
        let eps = self.effective_epsilon();
        let levels = cfg.iterations_for_epsilon(eps);
        let Scratch {
            ws,
            walk,
            walk_tmp,
            entries,
            sparse_hops,
            dense_tmp,
            allocation,
            diag: diag_scratch,
            ..
        } = scratch;

        // Sparse Linearization: prune hop entries below (1−√c)²·ε.
        let prune_threshold = self
            .config
            .prune_threshold_override
            .unwrap_or((1.0 - sqrt_c).powi(2) * eps);
        sparse_hop_vectors_into(
            &self.graph,
            source,
            sqrt_c,
            levels,
            prune_threshold,
            ws,
            walk,
            walk_tmp,
            entries,
            sparse_hops,
        );
        let hops = &*sparse_hops;
        let ppr_norm_sq = hops.aggregate_l2_norm_sq();

        // Lemma 3: R is scaled down by ‖π_i‖², i.e. R(k) = ⌈R_base·π_i(k)²⌉.
        let r_base = self.theoretical_sample_count();
        allocation.clear();
        allocation.resize(n, 0);
        for (k, p) in hops.aggregate.iter() {
            if p > 0.0 {
                allocation[k as usize] = (r_base * p * p).ceil().min(9.0e18) as u64;
            }
        }
        let (requested, actual) = self.apply_budget(allocation);

        // Bias budget for skipping Algorithm 3 tails: a uniform bias of
        // (1−√c)²·ε/4 across all D(k,k) adds at most ε/4 to the result.
        let tail_skip = (1.0 - sqrt_c).powi(2) * eps / 4.0;
        let estimator = self.diagonal_estimator();
        let diag = estimate_diagonal_in(
            &self.graph,
            allocation,
            &estimator,
            sqrt_c,
            tail_skip,
            cfg.seed ^ source as u64,
            diag_scratch,
        );

        let aux_memory_bytes =
            aux_memory_bytes(hops.memory_bytes(), diag.values.len(), allocation.len(), n);

        let scores = accumulate_sparse(&self.graph, &hops.hops, &diag.values, sqrt_c, dense_tmp);

        crate::counters::add(&crate::counters::SOLVER_ITERATIONS, levels as u64);
        crate::counters::add(&crate::counters::WALK_PAIRS, diag.walk_pairs);
        Ok(ExactSimResult {
            scores,
            stats: ExactSimStats {
                levels,
                requested_walk_pairs: requested,
                total_walk_pairs: actual,
                simulated_walk_pairs: diag.walk_pairs,
                explore_edges: diag.explore_edges,
                tails_skipped: diag.tails_skipped,
                aux_memory_bytes,
                ppr_norm_sq,
                hop_nnz: hops.total_nnz(),
            },
        })
    }
}

/// Peak auxiliary memory of one query, in bytes — the paper's Table 3
/// accounting, audited to cover every *per-query* data structure the
/// algorithm materialises: the hop vectors (including their aggregate —
/// both [`crate::ppr::DenseHopVectors::memory_bytes`] and
/// [`crate::ppr::SparseHopVectors::memory_bytes`] count it), the diagonal
/// estimate, the per-node walk allocation `R(k)`, and the two dense
/// accumulators of the Linearization recurrence (the output column and its
/// ping-pong temporary).
///
/// Deliberately *excluded*: the capacity retained inside pooled [`Scratch`]
/// workspaces between queries. The largest part is Algorithm 3's
/// [`crate::scratch::DistTable`] arena, which each query truncates and
/// refills, so a scratch retains the arena of one query — the largest it
/// has served — not a distribution per node ever explored. That retention
/// is a property of the solver's pool — it scales with the number of
/// concurrent queries, not with one query — and counting it here would make
/// identical queries report different numbers depending on pool history,
/// which is exactly what a per-query Table 3 column must not do.
fn aux_memory_bytes(
    hop_bytes: usize,
    diagonal_len: usize,
    allocation_len: usize,
    n: usize,
) -> usize {
    hop_bytes
        + diagonal_len * std::mem::size_of::<f64>()
        + allocation_len * std::mem::size_of::<u64>()
        + 2 * n * std::mem::size_of::<f64>()
}

/// Runs the recurrence `s^ℓ = √c·Pᵀ·s^{ℓ-1} + D̂·π^{L-ℓ}_i / (1−√c)` with
/// dense hop vectors (Algorithm 1, lines 9–12). Shared with the ParSim and
/// Linearization baselines, which differ only in how `D̂` is produced.
///
/// Only the returned score column is allocated; the ping-pong temporary is
/// the caller-owned `tmp`.
pub(crate) fn accumulate_dense<G: NeighborAccess>(
    graph: &G,
    hops: &[Vec<f64>],
    diagonal: &[f64],
    sqrt_c: f64,
    tmp: &mut Vec<f64>,
) -> Vec<f64> {
    let n = graph.num_nodes();
    let stop = 1.0 - sqrt_c;
    let levels = hops.len() - 1;
    let mut s = vec![0.0; n];
    tmp.clear();
    tmp.resize(n, 0.0);
    for step in 0..=levels {
        // s ← √c·Pᵀ·s   (skipped on the first step where s = 0)
        if step > 0 {
            pt_multiply(graph, &s, tmp);
            for v in tmp.iter_mut() {
                *v *= sqrt_c;
            }
            std::mem::swap(&mut s, tmp);
        }
        // s ← s + D̂·π^{L-step} / (1−√c)
        let hop = &hops[levels - step];
        for k in 0..n {
            if hop[k] != 0.0 {
                s[k] += diagonal[k] * hop[k] / stop;
            }
        }
    }
    s
}

/// Same recurrence with sparse hop vectors; the accumulator `s` itself is
/// dense.
///
/// It starts at the highest level whose hop vector has entries. Above it,
/// `s` is all `+0.0` and `√c·Pᵀ·s` is all `+0.0` again, so those passes are
/// skipped without changing a bit. The pruned hop vectors of a serving query
/// are empty well below `L`, and skipping them saves most of the `Pᵀ` passes.
pub(crate) fn accumulate_sparse<G: NeighborAccess>(
    graph: &G,
    hops: &[SparseVec],
    diagonal: &[f64],
    sqrt_c: f64,
    tmp: &mut Vec<f64>,
) -> Vec<f64> {
    let n = graph.num_nodes();
    let stop = 1.0 - sqrt_c;
    let mut s = vec![0.0; n];
    let Some(top) = hops.iter().rposition(|hop| !hop.is_empty()) else {
        return s;
    };
    tmp.clear();
    tmp.resize(n, 0.0);
    for level in (0..=top).rev() {
        if level < top {
            pt_multiply(graph, &s, tmp);
            for v in tmp.iter_mut() {
                *v *= sqrt_c;
            }
            std::mem::swap(&mut s, tmp);
        }
        for (k, value) in hops[level].iter() {
            s[k as usize] += diagonal[k as usize] * value / stop;
        }
    }
    s
}

#[cfg(test)]
mod tests;
