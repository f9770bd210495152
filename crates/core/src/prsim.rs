//! PRSim-style index-based single-source SimRank.
//!
//! PRSim (Wei et al., SIGMOD 2019) rewrites SimRank as
//!
//! ```text
//! S(i, j) = 1/(1−√c)² · Σ_ℓ Σ_k π^ℓ_i(k) · π^ℓ_j(k) · D(k,k)        (eq. 7)
//! ```
//!
//! and precomputes the ℓ-hop Personalized PageRank values `π^ℓ_j(k)` for a
//! set of *hub* nodes `k`, together with an estimate of `D`. Queries combine
//! the source's own hop vectors with the indexed columns.
//!
//! ## Faithfulness of this implementation
//!
//! The authors' PRSim additionally samples the non-indexed part with a probe
//! algorithm; re-implementing that machinery is out of scope for a baseline,
//! so this implementation indexes the columns of *every* node `k` reachable
//! within the level horizon, pruned at `(1−√c)·ε` — i.e. it behaves like
//! PRSim with a hub fraction of 1. The two properties the paper's comparison
//! relies on are preserved:
//!
//! * index time and size grow as the error parameter ε shrinks (the `1/ε`
//!   pruning plus the `O(log n/ε²)` walk-based estimate of `D`);
//! * query error tracks ε, and queries are fast because they only touch the
//!   index entries the source's hop vectors overlap with.

use exactsim_graph::linalg::Workspace;
use exactsim_graph::{NeighborAccess, NodeId};

use crate::config::SimRankConfig;
use crate::diagonal::{estimate_diagonal, DiagonalEstimator};
use crate::error::SimRankError;
use crate::ppr::{sparse_hop_vectors, sparse_hop_vectors_into};
use crate::scratch::ScratchPool;

/// Configuration for [`PrSim`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrSimConfig {
    /// Shared SimRank parameters.
    pub simrank: SimRankConfig,
    /// Error parameter ε shared by the index (pruning threshold, `D` sample
    /// count) and the query (level horizon).
    pub epsilon: f64,
    /// Optional cap on the walk pairs spent estimating `D̂` during indexing.
    pub walk_budget: Option<u64>,
    /// Optional cap on the number of stored index entries; when the pruned
    /// columns would exceed it, the pruning threshold is raised until they
    /// fit (the paper instead omits configurations that exceed memory).
    pub max_index_entries: Option<usize>,
}

impl Default for PrSimConfig {
    fn default() -> Self {
        PrSimConfig {
            simrank: SimRankConfig::default(),
            epsilon: 1e-2,
            walk_budget: None,
            max_index_entries: Some(50_000_000),
        }
    }
}

impl PrSimConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), SimRankError> {
        self.simrank.validate()?;
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(SimRankError::InvalidParameter {
                name: "epsilon",
                message: format!("epsilon must be in (0, 1), got {}", self.epsilon),
            });
        }
        Ok(())
    }
}

/// One level's inverted index: target node `k` → all `(j, π^ℓ_j(k))` entries.
type ColumnMap = std::collections::HashMap<NodeId, Vec<IndexEntry>>;

/// One stored index entry: node `j` has `π^ℓ_j(k) = value` for the `(ℓ, k)`
/// bucket the entry is filed under.
#[derive(Clone, Copy, Debug, PartialEq)]
struct IndexEntry {
    j: NodeId,
    value: f64,
}

/// The PRSim index.
///
/// Generic over the graph backend `G: NeighborAccess`, like every solver
/// in this crate — see [`crate::exactsim::ExactSim`].
#[derive(Clone, Debug)]
pub struct PrSim<G: NeighborAccess> {
    graph: G,
    config: PrSimConfig,
    levels: usize,
    /// `columns[ℓ]` maps a target node `k` to the list of `(j, π^ℓ_j(k))`
    /// entries — the inverted form of all nodes' hop vectors at level ℓ.
    columns: Vec<ColumnMap>,
    diagonal: Vec<f64>,
    preprocessing_walks: u64,
    index_entries: usize,
    pool: ScratchPool,
}

impl<G: NeighborAccess> PrSim<G> {
    /// Builds the index: inverted pruned hop columns plus the `D̂` estimate.
    pub fn build(graph: G, config: PrSimConfig) -> Result<Self, SimRankError> {
        config.validate()?;
        let g = &graph;
        let n = g.num_nodes();
        if n == 0 {
            return Err(SimRankError::EmptyGraph);
        }
        let sqrt_c = config.simrank.sqrt_decay();
        let levels = config.simrank.iterations_for_epsilon(config.epsilon);
        let mut prune = (1.0 - sqrt_c) * config.epsilon;

        // Build the inverted columns, raising the pruning threshold if an
        // index-entry cap is configured and exceeded (construction aborts as
        // soon as the cap is hit, so each retry wastes at most `cap` entries).
        let (columns, index_entries) = loop {
            match build_columns(g, sqrt_c, levels, prune, config.max_index_entries) {
                Some(built) => break built,
                None => prune *= 2.0,
            }
        };

        // Estimate D with a total of ⌈ln n/ε²⌉ walk pairs distributed by
        // PageRank (PRSim couples the D estimate to the index in the same
        // spirit; the allocation by global importance is the simplification).
        let pagerank = exactsim_graph::analysis::pagerank(
            g,
            exactsim_graph::analysis::PageRankConfig::default(),
        );
        let total_walks = {
            let raw = ((n.max(2) as f64).ln() / (config.epsilon * config.epsilon)).ceil();
            let raw = raw.min(9.0e18) as u64;
            config.walk_budget.map_or(raw, |b| raw.min(b))
        };
        let allocation: Vec<u64> = pagerank
            .iter()
            .map(|&p| ((total_walks as f64) * p).ceil() as u64)
            .collect();
        let diag = estimate_diagonal(
            g,
            &allocation,
            &DiagonalEstimator::Bernoulli,
            sqrt_c,
            0.0,
            config.simrank.seed ^ 0x9E37,
            config.simrank.threads,
        );

        Ok(PrSim {
            graph,
            config,
            levels,
            columns,
            diagonal: diag.values,
            preprocessing_walks: diag.walk_pairs,
            index_entries,
            pool: ScratchPool::new(n),
        })
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> &PrSimConfig {
        &self.config
    }

    /// Walk pairs simulated while estimating `D̂`.
    pub fn preprocessing_walks(&self) -> u64 {
        self.preprocessing_walks
    }

    /// Number of stored `(ℓ, k, j)` index entries.
    pub fn index_entries(&self) -> usize {
        self.index_entries
    }

    /// Approximate index size in bytes (Figure 4/8 accounting).
    pub fn index_bytes(&self) -> usize {
        self.index_entries * std::mem::size_of::<IndexEntry>()
            + self.diagonal.len() * std::mem::size_of::<f64>()
            + self
                .columns
                .iter()
                .map(|m| m.len() * (std::mem::size_of::<NodeId>() + std::mem::size_of::<usize>()))
                .sum::<usize>()
    }

    /// Answers a single-source query by combining the source's hop vectors
    /// with the indexed columns (eq. 7).
    pub fn query(&self, source: NodeId) -> Result<Vec<f64>, SimRankError> {
        let n = self.graph.num_nodes();
        if source as usize >= n {
            return Err(SimRankError::SourceOutOfRange {
                source,
                num_nodes: n,
            });
        }
        let sqrt_c = self.config.simrank.sqrt_decay();
        let stop = 1.0 - sqrt_c;
        // The source's own hop vectors are computed at query time with a finer
        // threshold than the index so the query-side truncation is negligible;
        // the pooled scratch makes repeated queries allocation-free here.
        let mut scratch = self.pool.checkout();
        sparse_hop_vectors_into(
            &self.graph,
            source,
            sqrt_c,
            self.levels,
            stop * self.config.epsilon * 0.1,
            &mut scratch.ws,
            &mut scratch.walk,
            &mut scratch.walk_tmp,
            &mut scratch.entries,
            &mut scratch.sparse_hops,
        );
        let source_hops = &scratch.sparse_hops;
        let mut scores = vec![0.0; n];
        let scale = 1.0 / (stop * stop);
        for (level, hop) in source_hops.hops.iter().enumerate() {
            let Some(column_map) = self.columns.get(level) else {
                break;
            };
            for (k, pi_ik) in hop.iter() {
                let weight = scale * pi_ik * self.diagonal[k as usize];
                if let Some(entries) = column_map.get(&k) {
                    for entry in entries {
                        scores[entry.j as usize] += weight * entry.value;
                    }
                }
            }
        }
        self.pool.give_back(scratch);
        scores[source as usize] = 1.0;
        Ok(scores)
    }
}

/// Computes, for every level, the inverted map `k → [(j, π^ℓ_j(k))]` by
/// running the pruned hop-vector computation from every node. Returns `None`
/// as soon as `entry_cap` would be exceeded (the caller then retries with a
/// coarser pruning threshold).
fn build_columns<G: NeighborAccess>(
    graph: &G,
    sqrt_c: f64,
    levels: usize,
    prune: f64,
    entry_cap: Option<usize>,
) -> Option<(Vec<ColumnMap>, usize)> {
    let n = graph.num_nodes();
    let mut columns: Vec<ColumnMap> = vec![std::collections::HashMap::new(); levels + 1];
    let mut workspace = Workspace::new(n);
    let mut total = 0usize;
    let cap = entry_cap.unwrap_or(usize::MAX);
    for j in 0..n as NodeId {
        let hops: crate::ppr::SparseHopVectors =
            sparse_hop_vectors(graph, j, sqrt_c, levels, prune, &mut workspace);
        for (level, hop) in hops.hops.iter().enumerate() {
            let column_map = &mut columns[level];
            for (k, value) in hop.iter() {
                column_map
                    .entry(k)
                    .or_default()
                    .push(IndexEntry { j, value });
                total += 1;
            }
        }
        if total > cap {
            return None;
        }
    }
    Some((columns, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::max_error;
    use crate::power_method::{PowerMethod, PowerMethodConfig};
    use exactsim_graph::generators::{barabasi_albert, complete, cycle};

    #[test]
    fn validates_configuration() {
        let g = complete(4);
        let bad = PrSimConfig {
            epsilon: 0.0,
            ..Default::default()
        };
        assert!(PrSim::build(&g, bad).is_err());
        let empty = exactsim_graph::GraphBuilder::new(0).build();
        assert!(PrSim::build(&empty, PrSimConfig::default()).is_err());
    }

    #[test]
    fn accurate_on_small_graphs() {
        let g = barabasi_albert(50, 2, true, 3).unwrap();
        let truth = PowerMethod::compute(&g, PowerMethodConfig::default()).unwrap();
        let index = PrSim::build(
            &g,
            PrSimConfig {
                epsilon: 5e-3,
                ..Default::default()
            },
        )
        .unwrap();
        for source in [0u32, 20] {
            let scores = index.query(source).unwrap();
            let err = max_error(&scores, &truth.single_source(source));
            assert!(err < 0.05, "source {source}: PRSim error {err}");
        }
    }

    #[test]
    fn smaller_epsilon_gives_smaller_error_and_bigger_index() {
        let g = barabasi_albert(60, 2, true, 7).unwrap();
        let truth = PowerMethod::compute(&g, PowerMethodConfig::default()).unwrap();
        let exact = truth.single_source(5);
        let coarse = PrSim::build(
            &g,
            PrSimConfig {
                epsilon: 0.2,
                ..Default::default()
            },
        )
        .unwrap();
        let fine = PrSim::build(
            &g,
            PrSimConfig {
                epsilon: 5e-3,
                ..Default::default()
            },
        )
        .unwrap();
        let coarse_err = max_error(&coarse.query(5).unwrap(), &exact);
        let fine_err = max_error(&fine.query(5).unwrap(), &exact);
        assert!(
            fine_err < coarse_err,
            "error should shrink: {coarse_err} -> {fine_err}"
        );
        assert!(fine.index_entries() > coarse.index_entries());
        assert!(fine.index_bytes() > coarse.index_bytes());
        assert!(fine.preprocessing_walks() > coarse.preprocessing_walks());
    }

    #[test]
    fn index_entry_cap_is_respected() {
        let g = barabasi_albert(80, 3, true, 9).unwrap();
        let capped = PrSim::build(
            &g,
            PrSimConfig {
                epsilon: 1e-3,
                max_index_entries: Some(2_000),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(capped.index_entries() <= 2_000);
        // Still produces sane results (just less accurate).
        let scores = capped.query(0).unwrap();
        assert!(scores.iter().all(|&s| (-0.1..=1.1).contains(&s)));
    }

    #[test]
    fn cycle_query_is_exact() {
        let g = cycle(8);
        let index = PrSim::build(&g, PrSimConfig::default()).unwrap();
        let scores = index.query(1).unwrap();
        assert_eq!(scores[1], 1.0);
        for (j, &s) in scores.iter().enumerate() {
            if j != 1 {
                assert!(s.abs() < 1e-9);
            }
        }
    }

    #[test]
    fn query_checks_source_range() {
        let g = complete(5);
        let index = PrSim::build(&g, PrSimConfig::default()).unwrap();
        assert!(index.query(5).is_err());
    }
}
