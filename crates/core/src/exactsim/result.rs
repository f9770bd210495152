//! Result and statistics types for ExactSim queries.

/// The outcome of one ExactSim single-source query.
#[derive(Clone, Debug)]
pub struct ExactSimResult {
    /// `scores[j]` estimates `S(j, source)`; `scores[source] ≈ 1`.
    pub scores: Vec<f64>,
    /// Cost and accuracy diagnostics for the query.
    pub stats: ExactSimStats,
}

impl ExactSimResult {
    /// Peak auxiliary memory of the query in bytes (the paper's Table 3
    /// metric) — hop vectors *including the aggregate PPR vector*, the
    /// diagonal estimate, the per-node walk allocation, and both dense
    /// accumulators of the recurrence. Capacity retained in pooled `Scratch`
    /// workspaces between queries is intentionally excluded (it is pool
    /// state, not per-query cost — see the accounting note in the solver
    /// module). Surfaced here so benchmark memory columns read it through
    /// one audited accessor instead of recomputing.
    pub fn memory_bytes(&self) -> usize {
        self.stats.aux_memory_bytes
    }
}

/// Per-query cost diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExactSimStats {
    /// Number of Linearization iterations `L` used.
    pub levels: usize,
    /// The total sample count `Σ_k R(k)` the theory requested (before any
    /// walk-budget capping).
    pub requested_walk_pairs: u64,
    /// The total sample count after budget capping — what the variance
    /// analysis is actually entitled to.
    pub total_walk_pairs: u64,
    /// Walk pairs that were actually simulated; smaller than
    /// `total_walk_pairs` when the deterministic exploration (Algorithm 3)
    /// made tail sampling unnecessary.
    pub simulated_walk_pairs: u64,
    /// Edge traversals spent on the deterministic exploration of `D`.
    pub explore_edges: u64,
    /// Nodes whose tail sampling was skipped entirely.
    pub tails_skipped: usize,
    /// Peak auxiliary memory in bytes — the quantity reported in the paper's
    /// Table 3. Audited to cover hop vectors (with their aggregate), the
    /// diagonal estimate, the `R(k)` allocation vector, and the two dense
    /// recurrence accumulators; see `ExactSimResult::memory_bytes`. The
    /// Algorithm 3 walk-distribution arena is not counted: a pooled scratch
    /// retains one query's arena between queries, which is pool state.
    pub aux_memory_bytes: usize,
    /// `‖π_i‖²` of the source's Personalized PageRank vector (drives the
    /// Lemma 3 speed-up).
    pub ppr_norm_sq: f64,
    /// Total non-zero entries stored across all hop vectors (dense variants
    /// count `(L+1)·n`).
    pub hop_nnz: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_default_is_zeroed() {
        let stats = ExactSimStats::default();
        assert_eq!(stats.levels, 0);
        assert_eq!(stats.total_walk_pairs, 0);
        assert_eq!(stats.aux_memory_bytes, 0);
    }

    #[test]
    fn result_is_cloneable_and_debuggable() {
        let r = ExactSimResult {
            scores: vec![1.0, 0.5],
            stats: ExactSimStats {
                levels: 3,
                ..Default::default()
            },
        };
        let r2 = r.clone();
        assert_eq!(r2.scores, vec![1.0, 0.5]);
        assert!(format!("{r2:?}").contains("levels: 3"));
    }
}
