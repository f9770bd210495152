//! ℓ-hop Personalized PageRank vectors.
//!
//! The paper works with the vectors `π^ℓ_i = (1 − √c)·(√c·P)^ℓ·e_i`
//! (Table 1): `π^ℓ_i(k)` is the probability that a √c-walk from `v_i` stops at
//! `v_k` after exactly `ℓ` steps, and `π_i = Σ_ℓ π^ℓ_i` is the (√c-decayed)
//! Personalized PageRank vector of `v_i`. ExactSim's Algorithm 1 computes
//! these vectors for `ℓ = 0..L`; the sparse-Linearization optimisation (§3.2)
//! stores them pruned at `(1 − √c)²·ε`, which bounds their total size by
//! `O(1/ε)` independent of the graph size (Lemma 2).
//!
//! Note that mass can *leak*: a walk that reaches a node with no in-neighbors
//! stops there prematurely, so `Σ_ℓ ‖π^ℓ_i‖₁ ≤ 1` with equality only when no
//! walk from `v_i` can get stuck.

use exactsim_graph::linalg::{p_multiply, p_multiply_sparse_into, SparseVec, Workspace};
use exactsim_graph::{NeighborAccess, NodeId};

/// The ℓ-hop Personalized PageRank vectors of one source node, in dense form.
#[derive(Clone, Debug, Default)]
pub struct DenseHopVectors {
    /// `hops[ℓ]` is the dense vector `π^ℓ_i` (length `n`).
    pub hops: Vec<Vec<f64>>,
    /// The aggregated vector `π_i = Σ_ℓ π^ℓ_i`.
    pub aggregate: Vec<f64>,
}

impl DenseHopVectors {
    /// Number of levels stored (`L + 1`, including level 0).
    pub fn num_levels(&self) -> usize {
        self.hops.len()
    }

    /// `‖π_i‖²`, the quantity that drives the Lemma 3 sampling optimisation.
    pub fn aggregate_l2_norm_sq(&self) -> f64 {
        self.aggregate.iter().map(|v| v * v).sum()
    }

    /// Approximate heap footprint in bytes (Table 3 accounting).
    pub fn memory_bytes(&self) -> usize {
        let per_vec = |v: &Vec<f64>| v.len() * std::mem::size_of::<f64>();
        self.hops.iter().map(per_vec).sum::<usize>() + per_vec(&self.aggregate)
    }
}

/// Computes `π^ℓ_i` for `ℓ = 0..=levels` densely (Algorithm 1, lines 2–5).
pub fn dense_hop_vectors<G: NeighborAccess>(
    graph: &G,
    source: NodeId,
    sqrt_c: f64,
    levels: usize,
) -> DenseHopVectors {
    let mut out = DenseHopVectors::default();
    let mut walk = Vec::new();
    let mut tmp = Vec::new();
    dense_hop_vectors_into(graph, source, sqrt_c, levels, &mut walk, &mut tmp, &mut out);
    out
}

/// [`dense_hop_vectors`] into caller-owned storage: `out`'s per-level vectors
/// and the two dense walk buffers are reused across calls.
pub fn dense_hop_vectors_into<G: NeighborAccess>(
    graph: &G,
    source: NodeId,
    sqrt_c: f64,
    levels: usize,
    walk: &mut Vec<f64>,
    tmp: &mut Vec<f64>,
    out: &mut DenseHopVectors,
) {
    let n = graph.num_nodes();
    let stop = 1.0 - sqrt_c;
    out.hops.truncate(levels + 1);
    while out.hops.len() < levels + 1 {
        out.hops.push(Vec::new());
    }
    out.aggregate.clear();
    out.aggregate.resize(n, 0.0);

    // `walk` holds (√c·P)^ℓ · e_i  (the *surviving* walk distribution).
    walk.clear();
    walk.resize(n, 0.0);
    walk[source as usize] = 1.0;
    tmp.clear();
    tmp.resize(n, 0.0);

    for level in 0..=levels {
        let hop = &mut out.hops[level];
        hop.clear();
        hop.extend(walk.iter().map(|&v| v * stop));
        for (agg, h) in out.aggregate.iter_mut().zip(hop.iter()) {
            *agg += h;
        }
        if level == levels {
            break;
        }
        // Advance: walk ← √c · P · walk.
        p_multiply(graph, walk, tmp);
        for v in tmp.iter_mut() {
            *v *= sqrt_c;
        }
        std::mem::swap(walk, tmp);
    }
}

/// The ℓ-hop Personalized PageRank vectors of one source node, in sparse form
/// with pruning — the data structure of the *sparse Linearization* (§3.2).
#[derive(Clone, Debug, Default)]
pub struct SparseHopVectors {
    /// `hops[ℓ]` is the pruned sparse vector `π^ℓ_i`.
    pub hops: Vec<SparseVec>,
    /// The aggregated (pruned) vector `π_i = Σ_ℓ π^ℓ_i`.
    pub aggregate: SparseVec,
    /// Total *surviving-walk* probability mass dropped by pruning across all
    /// levels. Dropped walk mass can never reappear, so the L1 deviation of
    /// the stored hop vectors from their unpruned counterparts is bounded by
    /// this value. (Lemma 2 of the paper converts the pruning threshold into
    /// an additive error of ε on the final SimRank result; this field tracks
    /// the actually dropped mass for diagnostics, which is usually far
    /// smaller.)
    pub pruned_mass: f64,
}

impl SparseHopVectors {
    /// Number of levels stored (`L + 1`, including level 0).
    pub fn num_levels(&self) -> usize {
        self.hops.len()
    }

    /// Total number of stored non-zeros over all levels.
    pub fn total_nnz(&self) -> usize {
        self.hops.iter().map(SparseVec::nnz).sum()
    }

    /// `‖π_i‖²` over the stored (pruned) aggregate vector.
    pub fn aggregate_l2_norm_sq(&self) -> f64 {
        self.aggregate.l2_norm_sq()
    }

    /// Approximate heap footprint in bytes (Table 3 accounting).
    pub fn memory_bytes(&self) -> usize {
        self.hops.iter().map(SparseVec::memory_bytes).sum::<usize>() + self.aggregate.memory_bytes()
    }
}

/// Computes pruned sparse ℓ-hop vectors: every entry of every `π^ℓ_i` below
/// `threshold` is dropped right after it is produced, so intermediate vectors
/// never grow beyond `O(1/threshold)` entries.
pub fn sparse_hop_vectors<G: NeighborAccess>(
    graph: &G,
    source: NodeId,
    sqrt_c: f64,
    levels: usize,
    threshold: f64,
    workspace: &mut Workspace,
) -> SparseHopVectors {
    let mut out = SparseHopVectors::default();
    let mut walk = SparseVec::new();
    let mut walk_tmp = SparseVec::new();
    let mut entries = Vec::new();
    sparse_hop_vectors_into(
        graph,
        source,
        sqrt_c,
        levels,
        threshold,
        workspace,
        &mut walk,
        &mut walk_tmp,
        &mut entries,
        &mut out,
    );
    out
}

/// [`sparse_hop_vectors`] into caller-owned storage: the per-level vectors of
/// `out`, the two ping-pong walk buffers, and the aggregate entry buffer are
/// all reused across calls, so a steady-state query allocates nothing here.
#[allow(clippy::too_many_arguments)]
pub fn sparse_hop_vectors_into<G: NeighborAccess>(
    graph: &G,
    source: NodeId,
    sqrt_c: f64,
    levels: usize,
    threshold: f64,
    workspace: &mut Workspace,
    walk: &mut SparseVec,
    walk_tmp: &mut SparseVec,
    entries: &mut Vec<(NodeId, f64)>,
    out: &mut SparseHopVectors,
) {
    let stop = 1.0 - sqrt_c;
    out.hops.truncate(levels + 1);
    while out.hops.len() < levels + 1 {
        out.hops.push(SparseVec::new());
    }
    out.pruned_mass = 0.0;

    // Surviving walk distribution (√c·P)^ℓ·e_i, kept sparse. Pruning is done
    // on the *hop* scale (entries of π^ℓ = stop · walk_dist), so the walk
    // distribution is pruned at threshold / stop.
    let walk_threshold = if stop > 0.0 {
        threshold / stop
    } else {
        threshold
    };
    walk.clear();
    walk.push_sorted(source, 1.0);
    entries.clear();

    for level in 0..=levels {
        let hop = &mut out.hops[level];
        hop.assign_scaled(walk, stop);
        for (k, v) in hop.iter() {
            entries.push((k, v));
        }
        if level == levels {
            break;
        }
        p_multiply_sparse_into(graph, walk, workspace, walk_tmp);
        walk_tmp.scale(sqrt_c);
        out.pruned_mass += walk_tmp.prune(walk_threshold);
        std::mem::swap(walk, walk_tmp);
        if walk.is_empty() {
            // All remaining mass leaked or was pruned; later levels are zero.
            for later in out.hops.iter_mut().skip(level + 1) {
                later.clear();
            }
            break;
        }
    }
    out.aggregate.rebuild_from_unsorted(entries);
}

#[cfg(test)]
mod tests {
    use super::*;
    use exactsim_graph::generators::{barabasi_albert, cycle, star};

    const SQRT_C: f64 = 0.774_596_669_241_483_4; // sqrt(0.6)

    #[test]
    fn level_zero_is_the_scaled_unit_vector() {
        let g = cycle(5);
        let hv = dense_hop_vectors(&g, 2, SQRT_C, 3);
        assert!((hv.hops[0][2] - (1.0 - SQRT_C)).abs() < 1e-12);
        assert!(hv.hops[0].iter().sum::<f64>() - (1.0 - SQRT_C) < 1e-12);
    }

    #[test]
    fn hop_masses_decay_geometrically_on_a_cycle() {
        // On a cycle no walk ever gets stuck, so ‖π^ℓ‖₁ = (1-√c)·(√c)^ℓ exactly.
        let g = cycle(7);
        let hv = dense_hop_vectors(&g, 0, SQRT_C, 10);
        for (level, hop) in hv.hops.iter().enumerate() {
            let mass: f64 = hop.iter().sum();
            let expected = (1.0 - SQRT_C) * SQRT_C.powi(level as i32);
            assert!(
                (mass - expected).abs() < 1e-12,
                "level {level}: mass {mass} vs {expected}"
            );
        }
    }

    #[test]
    fn aggregate_sums_levels_and_total_mass_at_most_one() {
        let g = barabasi_albert(200, 3, true, 5).unwrap();
        let hv = dense_hop_vectors(&g, 10, SQRT_C, 30);
        let total: f64 = hv.aggregate.iter().sum();
        assert!(total <= 1.0 + 1e-9, "aggregate mass {total} exceeds 1");
        assert!(total > 0.5, "aggregate mass {total} suspiciously small");
        // Aggregate equals the element-wise sum of the hop vectors.
        let n = g.num_nodes();
        for k in 0..n {
            let summed: f64 = hv.hops.iter().map(|h| h[k]).sum();
            assert!((summed - hv.aggregate[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn walks_from_a_source_node_stop_immediately() {
        // Leaves of the directed star have no in-neighbors: all mass stays at
        // level 0 and every later level is zero.
        let g = star(6, false);
        let hv = dense_hop_vectors(&g, 3, SQRT_C, 5);
        assert!((hv.hops[0][3] - (1.0 - SQRT_C)).abs() < 1e-12);
        for level in 1..=5 {
            assert!(hv.hops[level].iter().all(|&v| v == 0.0));
        }
        // Mass 1 - √c of the walk survives step 0 but leaks (the walk is
        // stuck), so the aggregate only holds the level-0 mass.
        let total: f64 = hv.aggregate.iter().sum();
        assert!((total - (1.0 - SQRT_C)).abs() < 1e-12);
    }

    #[test]
    fn sparse_without_pruning_matches_dense() {
        let g = barabasi_albert(150, 3, false, 8).unwrap();
        let mut ws = Workspace::new(g.num_nodes());
        for source in [0u32, 7, 149] {
            let dense = dense_hop_vectors(&g, source, SQRT_C, 12);
            let sparse = sparse_hop_vectors(&g, source, SQRT_C, 12, 0.0, &mut ws);
            assert_eq!(sparse.pruned_mass, 0.0);
            for level in 0..=12 {
                let expanded = sparse.hops[level].to_dense(g.num_nodes());
                for (k, (&a, &b)) in expanded.iter().zip(dense.hops[level].iter()).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-12,
                        "source {source} level {level} node {k}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_bounds_nnz_and_tracks_dropped_mass() {
        let g = barabasi_albert(400, 3, true, 4).unwrap();
        let mut ws = Workspace::new(g.num_nodes());
        let threshold = 1e-3;
        let sparse = sparse_hop_vectors(&g, 0, SQRT_C, 20, threshold, &mut ws);
        let unpruned = sparse_hop_vectors(&g, 0, SQRT_C, 20, 0.0, &mut ws);
        assert!(sparse.total_nnz() < unpruned.total_nnz());
        assert!(sparse.pruned_mass >= 0.0);
        // The dropped surviving-walk mass can never exceed the total walk mass.
        assert!(sparse.pruned_mass <= 1.0);
        // Pigeonhole bound from Lemma 2: each stored hop entry is > threshold
        // only after the stop-factor scaling, and their total mass is ≤ 1.
        assert!(
            (sparse.total_nnz() as f64) <= 1.0 / threshold + (20 + 1) as f64,
            "nnz {} exceeds the pigeonhole bound",
            sparse.total_nnz()
        );
    }

    #[test]
    fn pruning_only_removes_mass_and_the_loss_is_accounted_for() {
        let g = barabasi_albert(300, 2, false, 13).unwrap();
        let mut ws = Workspace::new(g.num_nodes());
        let threshold = 1e-4;
        let levels = 15;
        let dense = dense_hop_vectors(&g, 5, SQRT_C, levels);
        let sparse = sparse_hop_vectors(&g, 5, SQRT_C, levels, threshold, &mut ws);
        let sparse_agg = sparse.aggregate.to_dense(g.num_nodes());
        // Pruning never adds mass anywhere.
        for (k, (s, d)) in sparse_agg.iter().zip(&dense.aggregate).enumerate() {
            assert!(s <= &(d + 1e-12), "node {k}: sparse {s} exceeds dense {d}");
        }
        // The total mass lost by the aggregate is bounded by the dropped
        // surviving-walk mass (each dropped walk unit contributes at most one
        // unit of hop mass over its remaining lifetime).
        let dense_total: f64 = dense.aggregate.iter().sum();
        let sparse_total: f64 = sparse_agg.iter().sum();
        assert!(dense_total - sparse_total <= sparse.pruned_mass + 1e-12);
        assert!(sparse.pruned_mass <= 1.0);
    }

    #[test]
    fn memory_accounting_is_consistent() {
        let g = cycle(50);
        let dense = dense_hop_vectors(&g, 0, SQRT_C, 5);
        assert_eq!(
            dense.memory_bytes(),
            (5 + 1 + 1) * 50 * std::mem::size_of::<f64>()
        );
        let mut ws = Workspace::new(50);
        let sparse = sparse_hop_vectors(&g, 0, SQRT_C, 5, 0.0, &mut ws);
        assert!(sparse.memory_bytes() < dense.memory_bytes());
    }

    #[test]
    fn norm_squared_matches_between_representations() {
        let g = barabasi_albert(120, 2, true, 21).unwrap();
        let mut ws = Workspace::new(g.num_nodes());
        let dense = dense_hop_vectors(&g, 3, SQRT_C, 15);
        let sparse = sparse_hop_vectors(&g, 3, SQRT_C, 15, 0.0, &mut ws);
        assert!((dense.aggregate_l2_norm_sq() - sparse.aggregate_l2_norm_sq()).abs() < 1e-10);
    }
}
