//! The reverse transition operator `P` and its transpose.
//!
//! With `P(i, j) = 1/din(j)` for `i ∈ I(j)` (edge `i → j` exists):
//!
//! * `(P·x)(i) = Σ_{j ∈ O(i)} x(j) / din(j)` — node `i` *receives* from every
//!   node `j` it points at, i.e. mass flows backwards along edges. Applying
//!   `√c·P` repeatedly to `e_i` yields the ℓ-hop walk distributions of the
//!   √c-walk started at `i` (up to the `(1-√c)` stop factor).
//! * `(Pᵀ·x)(i) = (1/din(i)) Σ_{j ∈ I(i)} x(j)` — averaging over in-neighbors,
//!   the accumulation step of the Linearization recurrence (eq. 6/9).
//!
//! Nodes with `din = 0` contribute nothing under `P` and receive nothing under
//! `Pᵀ`, matching the convention that a √c-walk stuck at such a node simply
//! stops (the paper's Algorithm 3 handles this case explicitly with
//! `D(k,k) = 1`).

use crate::access::NeighborAccess;
use crate::linalg::sparse_vec::SparseVec;
use crate::linalg::workspace::Workspace;
use crate::NodeId;

/// Dense `y ← P·x`. `x` and `y` must have length `n`; `y` is overwritten.
///
/// # Panics
/// Panics if `x` or `y` has length different from `graph.num_nodes()`.
pub fn p_multiply<G: NeighborAccess>(graph: &G, x: &[f64], y: &mut [f64]) {
    let n = graph.num_nodes();
    assert_eq!(x.len(), n, "input vector length must equal num_nodes");
    assert_eq!(y.len(), n, "output vector length must equal num_nodes");
    // (P·x)(i) = Σ_{j ∈ O(i)} x(j)/din(j). Precomputing x(j)/din(j) once per j
    // and gathering over out-neighbors keeps the inner loop to one multiply-add.
    // We instead scatter from each j to its in-neighbors, which touches each
    // edge exactly once and avoids recomputing 1/din(j) per edge.
    for v in y.iter_mut() {
        *v = 0.0;
    }
    let support = (0..n as NodeId).filter(|&j| x[j as usize] != 0.0);
    graph.for_each_in_neighbors(support, |j, neighbors| {
        if neighbors.is_empty() {
            return;
        }
        let share = x[j as usize] / neighbors.len() as f64;
        for &i in neighbors {
            y[i as usize] += share;
        }
    });
}

/// Dense `y ← Pᵀ·x`. `x` and `y` must have length `n`; `y` is overwritten.
///
/// # Panics
/// Panics if `x` or `y` has length different from `graph.num_nodes()`.
pub fn pt_multiply<G: NeighborAccess>(graph: &G, x: &[f64], y: &mut [f64]) {
    let n = graph.num_nodes();
    assert_eq!(x.len(), n, "input vector length must equal num_nodes");
    assert_eq!(y.len(), n, "output vector length must equal num_nodes");
    graph.for_each_in_neighbors(0..n as NodeId, |i, neighbors| {
        y[i as usize] = in_neighbor_mean(x, neighbors);
    });
}

/// `(Pᵀ·x)(i)` from `i`'s in-neighbor list: the mean of `x` over it, or
/// `0.0` for a node without in-neighbors.
#[inline]
fn in_neighbor_mean(x: &[f64], neighbors: &[NodeId]) -> f64 {
    if neighbors.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0;
    for &j in neighbors {
        acc += x[j as usize];
    }
    acc / neighbors.len() as f64
}

/// Sparse `P·x` using a reusable [`Workspace`]; returns a sorted [`SparseVec`].
///
/// Cost is `O(Σ_{j ∈ supp(x)} din(j))` for the scatter plus the sorted drain.
/// A scatter of fewer adds than the `n/64` bitmap words is narrow and
/// drains by sorting its `|out|` touched entries while they are few next to
/// the words, otherwise by one pass over the words, which is then
/// `O(|out|)`; a wider scatter skips the per-add bookkeeping and drains by
/// the pass, which its adds outnumber (see [`Workspace`]). Neither part
/// grows with `n` alone, which is what makes the sparse Linearization of
/// §3.2 scale.
pub fn p_multiply_sparse<G: NeighborAccess>(
    graph: &G,
    x: &SparseVec,
    ws: &mut Workspace,
) -> SparseVec {
    p_multiply_accumulate(graph, x.indices(), x.values(), ws);
    ws.drain_sparse()
}

/// Sparse `P·x` into a caller-owned output vector (cleared first): the
/// allocation-free variant the Scratch-based kernels use. `out` must be a
/// different vector from `x`.
pub fn p_multiply_sparse_into<G: NeighborAccess>(
    graph: &G,
    x: &SparseVec,
    ws: &mut Workspace,
    out: &mut SparseVec,
) {
    p_multiply_accumulate(graph, x.indices(), x.values(), ws);
    ws.drain_into(out);
}

/// Accumulates sparse `P·x` into `ws` without draining it, for an `x` given
/// as parallel `indices` (sorted ascending) and `values` slices — the form
/// in which an arena stores its vectors — and returns the number of adds,
/// `Σ din(j)` over `indices`. Drain `ws` afterwards with
/// [`Workspace::drain_into`] or [`Workspace::drain_append`].
///
/// Cost: the in-degrees first (no adjacency is read), then one add per
/// edge, narrow or wide by [`Workspace::scatters_wide`]; the drain that
/// follows is `O(n/64 + |out|)` after a wide scatter (see
/// [`p_multiply_sparse`]).
///
/// # Panics
/// Panics if `indices` and `values` differ in length.
pub fn p_multiply_accumulate<G: NeighborAccess>(
    graph: &G,
    indices: &[NodeId],
    values: &[f64],
    ws: &mut Workspace,
) -> u64 {
    assert_eq!(
        indices.len(),
        values.len(),
        "indices and values must be parallel"
    );
    let adds: u64 = indices.iter().map(|&j| graph.in_degree(j) as u64).sum();
    scatter_p(graph, indices, values, ws, ws.scatters_wide(adds));
    adds
}

/// The scatter of [`p_multiply_accumulate`], narrow or wide as `wide` says.
/// Each slot receives its shares in the same order either way: ascending
/// `j`, then `j`'s sorted in-row.
pub(crate) fn scatter_p<G: NeighborAccess>(
    graph: &G,
    indices: &[NodeId],
    values: &[f64],
    ws: &mut Workspace,
    wide: bool,
) {
    debug_assert_eq!(ws.len(), graph.num_nodes());
    let mut x = values.iter();
    graph.for_each_in_neighbors(indices.iter().copied(), |_, neighbors| {
        let xj = *x.next().expect("one value per index");
        if neighbors.is_empty() || xj == 0.0 {
            return;
        }
        let share = xj / neighbors.len() as f64;
        if wide {
            ws.add_wide(neighbors, share);
        } else {
            for &i in neighbors {
                ws.add(i, share);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DiGraph;
    use crate::linalg::dense::{l1_norm, unit_vector};
    use crate::linalg::workspace::bitmap_pairs;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// 0 -> 2, 1 -> 2, 2 -> 3, 3 -> 0 (same sample as digraph tests).
    fn sample() -> DiGraph {
        DiGraph::from_edges(4, &[(0, 2), (1, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn p_multiply_matches_manual_computation() {
        let g = sample();
        // Walk from node 2: in-neighbors of 2 are {0, 1}, so P·e_2 puts 1/2 on each.
        let e2 = unit_vector(4, 2);
        let mut y = vec![0.0; 4];
        p_multiply(&g, &e2, &mut y);
        assert!((y[0] - 0.5).abs() < 1e-15);
        assert!((y[1] - 0.5).abs() < 1e-15);
        assert_eq!(y[2], 0.0);
        assert_eq!(y[3], 0.0);
    }

    #[test]
    fn p_multiply_loses_mass_only_at_sources() {
        let g = sample();
        // Node 1 has no in-neighbors, so mass on node 1 disappears under P.
        let e1 = unit_vector(4, 1);
        let mut y = vec![0.0; 4];
        p_multiply(&g, &e1, &mut y);
        assert!(l1_norm(&y) < 1e-15);

        // A distribution avoiding node 1 is preserved.
        let x = vec![0.25, 0.0, 0.5, 0.25];
        p_multiply(&g, &x, &mut y);
        assert!((l1_norm(&y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pt_multiply_matches_manual_computation() {
        let g = sample();
        // (Pᵀ·x)(2) = (x(0) + x(1)) / 2
        let x = vec![1.0, 3.0, 5.0, 7.0];
        let mut y = vec![0.0; 4];
        pt_multiply(&g, &x, &mut y);
        assert!((y[2] - 2.0).abs() < 1e-15);
        // (Pᵀ·x)(0) = x(3)/1 = 7, (Pᵀ·x)(3) = x(2)/1 = 5, node 1 has din=0 → 0.
        assert!((y[0] - 7.0).abs() < 1e-15);
        assert!((y[3] - 5.0).abs() < 1e-15);
        assert_eq!(y[1], 0.0);
    }

    #[test]
    fn transpose_relationship_holds() {
        // <P·x, y> == <x, Pᵀ·y> for arbitrary vectors.
        let g = sample();
        let x = vec![0.3, 0.1, 0.4, 0.2];
        let y = vec![1.0, -2.0, 0.5, 3.0];
        let mut px = vec![0.0; 4];
        let mut pty = vec![0.0; 4];
        p_multiply(&g, &x, &mut px);
        pt_multiply(&g, &y, &mut pty);
        let lhs: f64 = px.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&pty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn sparse_kernels_agree_with_dense() {
        let g = sample();
        let mut ws = Workspace::new(4);
        for start in 0..4u32 {
            let dense = unit_vector(4, start);
            let sparse = SparseVec::unit(start, 1.0);

            let mut dense_out = vec![0.0; 4];
            p_multiply(&g, &dense, &mut dense_out);
            let sparse_out = p_multiply_sparse(&g, &sparse, &mut ws);
            assert_eq!(sparse_out.to_dense(4), dense_out, "P·e_{start}");
        }
    }

    #[test]
    fn workspace_is_reusable_without_leftover_state() {
        let g = sample();
        let mut ws = Workspace::new(4);
        let a = p_multiply_sparse(&g, &SparseVec::unit(2, 1.0), &mut ws);
        let b = p_multiply_sparse(&g, &SparseVec::unit(2, 1.0), &mut ws);
        assert_eq!(a, b);
        assert_eq!(ws.num_touched(), 0);
        for i in 0..4 {
            assert_eq!(ws.value(i), 0.0);
        }
    }

    #[test]
    fn workspace_accumulates_and_drains_sorted_including_cancellations() {
        let mut ws = Workspace::new(5);
        ws.add(3, 1.0);
        ws.add(1, 2.0);
        ws.add(3, -1.0); // cancels to exactly 0.0
        ws.add(4, 0.5);
        assert_eq!(ws.value(3), 0.0);
        assert_eq!(ws.value(1), 2.0);
        assert_eq!(ws.value(0), 0.0);
        let mut seen = Vec::new();
        ws.drain_sorted(|i, v| seen.push((i, v)));
        // Sorted order, cancelled entries included exactly once.
        assert_eq!(seen, vec![(1, 2.0), (3, 0.0), (4, 0.5)]);
        // After the drain the workspace is fresh.
        assert_eq!(ws.num_touched(), 0);
        assert_eq!(ws.value(1), 0.0);

        // drain_into drops exact zeros, like the SparseVec invariant requires.
        ws.add(2, 1.0);
        ws.add(0, -1.0);
        ws.add(0, 1.0);
        let mut out = SparseVec::unit(9, 9.0);
        ws.drain_into(&mut out);
        assert_eq!(out.indices(), &[2]);
        assert_eq!(out.values(), &[1.0]);
    }

    #[test]
    fn into_variants_match_the_allocating_kernels() {
        let g = sample();
        let mut ws = Workspace::new(4);
        let x = SparseVec::from_unsorted(vec![(2, 0.75), (0, 0.25)]);
        let a = p_multiply_sparse(&g, &x, &mut ws);
        let mut b = SparseVec::new();
        p_multiply_sparse_into(&g, &x, &mut ws, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn slice_accumulate_appends_behind_existing_entries() {
        let g = sample();
        let mut ws = Workspace::new(4);
        let x = SparseVec::from_unsorted(vec![(2, 0.75), (3, 0.25)]);
        let want = p_multiply_sparse(&g, &x, &mut ws);
        // An arena that already holds one vector gets the product appended.
        let (mut indices, mut values) = (vec![9], vec![9.0]);
        p_multiply_accumulate(&g, x.indices(), x.values(), &mut ws);
        ws.drain_append(&mut indices, &mut values);
        assert_eq!(indices[1..], *want.indices());
        assert_eq!(values[1..], *want.values());
        assert_eq!((indices[0], values[0]), (9, 9.0));
        assert_eq!(ws.num_touched(), 0);
    }

    /// Sparse vectors as `(index, value bits)` pairs.
    fn bits(indices: &[NodeId], values: &[f64]) -> Vec<(NodeId, u64)> {
        indices
            .iter()
            .zip(values)
            .map(|(&i, v)| (i, v.to_bits()))
            .collect()
    }

    #[test]
    fn wide_and_narrow_scatters_drain_to_the_same_bits() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0025);
        for n in [1usize, 7, 64, 300, 5_000] {
            // A multigraph: each drawn edge is stored one to three times, so
            // in-rows hold runs of duplicates; every fifth node has a
            // self-loop; node 0 has no in-edges.
            let mut edges = Vec::new();
            for _ in 0..3 * n {
                let (u, v) = (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId));
                if v != 0 {
                    edges.extend(std::iter::repeat_n((u, v), rng.gen_range(1..=3)));
                }
            }
            edges.extend((1..n as NodeId).step_by(5).map(|v| (v, v)));
            let graph = DiGraph::from_edges(n, &edges);
            let (mut narrow, mut wide, mut chosen) =
                (Workspace::new(n), Workspace::new(n), Workspace::new(n));
            // Scatters the default rule ran narrow and wide.
            let mut modes = [0usize; 2];
            for round in 0..60 {
                // Log-uniform support sizes, so both sides of the switch
                // come up at every size.
                let size = (n as f64).powf(rng.gen_range(0.0..1.0)) as usize;
                let mut support: Vec<NodeId> = (0..size.max(1))
                    .map(|_| rng.gen_range(0..n as NodeId))
                    .collect();
                support.sort_unstable();
                support.dedup();
                // Zero, negative and positive values; subnormal ones whose
                // shares underflow to ±0.0; and negated neighbours, whose
                // shares cancel where they meet.
                let mut values: Vec<f64> = Vec::with_capacity(support.len());
                for _ in 0..support.len() {
                    let v = match rng.gen_range(0u32..8) {
                        0 => 0.0,
                        1 => -f64::from_bits(rng.gen_range(1..4)),
                        2 => f64::from_bits(rng.gen_range(1..4)),
                        3 => -values.last().copied().unwrap_or(1.0),
                        _ => rng.gen_range(-2.0..2.0),
                    };
                    values.push(v);
                }
                let context = format!("n={n} round {round} ({} in support)", support.len());

                let adds = p_multiply_accumulate(&graph, &support, &values, &mut chosen);
                let want_adds: usize = support.iter().map(|&j| graph.in_degree(j)).sum();
                assert_eq!(adds, want_adds as u64, "{context}");
                modes[usize::from(chosen.scatters_wide(adds))] += 1;
                scatter_p(&graph, &support, &values, &mut narrow, false);
                scatter_p(&graph, &support, &values, &mut wide, true);

                // Every drain that drops exact zeros, by turns; the narrow
                // workspace's `drain_append` is the reference.
                let mut outs = Vec::new();
                for (k, ws) in [&mut narrow, &mut wide, &mut chosen]
                    .into_iter()
                    .enumerate()
                {
                    let (mut out_indices, mut out_values) = (Vec::new(), Vec::new());
                    match if k == 0 { 0 } else { round % 3 } {
                        0 => ws.drain_append(&mut out_indices, &mut out_values),
                        1 => {
                            let mut out = SparseVec::unit(0, 1.0);
                            ws.drain_into(&mut out);
                            out_indices.extend_from_slice(out.indices());
                            out_values.extend_from_slice(out.values());
                        }
                        _ => {
                            let mut words = Vec::new();
                            ws.drain_bitmap(&mut words, &mut out_values);
                            assert_eq!(words.len(), n.div_ceil(64), "{context}");
                            let pairs = bitmap_pairs(&words, &out_values);
                            out_indices = pairs.iter().map(|&(i, _)| i).collect();
                        }
                    }
                    outs.push(bits(&out_indices, &out_values));
                    assert_eq!(ws.num_touched(), 0, "{context}: bitmap not cleared");
                    for i in 0..n as NodeId {
                        assert_eq!(ws.value(i).to_bits(), 0, "{context}: slot {i} not +0.0");
                    }
                }
                assert_eq!(outs[1], outs[0], "{context}: wide vs narrow");
                assert_eq!(outs[2], outs[0], "{context}: default rule vs narrow");
            }
            if n >= 300 {
                assert!(modes[0] > 0 && modes[1] > 0, "n={n}: narrow/wide {modes:?}");
            }
        }
    }

    #[test]
    fn multi_step_walk_distribution_sums_correctly() {
        // On the cycle part of the sample graph mass circulates forever.
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let mut x = unit_vector(3, 0);
        let mut y = vec![0.0; 3];
        for _ in 0..10 {
            p_multiply(&g, &x, &mut y);
            std::mem::swap(&mut x, &mut y);
            assert!((l1_norm(&x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "num_nodes")]
    fn dense_kernel_checks_lengths() {
        let g = sample();
        let x = vec![0.0; 3];
        let mut y = vec![0.0; 4];
        p_multiply(&g, &x, &mut y);
    }
}
