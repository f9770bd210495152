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

/// Reusable dense scratch space for the sparse kernels: the epoch-stamped
/// sparse accumulator every Scratch-based kernel in this workspace builds on.
///
/// The sparse kernels accumulate into a dense `f64` buffer plus a "touched"
/// list (the classic sparse-accumulator pattern), so a sequence of
/// sparse-matrix × sparse-vector products performs no per-call allocation
/// beyond the output vector. Slots are *epoch-stamped* rather than zeroed on
/// drain: a slot belongs to the current accumulation iff its stamp equals the
/// current epoch, so resetting the workspace is `O(touched)` regardless of
/// `n`, and a value that cancels to exactly `0.0` cannot re-enter the touched
/// list twice.
///
/// Draining always visits the touched indices in **sorted order** — that is
/// the determinism contract: float accumulations performed through a
/// workspace reduce in ascending-index order, exactly like the `BTreeMap`
/// accumulators these workspaces replaced, so results are bit-identical
/// between the two representations.
#[derive(Clone, Debug)]
pub struct Workspace {
    accum: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
    touched: Vec<NodeId>,
}

impl Workspace {
    /// Creates a workspace for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        Workspace {
            accum: vec![0.0; n],
            stamp: vec![0; n],
            epoch: 1,
            touched: Vec::new(),
        }
    }

    /// Number of nodes this workspace supports.
    pub fn len(&self) -> usize {
        self.accum.len()
    }

    /// `true` iff the workspace covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.accum.is_empty()
    }

    /// Number of distinct indices touched since the last drain/reset.
    pub fn num_touched(&self) -> usize {
        self.touched.len()
    }

    /// Adds `v` into slot `i`. The first touch of a slot in the current
    /// epoch *assigns* (it does not read the stale value), so no zeroing pass
    /// is ever needed.
    #[inline]
    pub fn add(&mut self, i: NodeId, v: f64) {
        let idx = i as usize;
        if self.stamp[idx] == self.epoch {
            self.accum[idx] += v;
        } else {
            self.stamp[idx] = self.epoch;
            self.accum[idx] = v;
            self.touched.push(i);
        }
    }

    /// Current value of slot `i` (`0.0` if untouched this epoch).
    pub fn value(&self, i: NodeId) -> f64 {
        let idx = i as usize;
        if self.stamp[idx] == self.epoch {
            self.accum[idx]
        } else {
            0.0
        }
    }

    /// Discards any accumulated entries and starts a fresh epoch.
    pub fn reset(&mut self) {
        self.touched.clear();
        if self.epoch == u32::MAX {
            // Stamp wrap-around: invalidate everything explicitly once every
            // ~4 billion epochs instead of letting stale stamps collide.
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Visits every touched `(index, value)` pair in ascending index order —
    /// including entries that cancelled to `0.0` — then resets the workspace.
    /// This is the primitive the deterministic kernels reduce through.
    pub fn drain_sorted(&mut self, mut f: impl FnMut(NodeId, f64)) {
        self.touched.sort_unstable();
        for idx in 0..self.touched.len() {
            let i = self.touched[idx];
            f(i, self.accum[i as usize]);
        }
        self.reset();
    }

    /// Drains the accumulated entries into `out` (cleared first) in sorted
    /// index order and resets the workspace for reuse. Entries that cancelled
    /// to exactly 0.0 are kept out of the result.
    pub fn drain_into(&mut self, out: &mut SparseVec) {
        out.clear();
        self.touched.sort_unstable();
        for idx in 0..self.touched.len() {
            let i = self.touched[idx];
            let v = self.accum[i as usize];
            if v != 0.0 {
                out.push_sorted(i, v);
            }
        }
        self.reset();
    }

    /// Appends the accumulated entries to the parallel `indices`/`values`
    /// arrays in sorted index order — without clearing them — and resets
    /// the workspace. Like [`Workspace::drain_into`], entries that cancelled
    /// to exactly 0.0 are left out. This is how an arena of many sparse
    /// vectors grows one vector at a time.
    pub fn drain_append(&mut self, indices: &mut Vec<NodeId>, values: &mut Vec<f64>) {
        self.touched.sort_unstable();
        for &i in &self.touched {
            let v = self.accum[i as usize];
            if v != 0.0 {
                indices.push(i);
                values.push(v);
            }
        }
        self.reset();
    }

    /// Drains the accumulated entries into a freshly allocated sorted
    /// [`SparseVec`] and resets the workspace for reuse.
    fn drain_sparse(&mut self) -> SparseVec {
        let mut out = SparseVec::with_capacity(self.touched.len());
        self.drain_into(&mut out);
        out
    }
}

/// Sparse `P·x` using a reusable [`Workspace`]; returns a sorted [`SparseVec`].
///
/// Cost is `O(Σ_{j ∈ supp(x)} din(j) + |out| log |out|)` — independent of `n`,
/// which is what makes the sparse Linearization of §3.2 scale.
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
/// in which an arena stores its vectors. Drain `ws` afterwards with
/// [`Workspace::drain_into`] or [`Workspace::drain_append`].
///
/// # Panics
/// Panics if `indices` and `values` differ in length.
pub fn p_multiply_accumulate<G: NeighborAccess>(
    graph: &G,
    indices: &[NodeId],
    values: &[f64],
    ws: &mut Workspace,
) {
    assert_eq!(
        indices.len(),
        values.len(),
        "indices and values must be parallel"
    );
    debug_assert_eq!(ws.len(), graph.num_nodes());
    let mut x = values.iter();
    graph.for_each_in_neighbors(indices.iter().copied(), |_, neighbors| {
        let xj = *x.next().expect("one value per index");
        if neighbors.is_empty() || xj == 0.0 {
            return;
        }
        let share = xj / neighbors.len() as f64;
        for &i in neighbors {
            ws.add(i, share);
        }
    });
}

/// Sparse `Pᵀ·x` using a reusable [`Workspace`]; returns a sorted [`SparseVec`].
///
/// For every node `j` in the support of `x`, its contribution `x(j)` is spread
/// to each out-neighbor `i` of `j` with weight `1/din(i)`.
pub fn pt_multiply_sparse<G: NeighborAccess>(
    graph: &G,
    x: &SparseVec,
    ws: &mut Workspace,
) -> SparseVec {
    accumulate_pt_multiply(graph, x, ws);
    ws.drain_sparse()
}

/// Sparse `Pᵀ·x` into a caller-owned output vector (cleared first). `out`
/// must be a different vector from `x`.
pub fn pt_multiply_sparse_into<G: NeighborAccess>(
    graph: &G,
    x: &SparseVec,
    ws: &mut Workspace,
    out: &mut SparseVec,
) {
    accumulate_pt_multiply(graph, x, ws);
    ws.drain_into(out);
}

fn accumulate_pt_multiply<G: NeighborAccess>(graph: &G, x: &SparseVec, ws: &mut Workspace) {
    debug_assert_eq!(ws.len(), graph.num_nodes());
    let mut values = x.values().iter();
    graph.for_each_out_neighbors(x.indices().iter().copied(), |_, neighbors| {
        let xj = *values.next().expect("one value per index");
        if xj == 0.0 {
            return;
        }
        for &i in neighbors {
            let din = graph.in_degree(i);
            debug_assert!(din > 0, "out-neighbor must have at least one in-edge");
            ws.add(i, xj / din as f64);
        }
    });
}

/// Dense `P·x` restricted to the output rows `rows`, in *gather* form:
/// `out[i - rows.start] = Σ_{j ∈ O(i)} x(j)/din(j)`.
///
/// Because out-neighbor lists are sorted ascending, each output slot
/// accumulates its terms in exactly the same ascending-`j` order as the
/// scatter-form [`p_multiply`] — so a row-sharded parallel multiply built on
/// this kernel is bit-identical to the sequential one for any shard split.
///
/// # Panics
/// Panics if `x` is not `num_nodes` long, `rows` is out of range, or `out`
/// does not have exactly `rows.len()` elements.
pub fn p_multiply_rows<G: NeighborAccess>(
    graph: &G,
    x: &[f64],
    rows: std::ops::Range<usize>,
    out: &mut [f64],
) {
    let n = graph.num_nodes();
    assert_eq!(x.len(), n, "input vector length must equal num_nodes");
    assert!(rows.end <= n, "row range out of bounds");
    assert_eq!(
        out.len(),
        rows.len(),
        "output slice must match the row range"
    );
    let mut slots = out.iter_mut();
    graph.for_each_out_neighbors(rows.start as NodeId..rows.end as NodeId, |_, neighbors| {
        let mut acc = 0.0;
        for &j in neighbors {
            let xj = x[j as usize];
            if xj == 0.0 {
                continue;
            }
            // j ∈ O(i) implies din(j) ≥ 1 (the edge i → j ends at j).
            acc += xj / graph.in_degree(j) as f64;
        }
        *slots.next().expect("one output slot per row") = acc;
    });
}

/// Dense `Pᵀ·x` restricted to the output rows `rows` — the per-row loop of
/// [`pt_multiply`], exposed so callers can shard the output deterministically
/// across threads.
///
/// # Panics
/// Panics if `x` is not `num_nodes` long, `rows` is out of range, or `out`
/// does not have exactly `rows.len()` elements.
pub fn pt_multiply_rows<G: NeighborAccess>(
    graph: &G,
    x: &[f64],
    rows: std::ops::Range<usize>,
    out: &mut [f64],
) {
    let n = graph.num_nodes();
    assert_eq!(x.len(), n, "input vector length must equal num_nodes");
    assert!(rows.end <= n, "row range out of bounds");
    assert_eq!(
        out.len(),
        rows.len(),
        "output slice must match the row range"
    );
    let mut slots = out.iter_mut();
    graph.for_each_in_neighbors(rows.start as NodeId..rows.end as NodeId, |_, neighbors| {
        *slots.next().expect("one output slot per row") = in_neighbor_mean(x, neighbors);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DiGraph;
    use crate::linalg::dense::{l1_norm, unit_vector};

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

            let mut dense_out_t = vec![0.0; 4];
            pt_multiply(&g, &dense, &mut dense_out_t);
            let sparse_out_t = pt_multiply_sparse(&g, &sparse, &mut ws);
            assert_eq!(sparse_out_t.to_dense(4), dense_out_t, "Pᵀ·e_{start}");
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
        let c = pt_multiply_sparse(&g, &x, &mut ws);
        let mut d = SparseVec::new();
        pt_multiply_sparse_into(&g, &x, &mut ws, &mut d);
        assert_eq!(c, d);
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

    #[test]
    fn row_kernels_are_bit_identical_to_the_full_dense_kernels() {
        let g = sample();
        let x = vec![0.3, 0.1, 0.4, 0.2];
        let mut full = vec![0.0; 4];
        p_multiply(&g, &x, &mut full);
        // Any shard split reproduces the full result exactly.
        for split in 0..=4usize {
            let mut sharded = vec![9.0; 4];
            let (lo, hi) = sharded.split_at_mut(split);
            p_multiply_rows(&g, &x, 0..split, lo);
            p_multiply_rows(&g, &x, split..4, hi);
            assert_eq!(sharded, full, "split at {split}");
        }
        let mut full_t = vec![0.0; 4];
        pt_multiply(&g, &x, &mut full_t);
        for split in 0..=4usize {
            let mut sharded = vec![9.0; 4];
            let (lo, hi) = sharded.split_at_mut(split);
            pt_multiply_rows(&g, &x, 0..split, lo);
            pt_multiply_rows(&g, &x, split..4, hi);
            assert_eq!(sharded, full_t, "split at {split}");
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
