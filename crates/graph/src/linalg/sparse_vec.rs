//! A sparse vector over node ids.

use crate::NodeId;

/// A sparse vector `x ∈ ℝⁿ` stored as parallel `(index, value)` arrays.
///
/// This is the representation used for the ℓ-hop Personalized PageRank vectors
/// `π^ℓ_i` in ExactSim's *sparse Linearization* (§3.2 of the paper, Lemma 2):
/// after pruning entries below `(1-√c)²·ε`, each vector has at most
/// `1/((1-√c)²·ε)` entries regardless of the graph size.
///
/// Entries are kept sorted by index with no duplicates and (by convention) no
/// explicit zeros; [`SparseVec::from_unsorted`] and the mutating operations
/// maintain this invariant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseVec {
    indices: Vec<NodeId>,
    values: Vec<f64>,
}

impl SparseVec {
    /// The empty sparse vector.
    pub fn new() -> Self {
        SparseVec::default()
    }

    /// An empty sparse vector with reserved capacity for `cap` non-zeros.
    pub fn with_capacity(cap: usize) -> Self {
        SparseVec {
            indices: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// A one-hot sparse vector `value·e_i`.
    pub fn unit(i: NodeId, value: f64) -> Self {
        SparseVec {
            indices: vec![i],
            values: vec![value],
        }
    }

    /// Builds a sparse vector from possibly unsorted, possibly duplicated
    /// `(index, value)` pairs; duplicate indices are summed, zeros dropped.
    pub fn from_unsorted(mut entries: Vec<(NodeId, f64)>) -> Self {
        let mut out = SparseVec::with_capacity(entries.len());
        out.rebuild_from_unsorted(&mut entries);
        out
    }

    /// The `clear()`-and-reuse form of [`SparseVec::from_unsorted`]: rebuilds
    /// `self` in place from `entries`, which is drained (emptied, capacity
    /// kept) so the caller can refill and reuse it without reallocating.
    ///
    /// Duplicates are accumulated in one pass over the sorted entries — each
    /// run of equal indices is summed in its post-sort order and emitted once
    /// its total is known, with exact-zero (and non-finite-comparing, i.e.
    /// NaN) totals dropped — which is bit-identical to the historical
    /// sort-merge-then-prune construction but touches each entry once.
    pub fn rebuild_from_unsorted(&mut self, entries: &mut Vec<(NodeId, f64)>) {
        self.indices.clear();
        self.values.clear();
        entries.sort_unstable_by_key(|&(i, _)| i);
        let mut run: Option<(NodeId, f64)> = None;
        for (i, v) in entries.drain(..) {
            match &mut run {
                Some((ri, rv)) if *ri == i => *rv += v,
                _ => {
                    if let Some((ri, rv)) = run.take() {
                        if rv.abs() > 0.0 {
                            self.indices.push(ri);
                            self.values.push(rv);
                        }
                    }
                    run = Some((i, v));
                }
            }
        }
        if let Some((ri, rv)) = run {
            if rv.abs() > 0.0 {
                self.indices.push(ri);
                self.values.push(rv);
            }
        }
    }

    /// Rebuilds `self` as a copy of `src` with every value scaled by `a`
    /// (reusing this vector's capacity) — the hop-vector materialisation step
    /// (`π^ℓ = (1-√c)·walk_dist`) without a fresh allocation per level.
    pub fn assign_scaled(&mut self, src: &SparseVec, a: f64) {
        self.indices.clear();
        self.values.clear();
        self.indices.extend_from_slice(&src.indices);
        self.values.extend(src.values.iter().map(|&v| v * a));
    }

    /// Builds a sparse vector from a dense slice, keeping entries with
    /// `|x_k| > threshold`.
    pub fn from_dense(dense: &[f64], threshold: f64) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (k, &v) in dense.iter().enumerate() {
            if v.abs() > threshold {
                indices.push(k as NodeId);
                values.push(v);
            }
        }
        SparseVec { indices, values }
    }

    /// Expands into a dense vector of length `n`.
    pub fn to_dense(&self, n: usize) -> Vec<f64> {
        let mut dense = vec![0.0; n];
        self.scatter_into(&mut dense);
        dense
    }

    /// Adds this vector's entries into an existing dense buffer.
    pub fn scatter_into(&self, dense: &mut [f64]) {
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            dense[i as usize] += v;
        }
    }

    /// Number of stored non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// `true` iff no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterates over `(index, value)` pairs in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// The stored indices (sorted ascending).
    #[inline]
    pub fn indices(&self) -> &[NodeId] {
        &self.indices
    }

    /// The stored values, parallel to [`SparseVec::indices`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value at index `i` (0.0 if not stored).
    pub fn get(&self, i: NodeId) -> f64 {
        match self.indices.binary_search(&i) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// The L1 norm of stored values.
    pub fn l1_norm(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).sum()
    }

    /// The sum of stored values (L1 norm for non-negative vectors such as the
    /// walk distributions used throughout the paper).
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The squared L2 norm `Σ x_k²`.
    pub fn l2_norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Largest stored value (0.0 for an empty vector).
    pub fn max_value(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// In-place scaling of all stored values.
    pub fn scale(&mut self, a: f64) {
        for v in &mut self.values {
            *v *= a;
        }
    }

    /// Removes entries with `|value| <= threshold`, returning the total mass
    /// removed (sum of the dropped values). This is exactly the sparsification
    /// step of Lemma 2.
    pub fn prune(&mut self, threshold: f64) -> f64 {
        let mut dropped = 0.0;
        let mut w = 0usize;
        for r in 0..self.indices.len() {
            if self.values[r].abs() > threshold {
                self.indices[w] = self.indices[r];
                self.values[w] = self.values[r];
                w += 1;
            } else {
                dropped += self.values[r];
            }
        }
        self.indices.truncate(w);
        self.values.truncate(w);
        dropped
    }

    /// Dot product with a dense vector.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        self.iter().map(|(i, v)| v * dense[i as usize]).sum()
    }

    /// Dot product with another sparse vector (merge join over sorted indices).
    pub fn dot_sparse(&self, other: &SparseVec) -> f64 {
        let mut acc = 0.0;
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.nnz() && b < other.nnz() {
            match self.indices[a].cmp(&other.indices[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[a] * other.values[b];
                    a += 1;
                    b += 1;
                }
            }
        }
        acc
    }

    /// Approximate heap footprint in bytes (for Table 3 memory accounting).
    pub fn memory_bytes(&self) -> usize {
        self.indices.len() * std::mem::size_of::<NodeId>()
            + self.values.len() * std::mem::size_of::<f64>()
    }

    /// Clears all entries, retaining allocated capacity.
    pub fn clear(&mut self) {
        self.indices.clear();
        self.values.clear();
    }

    /// Pushes an entry that must have a strictly larger index than any stored
    /// entry (used by the kernels that produce entries in sorted order).
    ///
    /// # Panics
    /// Panics (debug) if the ordering invariant would be violated.
    pub fn push_sorted(&mut self, i: NodeId, v: f64) {
        debug_assert!(self.indices.last().is_none_or(|&last| last < i));
        self.indices.push(i);
        self.values.push(v);
    }
}

impl FromIterator<(NodeId, f64)> for SparseVec {
    fn from_iter<T: IntoIterator<Item = (NodeId, f64)>>(iter: T) -> Self {
        SparseVec::from_unsorted(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_unsorted_sorts_merges_and_drops_zeros() {
        let v = SparseVec::from_unsorted(vec![(3, 1.0), (1, 2.0), (3, 0.5), (2, 0.0)]);
        assert_eq!(v.indices(), &[1, 3]);
        assert_eq!(v.values(), &[2.0, 1.5]);
        assert_eq!(v.nnz(), 2);
        // Duplicates that cancel to exactly zero are dropped like explicit
        // zeros are.
        let w = SparseVec::from_unsorted(vec![(5, 1.0), (5, -1.0), (6, 2.0)]);
        assert_eq!(w.indices(), &[6]);
    }

    #[test]
    fn rebuild_from_unsorted_reuses_both_buffers() {
        let mut v = SparseVec::from_unsorted(vec![(0, 1.0), (9, 2.0)]);
        let mut entries = vec![(4, 0.5), (2, 1.5), (4, 0.25)];
        let cap = entries.capacity();
        v.rebuild_from_unsorted(&mut entries);
        assert_eq!(v.indices(), &[2, 4]);
        assert_eq!(v.values(), &[1.5, 0.75]);
        // The entry buffer is drained, not dropped.
        assert!(entries.is_empty());
        assert_eq!(entries.capacity(), cap);
    }

    #[test]
    fn assign_scaled_copies_and_scales() {
        let src = SparseVec::from_unsorted(vec![(1, 2.0), (7, 4.0)]);
        let mut dst = SparseVec::unit(0, 9.0);
        dst.assign_scaled(&src, 0.5);
        assert_eq!(dst.indices(), &[1, 7]);
        assert_eq!(dst.values(), &[1.0, 2.0]);
    }

    #[test]
    fn dense_round_trip() {
        let dense = vec![0.0, 0.25, 0.0, 0.75];
        let sv = SparseVec::from_dense(&dense, 0.0);
        assert_eq!(sv.nnz(), 2);
        assert_eq!(sv.to_dense(4), dense);
    }

    #[test]
    fn get_missing_is_zero() {
        let sv = SparseVec::unit(5, 2.0);
        assert_eq!(sv.get(5), 2.0);
        assert_eq!(sv.get(4), 0.0);
    }

    #[test]
    fn norms_and_sums() {
        let sv = SparseVec::from_unsorted(vec![(0, 0.5), (9, 0.5)]);
        assert!((sv.l1_norm() - 1.0).abs() < 1e-15);
        assert!((sv.sum() - 1.0).abs() < 1e-15);
        assert!((sv.l2_norm_sq() - 0.5).abs() < 1e-15);
        assert!((sv.max_value() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn prune_returns_dropped_mass_and_bounds_size() {
        let mut sv = SparseVec::from_unsorted(vec![(0, 0.6), (1, 0.05), (2, 0.3), (3, 0.05)]);
        let dropped = sv.prune(0.1);
        assert!((dropped - 0.1).abs() < 1e-15);
        assert_eq!(sv.nnz(), 2);
        assert_eq!(sv.indices(), &[0, 2]);
    }

    #[test]
    fn dot_products_agree() {
        let a = SparseVec::from_unsorted(vec![(0, 1.0), (2, 2.0), (5, 3.0)]);
        let b = SparseVec::from_unsorted(vec![(2, 0.5), (5, 1.0), (7, 9.0)]);
        let dense_b = b.to_dense(8);
        assert!((a.dot_sparse(&b) - 4.0).abs() < 1e-15);
        assert!((a.dot_dense(&dense_b) - 4.0).abs() < 1e-15);
        assert!((b.dot_sparse(&a) - 4.0).abs() < 1e-15);
    }

    #[test]
    fn scatter_accumulates() {
        let a = SparseVec::from_unsorted(vec![(1, 1.0)]);
        let mut dense = vec![0.5; 3];
        a.scatter_into(&mut dense);
        assert_eq!(dense, vec![0.5, 1.5, 0.5]);
    }

    #[test]
    fn scale_and_clear() {
        let mut sv = SparseVec::from_unsorted(vec![(1, 2.0)]);
        sv.scale(0.5);
        assert_eq!(sv.values(), &[1.0]);
        sv.clear();
        assert!(sv.is_empty());
    }

    #[test]
    fn push_sorted_maintains_order() {
        let mut sv = SparseVec::new();
        sv.push_sorted(1, 1.0);
        sv.push_sorted(4, 2.0);
        assert_eq!(sv.indices(), &[1, 4]);
    }

    #[test]
    fn collects_from_iterator() {
        let sv: SparseVec = vec![(2, 1.0), (0, 3.0)].into_iter().collect();
        assert_eq!(sv.indices(), &[0, 2]);
    }

    #[test]
    fn memory_accounting_nonzero() {
        let sv = SparseVec::from_unsorted(vec![(0, 1.0), (1, 1.0)]);
        assert!(sv.memory_bytes() >= 2 * (4 + 8));
    }
}
