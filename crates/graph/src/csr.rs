//! Compressed-sparse-row adjacency storage.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::NodeId;

/// One edge delta: `(insertions, deletions)`, each sorted by
/// `(source, target)` and duplicate-free (see [`CsrAdjacency::apply_delta`]).
pub type EdgeDelta<'a> = (&'a [(NodeId, NodeId)], &'a [(NodeId, NodeId)]);

/// One orientation of a graph's adjacency in compressed-sparse-row form.
///
/// For a graph with `n` nodes, `offsets` has length `n + 1` and the neighbors
/// of node `v` are `targets[offsets[v] .. offsets[v + 1]]`. Neighbor lists are
/// sorted ascending, which makes membership tests `O(log deg)` and keeps
/// iteration cache-friendly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrAdjacency {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
}

impl CsrAdjacency {
    /// Builds a CSR structure from per-source neighbor lists.
    ///
    /// `edges` is an iterator of `(source, target)` pairs; `num_nodes` fixes
    /// the node-id space. Neighbor lists are sorted; duplicates are *kept*
    /// (deduplication is the builder's responsibility).
    pub fn from_edges<I>(num_nodes: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut degrees = vec![0usize; num_nodes];
        let edges: Vec<(NodeId, NodeId)> = edges.into_iter().collect();
        for &(u, _) in &edges {
            degrees[u as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as NodeId; acc];
        for (u, v) in edges {
            let slot = cursor[u as usize];
            targets[slot] = v;
            cursor[u as usize] += 1;
        }
        // Sort each adjacency list for deterministic iteration order.
        for v in 0..num_nodes {
            targets[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        CsrAdjacency { offsets, targets }
    }

    /// Builds a CSR structure directly from already-counted, already-sorted parts.
    ///
    /// `offsets.len()` must be `num_nodes + 1`, `offsets[0] == 0`, offsets must
    /// be non-decreasing and `offsets[num_nodes] == targets.len()`.
    /// Panics (debug assertions) if the invariants do not hold.
    pub fn from_raw_parts(offsets: Vec<usize>, targets: Vec<NodeId>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(offsets[0], 0);
        debug_assert_eq!(*offsets.last().unwrap(), targets.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        CsrAdjacency { offsets, targets }
    }

    /// Returns a copy of this adjacency covering `additional` extra nodes,
    /// all isolated: the offsets array is extended by repeating the final
    /// offset, so existing neighbor lists are untouched and the new nodes
    /// have degree zero. `O(n + m)` (one copy), the cheap half of the store's
    /// `addnode` growth path.
    pub fn grow(&self, additional: usize) -> Self {
        let last = *self.offsets.last().expect("offsets never empty");
        let mut offsets = Vec::with_capacity(self.offsets.len() + additional);
        offsets.extend_from_slice(&self.offsets);
        offsets.resize(self.offsets.len() + additional, last);
        CsrAdjacency {
            offsets,
            targets: self.targets.clone(),
        }
    }

    /// Number of nodes covered by this adjacency.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Degree of `v` in this orientation.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Neighbor slice of `v` in this orientation (sorted ascending).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// `true` iff the directed edge `u → v` is stored.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all stored `(source, target)` pairs in source order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes()).flat_map(move |u| {
            self.neighbors(u as NodeId)
                .iter()
                .map(move |&v| (u as NodeId, v))
        })
    }

    /// Approximate heap footprint of this structure in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
    }

    /// The raw offsets array (length `num_nodes + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw targets array (length `num_edges`).
    #[inline]
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Rebuilds this orientation with a batch of edge insertions and
    /// deletions applied: [`CsrAdjacency::apply_deltas`] with one delta, so
    /// rows the delta does not name are copied in bulk and the cost is one
    /// `O(n + m)` copy plus a merge of each named row with its `Δ` entries,
    /// instead of a from-scratch `O(m log m)` reconstruction.
    ///
    /// `insertions` and `deletions` must both be sorted by `(source, target)`,
    /// duplicate-free, and name endpoints `< num_nodes` (all debug-asserted:
    /// a silently-dropped out-of-range source or stored out-of-range target
    /// would desync the two orientations of a `DiGraph`); a deletion removes
    /// *every* stored occurrence of its edge (set semantics), and inserting
    /// an edge that is already present stores a second copy — callers that
    /// want set semantics must pre-filter against [`CsrAdjacency::has_edge`],
    /// which is what higher-level delta buffers do.
    pub fn apply_delta(
        &self,
        insertions: &[(NodeId, NodeId)],
        deletions: &[(NodeId, NodeId)],
    ) -> CsrAdjacency {
        self.apply_deltas(&[(insertions, deletions)])
    }

    /// Rebuilds this orientation with a sequence of `(insertions, deletions)`
    /// deltas applied in order, in one pass: the result equals folding
    /// [`CsrAdjacency::apply_delta`] over `deltas`, at the cost of a single
    /// copy of the arrays.
    ///
    /// Each delta obeys [`CsrAdjacency::apply_delta`]'s contract (sorted,
    /// duplicate-free, endpoints `< num_nodes`; debug-asserted). A run of
    /// rows that no delta names is copied with one slice copy of its targets
    /// and a shifted copy of its offsets. A named row goes through every
    /// delta that names it, in delta order, with `apply_delta`'s merge. Each
    /// delta's lists are walked by their own cursors as node ids ascend, and
    /// a min-heap over the deltas' next sources finds the named rows. For `D`
    /// deltas holding `Δ` edges the cost is `O(n + m)` for the copy,
    /// `O(Δ log D)` for the heap, and one merge of a named row per delta
    /// that names it.
    pub fn apply_deltas(&self, deltas: &[EdgeDelta<'_>]) -> Self {
        let n = self.num_nodes();
        for &(insertions, deletions) in deltas {
            debug_assert!(insertions.windows(2).all(|w| w[0] < w[1]));
            debug_assert!(deletions.windows(2).all(|w| w[0] < w[1]));
            debug_assert!(insertions
                .iter()
                .chain(deletions)
                .all(|&(u, t)| (u as usize) < n && (t as usize) < n));
        }
        let (inserted, deleted) = deltas
            .iter()
            .fold((0, 0), |(i, d), (ins, del)| (i + ins.len(), d + del.len()));
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity((self.num_edges() + inserted).saturating_sub(deleted));
        offsets.push(0usize);

        // Per delta, the next unread insertion and deletion.
        let mut cursors = vec![(0usize, 0usize); deltas.len()];
        let next_source = |d: usize, (ins, del): (usize, usize)| {
            let (insertions, deletions) = deltas[d];
            let a = insertions.get(ins).map(|e| e.0);
            let b = deletions.get(del).map(|e| e.0);
            a.into_iter().chain(b).min()
        };
        // Min-heap of (next named source, delta index): pops rows in id
        // order and, within a row, deltas in their given order.
        let mut heap: BinaryHeap<Reverse<(NodeId, usize)>> = (0..deltas.len())
            .filter_map(|d| next_source(d, cursors[d]).map(|v| Reverse((v, d))))
            .collect();
        // A named row between two of its deltas, and the buffer the next
        // delta merges it into.
        let (mut row, mut spare) = (Vec::new(), Vec::new());
        let mut copied = 0usize; // rows below this one are in the output
        while let Some(Reverse((v, d))) = heap.pop() {
            let first = copied <= v as usize; // no delta has merged row v yet
            if first {
                self.copy_rows(copied, v as usize, &mut offsets, &mut targets);
                copied = v as usize + 1;
            }
            let (insertions, deletions) = deltas[d];
            let (ins_lo, del_lo) = cursors[d];
            let ins_hi = ins_lo + insertions[ins_lo..].partition_point(|e| e.0 == v);
            let del_hi = del_lo + deletions[del_lo..].partition_point(|e| e.0 == v);
            cursors[d] = (ins_hi, del_hi);
            if let Some(next) = next_source(d, cursors[d]) {
                heap.push(Reverse((next, d)));
            }
            let old: &[NodeId] = if first { self.neighbors(v) } else { &row };
            let (ins, del) = (&insertions[ins_lo..ins_hi], &deletions[del_lo..del_hi]);
            if heap.peek().is_none_or(|&Reverse((u, _))| u != v) {
                // The last delta naming v writes the row into the output.
                merge_row(old, ins, del, &mut targets);
                offsets.push(targets.len());
            } else {
                spare.clear();
                merge_row(old, ins, del, &mut spare);
                std::mem::swap(&mut row, &mut spare);
            }
        }
        self.copy_rows(copied, n, &mut offsets, &mut targets);
        CsrAdjacency { offsets, targets }
    }

    /// Appends rows `lo..hi` unchanged: one slice copy of their targets and
    /// their offsets shifted to where that copy lands.
    fn copy_rows(&self, lo: usize, hi: usize, offsets: &mut Vec<usize>, targets: &mut Vec<NodeId>) {
        let (start, end) = (self.offsets[lo], self.offsets[hi]);
        let base = targets.len();
        targets.extend_from_slice(&self.targets[start..end]);
        offsets.extend(self.offsets[lo + 1..=hi].iter().map(|&o| o - start + base));
    }
}

/// Appends `old` (sorted) to `out` with the sorted `insertions` merged in and
/// every target named by the sorted `deletions` skipped, all occurrences of
/// it. All three lists belong to one source node.
fn merge_row(
    old: &[NodeId],
    insertions: &[(NodeId, NodeId)],
    deletions: &[(NodeId, NodeId)],
    out: &mut Vec<NodeId>,
) {
    let mut add = insertions.iter().map(|&(_, t)| t).peekable();
    let mut drop = deletions.iter().map(|&(_, t)| t).peekable();
    for &t in old {
        while add.peek().is_some_and(|&a| a < t) {
            out.push(add.next().expect("peeked"));
        }
        while drop.peek().is_some_and(|&d| d < t) {
            drop.next();
        }
        if drop.peek() == Some(&t) {
            continue; // deleted (all occurrences of t are skipped)
        }
        out.push(t);
    }
    out.extend(add);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrAdjacency {
        // 0 -> {1, 2}, 1 -> {2}, 2 -> {}, 3 -> {0}
        CsrAdjacency::from_edges(4, vec![(0, 2), (0, 1), (1, 2), (3, 0)])
    }

    #[test]
    fn builds_and_sorts_neighbor_lists() {
        let csr = sample();
        assert_eq!(csr.num_nodes(), 4);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[2]);
        assert_eq!(csr.neighbors(2), &[] as &[NodeId]);
        assert_eq!(csr.neighbors(3), &[0]);
    }

    #[test]
    fn degree_matches_neighbor_length() {
        let csr = sample();
        for v in 0..4u32 {
            assert_eq!(csr.degree(v), csr.neighbors(v).len());
        }
    }

    #[test]
    fn has_edge_uses_binary_search() {
        let csr = sample();
        assert!(csr.has_edge(0, 1));
        assert!(csr.has_edge(0, 2));
        assert!(!csr.has_edge(2, 0));
        assert!(!csr.has_edge(0, 3));
    }

    #[test]
    fn iter_edges_round_trips() {
        let csr = sample();
        let edges: Vec<_> = csr.iter_edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (3, 0)]);
        let rebuilt = CsrAdjacency::from_edges(4, edges);
        assert_eq!(rebuilt, csr);
    }

    #[test]
    fn empty_graph_is_fine() {
        let csr = CsrAdjacency::from_edges(0, Vec::new());
        assert_eq!(csr.num_nodes(), 0);
        assert_eq!(csr.num_edges(), 0);
    }

    #[test]
    fn nodes_without_edges_have_zero_degree() {
        let csr = CsrAdjacency::from_edges(5, vec![(0, 1)]);
        assert_eq!(csr.degree(4), 0);
        assert_eq!(csr.neighbors(4), &[] as &[NodeId]);
    }

    #[test]
    fn duplicate_edges_are_kept() {
        let csr = CsrAdjacency::from_edges(2, vec![(0, 1), (0, 1)]);
        assert_eq!(csr.num_edges(), 2);
        assert_eq!(csr.neighbors(0), &[1, 1]);
    }

    #[test]
    fn from_raw_parts_round_trip() {
        let csr = sample();
        let rebuilt = CsrAdjacency::from_raw_parts(csr.offsets().to_vec(), csr.targets().to_vec());
        assert_eq!(rebuilt, csr);
    }

    #[test]
    fn memory_bytes_is_positive_for_nonempty() {
        let csr = sample();
        assert!(csr.memory_bytes() > 0);
    }

    #[test]
    fn apply_delta_matches_from_scratch_rebuild() {
        let csr = sample(); // 0 -> {1, 2}, 1 -> {2}, 2 -> {}, 3 -> {0}
        let insertions = vec![(0, 3), (2, 0), (2, 1)];
        let deletions = vec![(0, 2), (3, 0)];
        let rebuilt = csr.apply_delta(&insertions, &deletions);
        let expected = CsrAdjacency::from_edges(4, vec![(0, 1), (0, 3), (1, 2), (2, 0), (2, 1)]);
        assert_eq!(rebuilt, expected);
        // The original is untouched.
        assert_eq!(csr.num_edges(), 4);
    }

    #[test]
    fn apply_delta_with_empty_delta_is_identity() {
        let csr = sample();
        assert_eq!(csr.apply_delta(&[], &[]), csr);
    }

    #[test]
    fn apply_delta_deletes_every_occurrence_of_a_duplicate_edge() {
        let csr = CsrAdjacency::from_edges(2, vec![(0, 1), (0, 1)]);
        let cleaned = csr.apply_delta(&[], &[(0, 1)]);
        assert_eq!(cleaned.num_edges(), 0);
    }

    #[test]
    fn apply_delta_ignores_deletions_of_absent_edges() {
        let csr = sample();
        let same = csr.apply_delta(&[], &[(1, 0), (2, 3)]);
        assert_eq!(same, csr);
    }

    #[test]
    fn apply_deltas_equals_folding_apply_delta_in_order() {
        let csr = sample(); // 0 -> {1, 2}, 1 -> {2}, 2 -> {}, 3 -> {0}
        let deltas: [EdgeDelta; 5] = [
            (&[(0, 3), (2, 1)], &[(0, 2)]),
            (&[], &[]),
            // Deletes what the first delta inserted, re-inserts what it
            // deleted, and inserts a present edge (a second copy).
            (&[(0, 2), (1, 2)], &[(0, 3)]),
            (&[(3, 1)], &[(2, 0)]),
            (&[(0, 3)], &[(1, 2)]),
        ];
        let folded = deltas
            .iter()
            .fold(csr.clone(), |acc, &(ins, del)| acc.apply_delta(ins, del));
        let batched = csr.apply_deltas(&deltas);
        assert_eq!(batched, folded);
        let expected =
            CsrAdjacency::from_edges(4, vec![(0, 1), (0, 2), (0, 3), (2, 1), (3, 0), (3, 1)]);
        assert_eq!(batched, expected);
        assert_eq!(csr.apply_deltas(&[]), csr);
    }

    #[test]
    fn apply_delta_interleaves_insertions_in_sorted_position() {
        let csr = CsrAdjacency::from_edges(4, vec![(0, 2)]);
        // Additions below and above the existing target keep the list sorted.
        let grown = csr.apply_delta(&[(0, 1), (0, 3)], &[]);
        assert_eq!(grown.neighbors(0), &[1, 2, 3]);
        // An addition equal to an existing target stores a second copy (the
        // documented multiset semantics — dedup is the caller's job).
        let dup = csr.apply_delta(&[(0, 2)], &[]);
        assert_eq!(dup.neighbors(0), &[2, 2]);
        assert_eq!(dup.num_edges(), 2);
    }
}
