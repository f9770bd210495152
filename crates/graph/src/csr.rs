//! Compressed-sparse-row adjacency storage.
//!
//! [`CsrAdjacency::apply_deltas_into`] is the only merge of edge deltas
//! into a graph; its docs state the delta contract every caller keeps.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::NodeId;

/// One edge delta: `(insertions, deletions)`, each sorted by
/// `(source, target)` and duplicate-free (see
/// [`CsrAdjacency::apply_deltas_into`], the one merge that applies it).
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
    ///
    /// The iterator is walked twice (a counting sort: count the rows, then
    /// place each target), never collected, so the build holds the result and
    /// nothing else. A row's targets land in input order, and only a row that
    /// comes out unsorted is sorted: input sorted by `(source, target)` needs
    /// no sort at all.
    ///
    /// # Panics
    /// Panics if a source is `>= num_nodes`.
    pub fn from_edges<I>(num_nodes: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
        I::IntoIter: Clone,
    {
        let mut csr = CsrAdjacency::bucketed(num_nodes, edges.into_iter());
        for v in 0..num_nodes {
            let row = &mut csr.targets[csr.offsets[v]..csr.offsets[v + 1]];
            if !row.is_sorted() {
                row.sort_unstable();
            }
        }
        csr
    }

    /// The other orientation of the same edge multiset: row `v` of the
    /// result lists every `u` with `u → v` stored here.
    ///
    /// A counting sort that visits the sources in ascending order, so every
    /// row comes out ascending with its duplicates adjacent — the rows
    /// [`CsrAdjacency::from_edges`] would sort the flipped edges into, without
    /// a sort. `O(n + m)` time; it allocates only the result.
    pub fn transpose(&self) -> CsrAdjacency {
        let n = self.num_nodes();
        let flipped = (0..n).flat_map(|u| {
            let u = u as NodeId;
            self.neighbors(u).iter().map(move |&v| (v, u))
        });
        CsrAdjacency::bucketed(n, flipped)
    }

    /// Places every `(row, value)` pair in its row, in the order given: a
    /// counting sort by row that walks `pairs` twice and allocates only the
    /// two result arrays. Panics if a row is `>= num_nodes`.
    fn bucketed<I>(num_nodes: usize, pairs: I) -> Self
    where
        I: Iterator<Item = (NodeId, NodeId)> + Clone,
    {
        let mut offsets = vec![0usize; num_nodes + 1];
        for (row, _) in pairs.clone() {
            // One slot per row, so an out-of-range row panics here.
            offsets[1..][row as usize] += 1;
        }
        for v in 0..num_nodes {
            offsets[v + 1] += offsets[v];
        }
        let mut targets = vec![0 as NodeId; offsets[num_nodes]];
        // `offsets[row]` is the row's cursor: it ends at the row's end, which
        // is the next row's start, so one shift restores the offsets.
        for (row, value) in pairs {
            let slot = &mut offsets[row as usize];
            targets[*slot] = value;
            *slot += 1;
        }
        offsets.copy_within(0..num_nodes, 1);
        offsets[0] = 0;
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

    /// Rebuilds this orientation over `num_nodes` nodes with a sequence of
    /// `(insertions, deletions)` deltas applied in order, in one pass, into
    /// `spare`'s arrays when they have room. This is the one edge merge: a
    /// store's commit and its WAL replay both run it, through
    /// [`crate::InGraph::apply_deltas_into`].
    ///
    /// **The delta contract.**
    /// - Each delta's `insertions` and `deletions` are sorted by
    ///   `(source, target)`, duplicate-free, and name endpoints
    ///   `< num_nodes` (all debug-asserted: a silently dropped out-of-range
    ///   source or a stored out-of-range target would corrupt the rows it
    ///   lands in).
    /// - A deletion clears every stored copy of its edge, and a deletion of
    ///   an absent edge changes nothing.
    /// - Inserting an edge that is already present stores another copy;
    ///   callers that want set semantics pre-filter against
    ///   [`CsrAdjacency::has_edge`], as a store's delta buffer does.
    /// - Rows `self.num_nodes() .. num_nodes` are appended empty before the
    ///   first delta, so any delta may name them.
    ///
    /// The result equals applying the deltas one at a time, each to the
    /// result of the one before, at the cost of a single copy of the arrays.
    /// A run of rows that no delta names is copied with one slice copy of
    /// its targets and a shifted copy of its offsets. A named row goes
    /// through every delta that names it, in delta order, each merging its
    /// sorted insertions in and its deletions out. Each delta's lists are
    /// walked by their own cursors as node ids ascend, and a min-heap over
    /// the deltas' next sources finds the named rows. For `D` deltas holding
    /// `Δ` edges the cost is `O(n + m)` for the copy, `O(Δ log D)` for the
    /// heap, and one merge of a named row per delta that names it.
    ///
    /// **Arrays.** The result has at most `m + Σ insertions` targets. Each of
    /// `spare`'s two arrays is cleared and written in place when its capacity
    /// holds the result's bound, so the rebuild allocates nothing the size of
    /// the graph; otherwise that array is freed first and a fresh one is
    /// allocated, sized to the bound rounded up to whole 4-KiB pages plus one
    /// page to spare. An array is never grown by copying, and a spare's old
    /// contents never reach the result.
    ///
    /// # Panics
    /// Panics if `num_nodes < self.num_nodes()`.
    pub fn apply_deltas_into(
        &self,
        num_nodes: usize,
        deltas: &[EdgeDelta<'_>],
        spare: Option<CsrAdjacency>,
    ) -> Self {
        let n = self.num_nodes();
        assert!(
            num_nodes >= n,
            "a rebuild cannot drop nodes ({num_nodes} < {n})"
        );
        for &(insertions, deletions) in deltas {
            debug_assert!(insertions.windows(2).all(|w| w[0] < w[1]));
            debug_assert!(deletions.windows(2).all(|w| w[0] < w[1]));
            debug_assert!(insertions
                .iter()
                .chain(deletions)
                .all(|&(u, t)| (u as usize) < num_nodes && (t as usize) < num_nodes));
        }
        let inserted: usize = deltas.iter().map(|(ins, _)| ins.len()).sum();
        let (spare_offsets, spare_targets) = spare.map(|s| (s.offsets, s.targets)).unzip();
        let mut offsets = emptied_with_room(spare_offsets, num_nodes + 1);
        let mut targets = emptied_with_room(spare_targets, self.num_edges() + inserted);
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
        let (mut row, mut spare_row) = (Vec::new(), Vec::new());
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
            let old: &[NodeId] = match first {
                true if (v as usize) < n => self.neighbors(v),
                true => &[], // an appended row starts empty
                false => &row,
            };
            let (ins, del) = (&insertions[ins_lo..ins_hi], &deletions[del_lo..del_hi]);
            if heap.peek().is_none_or(|&Reverse((u, _))| u != v) {
                // The last delta naming v writes the row into the output.
                merge_row(old, ins, del, &mut targets);
                offsets.push(targets.len());
            } else {
                spare_row.clear();
                merge_row(old, ins, del, &mut spare_row);
                std::mem::swap(&mut row, &mut spare_row);
            }
        }
        self.copy_rows(copied, num_nodes, &mut offsets, &mut targets);
        CsrAdjacency { offsets, targets }
    }

    /// Appends rows `lo..hi` unchanged: one slice copy of their targets and
    /// their offsets shifted to where that copy lands. Rows at or past
    /// `num_nodes()` are appended empty.
    fn copy_rows(&self, lo: usize, hi: usize, offsets: &mut Vec<usize>, targets: &mut Vec<NodeId>) {
        let n = self.num_nodes();
        let (lo_held, hi_held) = (lo.min(n), hi.min(n));
        let (start, end) = (self.offsets[lo_held], self.offsets[hi_held]);
        let base = targets.len();
        targets.extend_from_slice(&self.targets[start..end]);
        offsets.extend(
            self.offsets[lo_held + 1..=hi_held]
                .iter()
                .map(|&o| o - start + base),
        );
        let appended = (hi - lo) - (hi_held - lo_held);
        offsets.resize(offsets.len() + appended, targets.len());
    }
}

/// Bytes per page of the allocations a rebuild sizes.
const PAGE_BYTES: usize = 4096;

/// `spare`, emptied, when it can hold `len` elements; otherwise `spare` is
/// freed and a fresh array takes its place, with room for `len` elements
/// rounded up to whole pages plus one page, so the next few rebuilds that
/// are handed this array back find room in it.
fn emptied_with_room<T>(spare: Option<Vec<T>>, len: usize) -> Vec<T> {
    match spare {
        Some(mut array) if array.capacity() >= len => {
            array.clear();
            array
        }
        spare => {
            drop(spare);
            let per_page = (PAGE_BYTES / std::mem::size_of::<T>()).max(1);
            Vec::with_capacity((len.div_ceil(per_page) + 1) * per_page)
        }
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// The CSR of `edges` built the plain way: sort the whole list by
    /// `(source, target)`, then cut it into rows.
    fn sorted_reference(num_nodes: usize, mut edges: Vec<(NodeId, NodeId)>) -> CsrAdjacency {
        edges.sort_unstable();
        let mut offsets = vec![0usize; num_nodes + 1];
        for &(u, _) in &edges {
            offsets[u as usize + 1] += 1;
        }
        for v in 0..num_nodes {
            offsets[v + 1] += offsets[v];
        }
        CsrAdjacency::from_raw_parts(offsets, edges.into_iter().map(|(_, v)| v).collect())
    }

    #[test]
    fn counting_builds_equal_sorting_builds_on_multigraphs() {
        let mut rng = StdRng::seed_from_u64(26);
        for case in 0..300 {
            // n = 0 and n = 1 first; the top three ids never get an edge.
            let active = match case {
                0 => 0,
                1..=3 => 1,
                _ => rng.gen_range(1..40usize),
            };
            let n = if case < 2 { active } else { active + case % 4 };
            let m = if active == 0 {
                0
            } else {
                rng.gen_range(0..5 * active)
            };
            let mut edges: Vec<(NodeId, NodeId)> = (0..m)
                .map(|_| {
                    let u = rng.gen_range(0..active) as NodeId;
                    (u, rng.gen_range(0..active) as NodeId)
                })
                .collect();
            if let Some(&(u, v)) = edges.first() {
                edges.extend([(u, v), (u, v), (v, v), (u, u)]); // duplicates and self-loops
            }
            let flipped: Vec<_> = edges.iter().map(|&(u, v)| (v, u)).collect();

            let csr = CsrAdjacency::from_edges(n, edges.iter().copied());
            assert_eq!(csr, sorted_reference(n, edges.clone()), "case {case}");
            let transposed = csr.transpose();
            assert_eq!(
                transposed,
                sorted_reference(n, flipped.clone()),
                "case {case}"
            );
            assert_eq!(transposed, CsrAdjacency::from_edges(n, flipped));
            assert_eq!(transposed.transpose(), csr);
            // Sorted input needs no row sort and gives the same rows.
            let mut sorted = edges;
            sorted.sort_unstable();
            assert_eq!(CsrAdjacency::from_edges(n, sorted), csr);
        }
    }

    #[test]
    #[should_panic]
    fn from_edges_rejects_an_out_of_range_source() {
        CsrAdjacency::from_edges(3, vec![(0, 1), (3, 0)]);
    }

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

    /// `csr` with the one delta `(insertions, deletions)` merged in, over its
    /// own node count and into fresh arrays.
    fn apply(
        csr: &CsrAdjacency,
        insertions: &[(NodeId, NodeId)],
        deletions: &[(NodeId, NodeId)],
    ) -> CsrAdjacency {
        csr.apply_deltas_into(csr.num_nodes(), &[(insertions, deletions)], None)
    }

    #[test]
    fn apply_delta_matches_from_scratch_rebuild() {
        let csr = sample(); // 0 -> {1, 2}, 1 -> {2}, 2 -> {}, 3 -> {0}
        let insertions = vec![(0, 3), (2, 0), (2, 1)];
        let deletions = vec![(0, 2), (3, 0)];
        let rebuilt = apply(&csr, &insertions, &deletions);
        let expected = CsrAdjacency::from_edges(4, vec![(0, 1), (0, 3), (1, 2), (2, 0), (2, 1)]);
        assert_eq!(rebuilt, expected);
        // The original is untouched.
        assert_eq!(csr.num_edges(), 4);
    }

    #[test]
    fn apply_delta_with_empty_delta_is_identity() {
        let csr = sample();
        assert_eq!(apply(&csr, &[], &[]), csr);
    }

    #[test]
    fn apply_delta_deletes_every_occurrence_of_a_duplicate_edge() {
        let csr = CsrAdjacency::from_edges(2, vec![(0, 1), (0, 1)]);
        let cleaned = apply(&csr, &[], &[(0, 1)]);
        assert_eq!(cleaned.num_edges(), 0);
    }

    #[test]
    fn apply_delta_ignores_deletions_of_absent_edges() {
        let csr = sample();
        let same = apply(&csr, &[], &[(1, 0), (2, 3)]);
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
            .fold(csr.clone(), |acc, &(ins, del)| apply(&acc, ins, del));
        let batched = csr.apply_deltas_into(4, &deltas, None);
        assert_eq!(batched, folded);
        let expected =
            CsrAdjacency::from_edges(4, vec![(0, 1), (0, 2), (0, 3), (2, 1), (3, 0), (3, 1)]);
        assert_eq!(batched, expected);
        assert_eq!(csr.apply_deltas_into(4, &[], None), csr);
    }

    /// `csr` with `extra` empty rows appended: its offsets extended by the
    /// last offset, its targets copied.
    fn with_empty_rows(csr: &CsrAdjacency, extra: usize) -> CsrAdjacency {
        let mut offsets = csr.offsets().to_vec();
        offsets.resize(offsets.len() + extra, csr.num_edges());
        CsrAdjacency::from_raw_parts(offsets, csr.targets().to_vec())
    }

    #[test]
    fn growing_inside_the_merge_equals_growing_then_applying() {
        let mut rng = StdRng::seed_from_u64(28);
        for case in 0..300 {
            let n = match case {
                0..=9 => case % 2, // n = 0 and n = 1
                _ => rng.gen_range(2..30usize),
            };
            let extra = rng.gen_range(0..4usize);
            let total = n + extra;
            let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
            if n > 0 {
                for _ in 0..rng.gen_range(0..4 * n) {
                    let e = (rng.gen_range(0..n) as NodeId, rng.gen_range(0..n) as NodeId);
                    edges.extend(std::iter::repeat_n(e, rng.gen_range(1..=2))); // duplicates
                }
            }
            let csr = CsrAdjacency::from_edges(n, edges.iter().copied());
            // The multiset model: a deletion clears every copy, an
            // insertion adds one.
            let mut model = edges;
            type Edges = Vec<(NodeId, NodeId)>;
            let mut deltas: Vec<(Edges, Edges)> = Vec::new();
            for _ in 0..rng.gen_range(0..4) {
                let mut pick = |count: usize| {
                    let mut list: Edges = (0..count)
                        .filter(|_| total > 0)
                        .map(|_| match rng.gen_range(0..3) {
                            // An edge on an appended id, when there is one.
                            0 if extra > 0 => (
                                rng.gen_range(0..total) as NodeId,
                                rng.gen_range(n..total) as NodeId,
                            ),
                            1 if !model.is_empty() => model[rng.gen_range(0..model.len())],
                            _ => (
                                rng.gen_range(0..total) as NodeId,
                                rng.gen_range(0..total) as NodeId,
                            ),
                        })
                        .collect();
                    list.sort_unstable();
                    list.dedup();
                    list
                };
                let (ins, del) = (pick(3), pick(2));
                model.retain(|e| del.binary_search(e).is_err());
                model.extend(&ins);
                deltas.push((ins, del));
            }
            let views: Vec<EdgeDelta> = deltas.iter().map(|(i, d)| (&i[..], &d[..])).collect();
            let want = sorted_reference(total, model);
            let appended = with_empty_rows(&csr, extra);
            assert_eq!(appended.apply_deltas_into(total, &views, None), want);
            // With no spare, a spare with room (holding other rows) and a
            // spare too small to take the result.
            let roomy = CsrAdjacency::from_edges(5, vec![(1, 2), (3, 4), (0, 0)])
                .apply_deltas_into(40, &[], None);
            let tight = CsrAdjacency::from_edges(1, vec![(0, 0)]);
            for spare in [None, Some(roomy), Some(tight)] {
                let got = csr.apply_deltas_into(total, &views, spare);
                assert_eq!(got, want, "case {case}: n={n} extra={extra}");
            }
        }
    }

    #[test]
    fn commit_built_arrays_have_a_page_to_spare() {
        let csr = CsrAdjacency::from_edges(3, vec![(0, 1), (1, 2)]);
        let built = csr.apply_deltas_into(3, &[(&[(2, 0)], &[])], None);
        assert!(built.offsets.capacity() >= built.offsets.len() + 4096 / 8);
        assert!(built.targets.capacity() >= built.targets.len() + 4096 / 4);
        // A spare with room is written in place.
        let targets = built.targets.as_ptr();
        let again = csr.apply_deltas_into(3, &[(&[(2, 1)], &[(0, 1)])], Some(built));
        assert_eq!(again.targets.as_ptr(), targets);
        assert_eq!(again, CsrAdjacency::from_edges(3, vec![(1, 2), (2, 1)]));
    }

    #[test]
    #[should_panic]
    fn a_rebuild_cannot_drop_nodes() {
        sample().apply_deltas_into(3, &[], None);
    }

    #[test]
    fn apply_delta_interleaves_insertions_in_sorted_position() {
        let csr = CsrAdjacency::from_edges(4, vec![(0, 2)]);
        // Additions below and above the existing target keep the list sorted.
        let grown = apply(&csr, &[(0, 1), (0, 3)], &[]);
        assert_eq!(grown.neighbors(0), &[1, 2, 3]);
        // An addition equal to an existing target stores a second copy (the
        // documented multiset semantics — dedup is the caller's job).
        let dup = apply(&csr, &[(0, 2)], &[]);
        assert_eq!(dup.neighbors(0), &[2, 2]);
        assert_eq!(dup.num_edges(), 2);
    }
}
