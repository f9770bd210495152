//! The in-orientation graph: everything a SimRank query reads.

use crate::csr::{CsrAdjacency, EdgeDelta};
use crate::NodeId;

/// A directed graph that holds only its in-orientation: for every node `v`,
/// the sorted list of its in-neighbors `I(v)`, duplicates kept.
///
/// That is all a SimRank kernel reads: a √c-walk steps to a uniform
/// in-neighbor, `P·x` scatters over in-rows, and `Pᵀ·x` averages over them.
/// So this is the graph `exactsim-store` serves, commits, snapshots and
/// pages, at the cost of one CSR orientation (`8·(n+1) + 4·m` bytes): a
/// commit and a WAL replay merge through [`InGraph::apply_deltas_into`], and
/// a snapshot is written and read by [`crate::binfmt::write_in_graph`] and
/// [`crate::binfmt::read_in_graph`].
/// [`crate::DiGraph`] is this plus the out-orientation: the construction and
/// analysis type, which [`crate::DiGraph::into_in_graph`] turns into this
/// one by dropping its out-CSR.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InGraph {
    num_nodes: usize,
    num_edges: usize,
    in_adj: CsrAdjacency,
}

impl InGraph {
    /// Wraps an in-orientation CSR: row `v` lists every `u` with an edge
    /// `u → v`, ascending, duplicates kept.
    pub fn from_in_csr(in_adj: CsrAdjacency) -> Self {
        InGraph {
            num_nodes: in_adj.num_nodes(),
            num_edges: in_adj.num_edges(),
            in_adj,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// `true` iff the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_nodes == 0
    }

    /// In-degree `din(v)`: the number of edges `u → v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_adj.degree(v)
    }

    /// In-neighbors `I(v)` — the sources of edges pointing at `v` (sorted).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.in_adj.neighbors(v)
    }

    /// `true` iff the directed edge `u → v` exists: a binary search of `u`
    /// in `v`'s in-row.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.in_adj.has_edge(v, u)
    }

    /// Iterates over all edges `(u, v)` meaning `u → v`, grouped by target
    /// `v` (ascending), each group ascending by source.
    pub fn iter_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.in_adj.iter_edges().map(|(v, u)| (u, v))
    }

    /// The in-orientation CSR (edges keyed by target).
    #[inline]
    pub fn in_csr(&self) -> &CsrAdjacency {
        &self.in_adj
    }

    /// Heap footprint in bytes: `8·(n+1) + 4·m`, one CSR orientation.
    pub fn memory_bytes(&self) -> usize {
        self.in_adj.memory_bytes()
    }

    /// Structural self-check: every in-row ascending and every source a
    /// node of the graph. `O(n + m)`; intended for tests and debugging.
    pub fn validate(&self) -> bool {
        (0..self.num_nodes as NodeId).all(|v| {
            let row = self.in_neighbors(v);
            row.is_sorted() && row.last().is_none_or(|&u| (u as usize) < self.num_nodes)
        })
    }

    /// Rebuilds the graph over `num_nodes` nodes with a sequence of
    /// `(insertions, deletions)` deltas applied in order, into `spare`'s
    /// arrays where they have room. A store's commit and its WAL replay
    /// merge through here, and every merge of edges into a graph does.
    ///
    /// The deltas are `(source, target)` edges under the contract of
    /// [`CsrAdjacency::apply_deltas_into`]: sorted, duplicate-free,
    /// endpoints `< num_nodes`; a deletion clears every stored copy of its
    /// edge, and inserting a present edge stores another copy, so
    /// set-semantics callers pre-filter with [`InGraph::has_edge`]. Nodes
    /// `self.num_nodes() .. num_nodes` are appended isolated before the
    /// first delta, so any delta may attach edges to them: this is how a
    /// store's `addnode` commit and its WAL replay grow the id space, in the
    /// same single copy as the edge merge. The deltas are flipped to
    /// `(target, source)` order and merged into the in-rows by
    /// [`CsrAdjacency::apply_deltas_into`], which reuses `spare`'s arrays
    /// when their capacity holds the result and allocates fresh otherwise;
    /// the result is the same either way, bit for bit.
    ///
    /// # Panics
    /// Panics if `num_nodes < self.num_nodes()`.
    pub fn apply_deltas_into(
        &self,
        num_nodes: usize,
        deltas: &[EdgeDelta<'_>],
        spare: Option<InGraph>,
    ) -> InGraph {
        let flip = |edges: &[(NodeId, NodeId)]| {
            let mut flipped: Vec<(NodeId, NodeId)> = edges.iter().map(|&(u, v)| (v, u)).collect();
            flipped.sort_unstable();
            flipped
        };
        let owned: Vec<_> = deltas
            .iter()
            .map(|&(insertions, deletions)| (flip(insertions), flip(deletions)))
            .collect();
        let flipped: Vec<EdgeDelta> = owned
            .iter()
            .map(|(insertions, deletions)| (insertions.as_slice(), deletions.as_slice()))
            .collect();
        let spare = spare.map(|g| g.in_adj);
        InGraph::from_in_csr(self.in_adj.apply_deltas_into(num_nodes, &flipped, spare))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiGraph;

    /// 0 -> 2, 1 -> 2, 2 -> 3, 3 -> 0.
    fn sample() -> DiGraph {
        DiGraph::from_edges(4, &[(0, 2), (1, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn holds_the_in_rows_of_its_digraph_and_nothing_else() {
        let g = sample();
        let ins = g.clone().into_in_graph();
        assert_eq!(ins.in_csr(), g.in_csr());
        assert_eq!((ins.num_nodes(), ins.num_edges()), (4, 4));
        assert_eq!(ins.memory_bytes(), 8 * (4 + 1) + 4 * 4);
        assert_eq!(ins.memory_bytes(), g.in_csr().memory_bytes());
        assert_eq!(ins.in_neighbors(2), &[0, 1]);
        assert!(ins.validate());
        for u in 0..4 {
            for v in 0..4 {
                assert_eq!(ins.has_edge(u, v), g.has_edge(u, v), "{u} -> {v}");
            }
        }
        let mut edges: Vec<_> = ins.iter_edges().collect();
        assert_eq!(edges, vec![(3, 0), (0, 2), (1, 2), (2, 3)]);
        edges.sort_unstable();
        assert_eq!(edges, g.iter_edges().collect::<Vec<_>>());
    }

    #[test]
    fn a_rebuild_equals_the_in_rows_of_the_digraph_rebuild() {
        let g = sample(); // 0 -> 2, 1 -> 2, 2 -> 3, 3 -> 0
        let ins = g.in_graph();
        let delta: [EdgeDelta; 1] = [(&[(0, 1), (3, 2), (4, 0)], &[(1, 2)])];
        // The graph rebuilt from scratch over the edges the delta leaves.
        let edges = [(0, 1), (0, 2), (2, 3), (3, 0), (3, 2), (4, 0)];
        let want = DiGraph::from_edges(5, &edges).into_in_graph();
        let got = ins.apply_deltas_into(5, &delta, None);
        assert_eq!(got, want);
        assert_eq!(got.num_nodes(), 5);
        assert!(got.has_edge(4, 0) && got.has_edge(3, 2) && !got.has_edge(1, 2));
        assert_eq!(got.in_neighbors(2), &[0, 3]);
        // The base graph is untouched.
        assert!(ins.has_edge(1, 2) && ins.num_edges() == 4);
        // A spare with room is written in place.
        let roomy = ins.apply_deltas_into(6, &[], None);
        let ptr = roomy.in_csr().targets().as_ptr();
        let reused = ins.apply_deltas_into(5, &delta, Some(roomy));
        assert_eq!(reused, got);
        assert_eq!(reused.in_csr().targets().as_ptr(), ptr);
        // A built graph has exact capacity: too small for a larger result,
        // so the arrays are fresh.
        let tight = DiGraph::from_edges(2, &[(0, 1)]).into_in_graph();
        let tight_ptr = tight.in_csr().targets().as_ptr();
        let fresh = ins.apply_deltas_into(5, &delta, Some(tight));
        assert_eq!(fresh, got);
        assert_ne!(fresh.in_csr().targets().as_ptr(), tight_ptr);
    }

    #[test]
    fn validate_rejects_unsorted_rows_and_out_of_range_sources() {
        let unsorted = CsrAdjacency::from_raw_parts(vec![0, 2, 2], vec![1, 0]);
        assert!(!InGraph::from_in_csr(unsorted).validate());
        let out_of_range = CsrAdjacency::from_raw_parts(vec![0, 1, 1], vec![2]);
        assert!(!InGraph::from_in_csr(out_of_range).validate());
        let empty = DiGraph::from_edges(0, &[]).into_in_graph();
        assert!(empty.validate() && empty.is_empty());
    }
}
