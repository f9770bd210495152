//! The directed graph type used by every SimRank algorithm.

use crate::csr::{CsrAdjacency, EdgeDelta};
use crate::NodeId;

/// A directed graph with both orientations materialised in CSR form.
///
/// SimRank's random-walk interpretation walks *backwards* along edges (to a
/// uniformly random in-neighbor), while the Linearization family of algorithms
/// needs both `P·x` (mass flowing from a node to its in-neighbors) and `Pᵀ·x`
/// (averaging over in-neighbors). Storing the out-CSR and the in-CSR side by
/// side makes both directions `O(deg)` with contiguous memory access.
///
/// The structure is immutable after construction; build it with
/// [`crate::GraphBuilder`] or one of the [`crate::generators`].
#[derive(Clone, Debug)]
pub struct DiGraph {
    num_nodes: usize,
    num_edges: usize,
    out_adj: CsrAdjacency,
    in_adj: CsrAdjacency,
}

impl DiGraph {
    /// Assembles a graph from pre-built CSR orientations.
    ///
    /// `out_adj` stores edges as `u → v` under source `u`; `in_adj` stores the
    /// same edges under target `v`. Both must cover the same node count and
    /// edge count (checked by debug assertions).
    pub fn from_csr(out_adj: CsrAdjacency, in_adj: CsrAdjacency) -> Self {
        debug_assert_eq!(out_adj.num_nodes(), in_adj.num_nodes());
        debug_assert_eq!(out_adj.num_edges(), in_adj.num_edges());
        DiGraph {
            num_nodes: out_adj.num_nodes(),
            num_edges: out_adj.num_edges(),
            out_adj,
            in_adj,
        }
    }

    /// Assembles a graph from its out-orientation: the in-orientation is its
    /// [`CsrAdjacency::transpose`], every in-row ascending by source with
    /// duplicates kept. Every graph this crate builds from edges (the builder,
    /// [`DiGraph::from_edges`], the generators, snapshot decode) ends here.
    pub(crate) fn from_out_csr(out_adj: CsrAdjacency) -> Self {
        let in_adj = out_adj.transpose();
        DiGraph::from_csr(out_adj, in_adj)
    }

    /// Convenience constructor from an explicit edge list.
    ///
    /// Node ids must be `< num_nodes`. Duplicate edges are kept as-is; use
    /// [`crate::GraphBuilder`] for deduplication and validation.
    pub fn from_edges(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Self {
        DiGraph::from_out_csr(CsrAdjacency::from_edges(num_nodes, edges.iter().copied()))
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

    /// Out-degree `dout(v)`: the number of edges `v → w`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_adj.degree(v)
    }

    /// In-neighbors `I(v)` — the sources of edges pointing at `v` (sorted).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.in_adj.neighbors(v)
    }

    /// Out-neighbors `O(v)` — the targets of edges leaving `v` (sorted).
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.out_adj.neighbors(v)
    }

    /// `true` iff the directed edge `u → v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        // Use the smaller adjacency list for the binary search.
        if self.out_degree(u) <= self.in_degree(v) {
            self.out_adj.has_edge(u, v)
        } else {
            self.in_adj.has_edge(v, u)
        }
    }

    /// Iterates over all edges `(u, v)` meaning `u → v`, grouped by source.
    pub fn iter_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.out_adj.iter_edges()
    }

    /// Iterates over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes as NodeId
    }

    /// The out-orientation CSR (edges keyed by source).
    #[inline]
    pub fn out_csr(&self) -> &CsrAdjacency {
        &self.out_adj
    }

    /// The in-orientation CSR (edges keyed by target).
    #[inline]
    pub fn in_csr(&self) -> &CsrAdjacency {
        &self.in_adj
    }

    /// Returns the transposed graph (every edge reversed).
    pub fn transpose(&self) -> DiGraph {
        DiGraph {
            num_nodes: self.num_nodes,
            num_edges: self.num_edges,
            out_adj: self.in_adj.clone(),
            in_adj: self.out_adj.clone(),
        }
    }

    /// Number of nodes with `din(v) = 0` ("dangling" for the backward walk).
    pub fn count_sources(&self) -> usize {
        self.nodes().filter(|&v| self.in_degree(v) == 0).count()
    }

    /// Number of nodes with `dout(v) = 0` (sinks).
    pub fn count_sinks(&self) -> usize {
        self.nodes().filter(|&v| self.out_degree(v) == 0).count()
    }

    /// Average in-degree `m / n` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.num_edges as f64 / self.num_nodes as f64
        }
    }

    /// Maximum in-degree over all nodes (0 for the empty graph).
    pub fn max_in_degree(&self) -> usize {
        self.nodes().map(|v| self.in_degree(v)).max().unwrap_or(0)
    }

    /// Maximum out-degree over all nodes (0 for the empty graph).
    pub fn max_out_degree(&self) -> usize {
        self.nodes().map(|v| self.out_degree(v)).max().unwrap_or(0)
    }

    /// Approximate heap footprint of the graph structure in bytes.
    ///
    /// This is what the paper's Table 3 calls the "graph size": the memory
    /// needed to hold both CSR orientations.
    pub fn memory_bytes(&self) -> usize {
        self.out_adj.memory_bytes() + self.in_adj.memory_bytes()
    }

    /// Rebuilds the graph with a batch of edge insertions and deletions
    /// applied to *both* CSR orientations: [`DiGraph::apply_deltas`] with one
    /// delta. Each orientation costs one bulk copy of the rows the delta
    /// does not name plus a merge of the rows it does, `O(n + m + Δ log Δ)` —
    /// the delta→CSR path used by epoch-based dynamic stores, which is much
    /// cheaper than re-sorting the full edge list.
    ///
    /// `insertions` and `deletions` must be sorted by `(source, target)` and
    /// duplicate-free (the in-orientation copies are re-sorted internally).
    /// Endpoints must be `< num_nodes`; deletions remove every stored
    /// occurrence of their edge, and deletions of absent edges are ignored.
    /// Inserting an edge that is already present stores a parallel copy, so
    /// set-semantics callers must pre-filter with [`DiGraph::has_edge`].
    pub fn apply_delta(
        &self,
        insertions: &[(NodeId, NodeId)],
        deletions: &[(NodeId, NodeId)],
    ) -> DiGraph {
        self.apply_deltas(&[(insertions, deletions)])
    }

    /// Rebuilds the graph with a sequence of `(insertions, deletions)`
    /// deltas applied in order, each under [`DiGraph::apply_delta`]'s
    /// contract: the result equals folding `apply_delta` over `deltas`, but
    /// each orientation is rebuilt in one [`CsrAdjacency::apply_deltas`]
    /// pass. [`DiGraph::apply_deltas_into`] with no new nodes and no spare.
    pub fn apply_deltas(&self, deltas: &[EdgeDelta<'_>]) -> DiGraph {
        self.apply_deltas_into(self.num_nodes, deltas, None)
    }

    /// Rebuilds the graph over `num_nodes` nodes with a sequence of
    /// `(insertions, deletions)` deltas applied in order, into `spare`'s
    /// arrays where they have room.
    ///
    /// Nodes `self.num_nodes() .. num_nodes` are appended isolated before the
    /// first delta, so any delta may attach edges to them: this is how a
    /// store's `addnode` commit and its WAL replay grow the id space, in the
    /// same single copy as the edge merge. Each orientation is rebuilt by
    /// [`CsrAdjacency::apply_deltas_into`], which reuses the matching
    /// orientation of `spare` array by array when its capacity holds the
    /// result and allocates fresh otherwise; the result is the same either
    /// way, bit for bit.
    ///
    /// # Panics
    /// Panics if `num_nodes < self.num_nodes()`.
    pub fn apply_deltas_into(
        &self,
        num_nodes: usize,
        deltas: &[EdgeDelta<'_>],
        spare: Option<DiGraph>,
    ) -> DiGraph {
        let (spare_out, spare_in) = spare.map(|g| (g.out_adj, g.in_adj)).unzip();
        let out_adj = self.out_adj.apply_deltas_into(num_nodes, deltas, spare_out);
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
        let in_adj = self.in_adj.apply_deltas_into(num_nodes, &flipped, spare_in);
        DiGraph::from_csr(out_adj, in_adj)
    }

    /// Validates internal consistency (both orientations describe the same
    /// edge multiset). Intended for tests and debugging; `O(m log m)`.
    pub fn validate(&self) -> bool {
        if self.out_adj.num_edges() != self.in_adj.num_edges() {
            return false;
        }
        let mut fwd: Vec<(NodeId, NodeId)> = self.out_adj.iter_edges().collect();
        let mut bwd: Vec<(NodeId, NodeId)> =
            self.in_adj.iter_edges().map(|(v, u)| (u, v)).collect();
        fwd.sort_unstable();
        bwd.sort_unstable();
        fwd == bwd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 4-node "paper" example: 0 -> 2, 1 -> 2, 2 -> 3, 3 -> 0.
    fn sample() -> DiGraph {
        DiGraph::from_edges(4, &[(0, 2), (1, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn basic_counts() {
        let g = sample();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(!g.is_empty());
        assert!((g.average_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grow_appends_isolated_nodes_without_touching_edges() {
        let g = sample();
        let grown = g.apply_deltas_into(7, &[], None);
        assert_eq!(grown.num_nodes(), 7);
        assert_eq!(grown.num_edges(), 4);
        assert!(grown.validate());
        for v in 4..7 {
            assert_eq!(grown.in_degree(v), 0);
            assert_eq!(grown.out_degree(v), 0);
        }
        assert!(grown.has_edge(0, 2));
        // Edges may attach to the new ids in the same rebuild.
        let attached = g.apply_deltas_into(7, &[(&[(4, 0), (5, 6)], &[])], None);
        assert!(attached.validate());
        assert!(attached.has_edge(5, 6));
        assert_eq!(attached.in_degree(0), 2);
        assert_eq!(
            attached.out_csr(),
            grown.apply_delta(&[(4, 0), (5, 6)], &[]).out_csr()
        );
        assert_eq!(
            attached.in_csr(),
            grown.apply_delta(&[(4, 0), (5, 6)], &[]).in_csr()
        );
    }

    #[test]
    fn a_rebuild_writes_into_a_spare_with_room_and_allocates_past_one_without() {
        let g = sample(); // 0 -> 2, 1 -> 2, 2 -> 3, 3 -> 0
        let delta: [EdgeDelta; 1] = [(&[(0, 1), (3, 2)], &[(1, 2)])];
        let want = g.apply_deltas(&delta);
        // A rebuilt graph has room to spare; its old edges must not leak.
        let roomy = DiGraph::from_edges(6, &[(5, 4), (4, 3)]).apply_deltas_into(6, &[], None);
        let (out_ptr, in_ptr) = (
            roomy.out_csr().targets().as_ptr(),
            roomy.in_csr().targets().as_ptr(),
        );
        let reused = g.apply_deltas_into(4, &delta, Some(roomy));
        assert_eq!(reused.out_csr(), want.out_csr());
        assert_eq!(reused.in_csr(), want.in_csr());
        assert_eq!(reused.out_csr().targets().as_ptr(), out_ptr);
        assert_eq!(reused.in_csr().targets().as_ptr(), in_ptr);
        // A decoded or cloned graph has exact capacity: too small for a
        // larger result, so the arrays are fresh.
        let tight = DiGraph::from_edges(2, &[(0, 1)]);
        let tight_ptr = tight.out_csr().targets().as_ptr();
        let fresh = g.apply_deltas_into(4, &delta, Some(tight));
        assert_eq!(fresh.out_csr(), want.out_csr());
        assert_eq!(fresh.in_csr(), want.in_csr());
        assert_ne!(fresh.out_csr().targets().as_ptr(), tight_ptr);
    }

    #[test]
    fn degrees_and_neighbors_are_consistent() {
        let g = sample();
        assert_eq!(g.in_degree(2), 2);
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert_eq!(g.out_degree(2), 1);
        assert_eq!(g.out_neighbors(2), &[3]);
        assert_eq!(g.in_degree(1), 0);
        assert_eq!(g.in_neighbors(1), &[] as &[NodeId]);
    }

    #[test]
    fn has_edge_checks_direction() {
        let g = sample();
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn transpose_reverses_all_edges() {
        let g = sample();
        let t = g.transpose();
        assert_eq!(t.num_edges(), g.num_edges());
        for (u, v) in g.iter_edges() {
            assert!(t.has_edge(v, u));
        }
        assert!(t.validate());
    }

    #[test]
    fn source_and_sink_counts() {
        let g = sample();
        assert_eq!(g.count_sources(), 1); // node 1 has no in-edges
        assert_eq!(g.count_sinks(), 0); // every node has at least one out-edge
        let with_sink = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(with_sink.count_sinks(), 1); // node 2 has no out-edges
        assert_eq!(with_sink.count_sources(), 1); // node 0 has no in-edges
    }

    #[test]
    fn max_degrees() {
        let g = sample();
        assert_eq!(g.max_in_degree(), 2);
        assert_eq!(g.max_out_degree(), 1);
    }

    #[test]
    fn validate_detects_consistency() {
        let g = sample();
        assert!(g.validate());
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::from_edges(0, &[]);
        assert!(g.is_empty());
        assert_eq!(g.count_sources(), 0);
        assert_eq!(g.max_in_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert!(g.validate());
    }

    #[test]
    fn isolated_nodes_are_allowed() {
        let g = DiGraph::from_edges(10, &[(0, 1)]);
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.in_degree(9), 0);
        assert_eq!(g.out_degree(9), 0);
    }

    #[test]
    fn nodes_iterator_covers_all() {
        let g = sample();
        let nodes: Vec<_> = g.nodes().collect();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn apply_delta_updates_both_orientations_consistently() {
        let g = sample(); // 0 -> 2, 1 -> 2, 2 -> 3, 3 -> 0
        let updated = g.apply_delta(&[(0, 1), (3, 2)], &[(1, 2)]);
        assert_eq!(updated.num_edges(), 5);
        assert!(updated.has_edge(0, 1));
        assert!(updated.has_edge(3, 2));
        assert!(!updated.has_edge(1, 2));
        assert!(updated.validate(), "orientations must stay in sync");
        assert_eq!(updated.in_neighbors(2), &[0, 3]);
        // The base graph is an untouched snapshot.
        assert!(g.has_edge(1, 2));
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn apply_delta_equals_from_scratch_construction() {
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let updated = g.apply_delta(&[(0, 3), (2, 5), (4, 1)], &[(1, 2), (5, 0)]);
        let fresh =
            DiGraph::from_edges(6, &[(0, 1), (0, 3), (2, 3), (2, 5), (3, 4), (4, 1), (4, 5)]);
        assert_eq!(updated.out_csr(), fresh.out_csr());
        assert_eq!(updated.in_csr(), fresh.in_csr());
    }

    #[test]
    fn memory_accounting_scales_with_edges() {
        let small = DiGraph::from_edges(4, &[(0, 1)]);
        let big = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]);
        assert!(big.memory_bytes() > small.memory_bytes());
    }
}
