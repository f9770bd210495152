//! The directed graph type every graph is built as.

use crate::csr::CsrAdjacency;
use crate::ingraph::InGraph;
use crate::NodeId;

/// A directed graph with both orientations materialised in CSR form: an
/// [`InGraph`] (each node's sorted in-neighbors) plus the out-CSR (each
/// node's sorted out-neighbors).
///
/// This is the construction and analysis type: the builder, the edge-list
/// loader and the generators produce one, [`DiGraph::from_in_graph`] gives
/// in-rows (a decoded snapshot, a merged commit) their out-rows, and degree
/// statistics, PageRank and edge-list export read the out-rows.
/// SimRank queries read in-rows only, so a server keeps just the
/// [`InGraph`] ([`DiGraph::into_in_graph`] drops the out-CSR without a
/// copy); every kernel also runs on a `DiGraph` directly, through the same
/// in-rows.
///
/// The structure is immutable after construction; build it with
/// [`crate::GraphBuilder`] or one of the [`crate::generators`].
#[derive(Clone, Debug)]
pub struct DiGraph {
    ins: InGraph,
    out_adj: CsrAdjacency,
}

impl DiGraph {
    /// Assembles a graph from its out-orientation: the in-orientation is its
    /// [`CsrAdjacency::transpose`], every in-row ascending by source with
    /// duplicates kept. Every graph this crate builds from edges (the builder,
    /// [`DiGraph::from_edges`], the generators) ends here.
    pub(crate) fn from_out_csr(out_adj: CsrAdjacency) -> Self {
        DiGraph {
            ins: InGraph::from_in_csr(out_adj.transpose()),
            out_adj,
        }
    }

    /// Adds the out-orientation to an [`InGraph`]: one
    /// [`CsrAdjacency::transpose`] of its in-rows, which visits the targets
    /// in ascending order, so every out-row comes out ascending with its
    /// duplicates kept — the out-CSR every constructor of this crate builds.
    pub fn from_in_graph(ins: InGraph) -> Self {
        let out_adj = ins.in_csr().transpose();
        DiGraph { ins, out_adj }
    }

    /// Convenience constructor from an explicit edge list.
    ///
    /// Node ids must be `< num_nodes`. Duplicate edges are kept as-is; use
    /// [`crate::GraphBuilder`] for deduplication and validation.
    pub fn from_edges(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Self {
        DiGraph::from_out_csr(CsrAdjacency::from_edges(num_nodes, edges.iter().copied()))
    }

    /// The in-rows alone: everything a SimRank query reads.
    #[inline]
    pub fn in_graph(&self) -> &InGraph {
        &self.ins
    }

    /// Drops the out-CSR and keeps the in-rows, without copying them.
    pub fn into_in_graph(self) -> InGraph {
        self.ins
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.ins.num_nodes()
    }

    /// Number of directed edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.ins.num_edges()
    }

    /// `true` iff the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ins.is_empty()
    }

    /// In-degree `din(v)`: the number of edges `u → v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.ins.in_degree(v)
    }

    /// Out-degree `dout(v)`: the number of edges `v → w`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_adj.degree(v)
    }

    /// In-neighbors `I(v)` — the sources of edges pointing at `v` (sorted).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.ins.in_neighbors(v)
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
            self.ins.has_edge(u, v)
        }
    }

    /// Iterates over all edges `(u, v)` meaning `u → v`, grouped by source.
    pub fn iter_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.out_adj.iter_edges()
    }

    /// Iterates over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// The out-orientation CSR (edges keyed by source).
    #[inline]
    pub fn out_csr(&self) -> &CsrAdjacency {
        &self.out_adj
    }

    /// The in-orientation CSR (edges keyed by target).
    #[inline]
    pub fn in_csr(&self) -> &CsrAdjacency {
        self.ins.in_csr()
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
        if self.is_empty() {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
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
    /// needed to hold both CSR orientations. A server holds one of them
    /// ([`InGraph::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.out_adj.memory_bytes() + self.ins.memory_bytes()
    }

    /// Validates internal consistency (both orientations describe the same
    /// edge multiset). Intended for tests and debugging; `O(m log m)`.
    pub fn validate(&self) -> bool {
        if self.out_adj.num_edges() != self.num_edges() {
            return false;
        }
        let mut fwd: Vec<(NodeId, NodeId)> = self.out_adj.iter_edges().collect();
        let mut bwd: Vec<(NodeId, NodeId)> = self.ins.iter_edges().collect();
        fwd.sort_unstable();
        bwd.sort_unstable();
        fwd == bwd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::EdgeDelta;

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

    /// `g` with one delta merged into its in-rows over `num_nodes` nodes
    /// (the merge a store's commit runs), given back its out-rows.
    fn merged(g: &DiGraph, num_nodes: usize, delta: EdgeDelta) -> DiGraph {
        DiGraph::from_in_graph(g.in_graph().apply_deltas_into(num_nodes, &[delta], None))
    }

    #[test]
    fn grow_appends_isolated_nodes_without_touching_edges() {
        let g = sample();
        let grown = merged(&g, 7, (&[], &[]));
        assert_eq!(grown.num_nodes(), 7);
        assert_eq!(grown.num_edges(), 4);
        assert!(grown.validate());
        for v in 4..7 {
            assert_eq!(grown.in_degree(v), 0);
            assert_eq!(grown.out_degree(v), 0);
        }
        assert!(grown.has_edge(0, 2));
        // Edges may attach to the new ids in the same rebuild.
        let attached = merged(&g, 7, (&[(4, 0), (5, 6)], &[]));
        assert!(attached.validate());
        assert!(attached.has_edge(5, 6));
        assert_eq!(attached.in_degree(0), 2);
        let later = merged(&grown, 7, (&[(4, 0), (5, 6)], &[]));
        assert_eq!(attached.out_csr(), later.out_csr());
        assert_eq!(attached.in_csr(), later.in_csr());
    }

    #[test]
    fn the_in_rows_alone_rebuild_the_whole_graph() {
        let multigraph = DiGraph::from_edges(5, &[(0, 1), (0, 1), (3, 3), (4, 0), (1, 0), (4, 1)]);
        for g in [sample(), multigraph, DiGraph::from_edges(0, &[])] {
            let rebuilt = DiGraph::from_in_graph(g.in_graph().clone());
            assert_eq!(rebuilt.out_csr(), g.out_csr());
            assert_eq!(rebuilt.in_csr(), g.in_csr());
            assert!(rebuilt.validate());
            // Dropping the out-CSR moves the in-rows, it does not copy them.
            let targets = g.in_csr().targets().as_ptr();
            assert_eq!(g.into_in_graph().in_csr().targets().as_ptr(), targets);
        }
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
    fn apply_delta_equals_from_scratch_construction() {
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let updated = merged(&g, 6, (&[(0, 3), (2, 5), (4, 1)], &[(1, 2), (5, 0)]));
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
