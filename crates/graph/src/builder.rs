//! Incremental graph construction with validation.

use crate::csr::CsrAdjacency;
use crate::digraph::DiGraph;
use crate::error::GraphError;
use crate::NodeId;

/// How the builder treats self-loops `v → v`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SelfLoopPolicy {
    /// Keep self-loops (SimRank's definition tolerates them; the in-neighbor
    /// set of `v` then contains `v` itself).
    Keep,
    /// Silently drop self-loops. This matches the preprocessing commonly
    /// applied to the SNAP datasets in the SimRank literature.
    #[default]
    Drop,
}

/// Incremental builder for [`DiGraph`].
///
/// The builder accepts edges in any order, optionally symmetrises them
/// (undirected input), deduplicates parallel edges, and applies a
/// [`SelfLoopPolicy`]. The resulting [`DiGraph`] is immutable.
///
/// ```
/// use exactsim_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(0, 1); // duplicate — removed by default
/// b.add_edge(1, 1); // self loop — dropped by default
/// b.add_edge(2, 0);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
    dedup: bool,
    self_loops: SelfLoopPolicy,
    symmetric: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with exactly `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
            dedup: true,
            self_loops: SelfLoopPolicy::default(),
            symmetric: false,
        }
    }

    /// Creates a builder and pre-allocates space for `num_edges` edges.
    pub fn with_capacity(num_nodes: usize, num_edges: usize) -> Self {
        let mut b = GraphBuilder::new(num_nodes);
        b.edges.reserve(num_edges);
        b
    }

    /// Disables / enables removal of duplicate (parallel) edges. Default: enabled.
    pub fn dedup(mut self, dedup: bool) -> Self {
        self.dedup = dedup;
        self
    }

    /// Sets the self-loop policy. Default: [`SelfLoopPolicy::Drop`].
    pub fn self_loop_policy(mut self, policy: SelfLoopPolicy) -> Self {
        self.self_loops = policy;
        self
    }

    /// Treats every added edge as undirected: `add_edge(u, v)` also inserts
    /// `v → u`. This is how the paper handles the undirected datasets
    /// (ca-GrQc, CA-HepTh, CA-HepPh, DBLP-Author).
    pub fn symmetric(mut self, symmetric: bool) -> Self {
        self.symmetric = symmetric;
        self
    }

    /// Number of nodes this builder was created with.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edge insertions accepted so far (before dedup).
    pub fn num_pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the directed edge `u → v` (plus `v → u` in symmetric mode).
    ///
    /// # Panics
    /// Panics if `u` or `v` is `>= num_nodes`. Use [`GraphBuilder::try_add_edge`]
    /// for fallible insertion.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.try_add_edge(u, v)
            .expect("edge endpoints must be < num_nodes");
    }

    /// Adds the directed edge `u → v`, returning an error if an endpoint is
    /// out of range.
    pub fn try_add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        let n = self.num_nodes as u64;
        for &x in &[u, v] {
            if (x as u64) >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: x as u64,
                    num_nodes: n,
                });
            }
        }
        if u == v && self.self_loops == SelfLoopPolicy::Drop {
            return Ok(());
        }
        self.edges.push((u, v));
        if self.symmetric && u != v {
            self.edges.push((v, u));
        }
        Ok(())
    }

    /// Adds every edge from an iterator. See [`GraphBuilder::add_edge`].
    pub fn extend_edges<I>(&mut self, edges: I)
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        for (u, v) in edges {
            self.add_edge(u, v);
        }
    }

    /// Finalises the graph.
    ///
    /// The out-orientation is counted from the edge list, which is freed
    /// before the in-orientation is transposed from it, so the build peaks
    /// at the edge list plus the out-CSR. With dedup on, the edge list is
    /// sorted first and no neighbor list needs a sort of its own.
    pub fn build(mut self) -> DiGraph {
        if self.dedup {
            self.edges.sort_unstable();
            self.edges.dedup();
        }
        let out_adj = CsrAdjacency::from_edges(self.num_nodes, self.edges.iter().copied());
        drop(self.edges);
        DiGraph::from_out_csr(out_adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deduplicates_by_default() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn keeps_duplicates_when_asked() {
        let mut b = GraphBuilder::new(3).dedup(false);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(0), &[1, 1]);
    }

    #[test]
    fn drops_self_loops_by_default() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn keeps_self_loops_when_asked() {
        let mut b = GraphBuilder::new(2).self_loop_policy(SelfLoopPolicy::Keep);
        b.add_edge(0, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 0));
        assert_eq!(g.in_degree(0), 1);
    }

    #[test]
    fn symmetric_mode_doubles_edges() {
        let mut b = GraphBuilder::new(3).symmetric(true);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 1));
    }

    #[test]
    fn symmetric_self_loop_not_doubled() {
        let mut b = GraphBuilder::new(2)
            .symmetric(true)
            .self_loop_policy(SelfLoopPolicy::Keep);
        b.add_edge(1, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn out_of_range_is_an_error() {
        let mut b = GraphBuilder::new(2);
        let err = b.try_add_edge(0, 5).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, .. }));
        assert_eq!(b.num_pending_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "num_nodes")]
    fn add_edge_panics_on_out_of_range() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(0, 3);
    }

    #[test]
    fn extend_edges_works() {
        let mut b = GraphBuilder::new(4);
        b.extend_edges(vec![(0, 1), (1, 2), (2, 3)]);
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn with_capacity_builds_same_graph() {
        let mut a = GraphBuilder::new(3);
        a.add_edge(0, 1);
        let mut b = GraphBuilder::with_capacity(3, 10);
        b.add_edge(0, 1);
        let (ga, gb) = (a.build(), b.build());
        assert_eq!(ga.num_edges(), gb.num_edges());
        assert_eq!(ga.num_nodes(), gb.num_nodes());
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert!(g.is_empty());
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
    }
}
