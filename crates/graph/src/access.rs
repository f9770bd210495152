//! The graph-access seam: [`NeighborAccess`].
//!
//! Every SimRank kernel in this workspace needs exactly three things from a
//! graph: node/edge counts, in-degrees, and the sorted in-neighbor lists. A
//! √c-walk steps to a uniform in-neighbor, `P·x` scatters over in-rows and
//! `Pᵀ·x` averages over them; nothing reads an out-row. This trait captures
//! that contract so the storage representation becomes interchangeable — an
//! in-memory CSR ([`InGraph`], or a [`DiGraph`] through its in-rows), a
//! buffer-managed page store (`exactsim-store`'s `PagedGraph`), or any
//! future mmap'd snapshot — without the solvers knowing which one they are
//! running against.
//!
//! ## The guard type
//!
//! `in_neighbors` returns [`NeighborAccess::Neighbors`], a generic
//! associated type that merely has to [`Deref`] to `&[NodeId]`:
//!
//! * the in-memory graphs use `&[NodeId]` itself — a zero-overhead slice
//!   return, so the fast path compiles to exactly the code it always was
//!   (the bench gate in CI holds this to within noise);
//! * a paged backend returns a *pin guard* that keeps the underlying buffer
//!   frame pinned (and therefore un-evictable) for as long as the caller
//!   reads the slice, unpinning on drop.
//!
//! Generic code therefore iterates as `graph.in_neighbors(v).iter()` (deref
//! coercion reaches the slice) and must not hold many guards at once: the
//! contract is **at most a few live guards per thread**, so a tiny buffer
//! pool never deadlocks against its own pins.
//!
//! ## Run accessors
//!
//! Kernels that scan many nodes in ascending order (the `P·x` and `Pᵀ·x`
//! multiplies) call [`NeighborAccess::for_each_in_neighbors`] with the whole
//! run instead of one accessor call per node. The provided default is
//! exactly that per-node loop; a paged backend overrides it to fetch each
//! page once per run of consecutive nodes stored on it.
//!
//! ## Determinism contract
//!
//! Implementations must return the same neighbor lists (same order — sorted
//! ascending, like [`crate::CsrAdjacency`] guarantees) as the equivalent
//! in-memory CSR. Everything downstream — sorted workspace drains,
//! per-node RNG streams, row-sharded multiplies — then produces bit-identical
//! results regardless of the backend, which is what the in-memory-vs-paged
//! property tests pin.

use std::ops::Deref;
use std::sync::Arc;

use crate::digraph::DiGraph;
use crate::ingraph::InGraph;
use crate::NodeId;

/// Read-only in-adjacency access for directed graphs with dense node ids
/// `0..num_nodes()`.
///
/// See the [module docs](self) for the guard-type and determinism contracts.
/// `Send + Sync` is a supertrait because one solver, and the graph it holds,
/// serves concurrent queries from many threads.
pub trait NeighborAccess: Send + Sync {
    /// The neighbor-list guard: a slice for in-memory backends, a buffer-pool
    /// pin guard for paged ones.
    type Neighbors<'a>: Deref<Target = [NodeId]>
    where
        Self: 'a;

    /// Number of nodes; valid ids are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;

    /// Number of directed edges.
    fn num_edges(&self) -> usize;

    /// In-degree of `v` (must equal `in_neighbors(v).len()`), available
    /// without touching adjacency storage — kernels call this in hot loops.
    fn in_degree(&self, v: NodeId) -> usize;

    /// The sorted in-neighbors of `v` (sources of edges `u → v`).
    fn in_neighbors(&self, v: NodeId) -> Self::Neighbors<'_>;

    /// `true` iff the edge `u → v` exists. The default binary-searches `v`'s
    /// in-neighbor list for `u`; backends with cheaper membership tests may
    /// override.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.in_neighbors(v).binary_search(&u).is_ok()
    }

    /// Calls `f(v, in_neighbors(v))` for every `v` of `nodes`, in order —
    /// empty lists included. The default is the per-node loop; backends
    /// whose lists are cheaper to hand out in runs (ascending node order)
    /// override it. See the [module docs](self#run-accessors).
    #[inline]
    fn for_each_in_neighbors<I, F>(&self, nodes: I, mut f: F)
    where
        I: IntoIterator<Item = NodeId>,
        F: FnMut(NodeId, &[NodeId]),
    {
        for v in nodes {
            f(v, &self.in_neighbors(v));
        }
    }

    /// Bytes of this backend's state resident in RAM (for an in-memory CSR
    /// that is the whole graph; for a paged backend only the directory,
    /// offsets, and buffer pool).
    fn resident_bytes(&self) -> usize;
}

impl NeighborAccess for InGraph {
    type Neighbors<'a> = &'a [NodeId];

    #[inline(always)]
    fn num_nodes(&self) -> usize {
        InGraph::num_nodes(self)
    }

    #[inline(always)]
    fn num_edges(&self) -> usize {
        InGraph::num_edges(self)
    }

    #[inline(always)]
    fn in_degree(&self, v: NodeId) -> usize {
        InGraph::in_degree(self, v)
    }

    #[inline(always)]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        InGraph::in_neighbors(self, v)
    }

    #[inline(always)]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        InGraph::has_edge(self, u, v)
    }

    #[inline(always)]
    fn resident_bytes(&self) -> usize {
        InGraph::memory_bytes(self)
    }
}

/// A `DiGraph` serves its in-rows; its out-CSR is not part of this seam.
impl NeighborAccess for DiGraph {
    type Neighbors<'a> = &'a [NodeId];

    #[inline(always)]
    fn num_nodes(&self) -> usize {
        DiGraph::num_nodes(self)
    }

    #[inline(always)]
    fn num_edges(&self) -> usize {
        DiGraph::num_edges(self)
    }

    #[inline(always)]
    fn in_degree(&self, v: NodeId) -> usize {
        DiGraph::in_degree(self, v)
    }

    #[inline(always)]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        DiGraph::in_neighbors(self, v)
    }

    #[inline(always)]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        DiGraph::has_edge(self, u, v)
    }

    #[inline(always)]
    fn resident_bytes(&self) -> usize {
        DiGraph::memory_bytes(self)
    }
}

/// References delegate, so `ExactSim<&DiGraph>`-style borrowing handles keep
/// working exactly as under the old `G: Borrow<DiGraph>` bound.
impl<G: NeighborAccess> NeighborAccess for &G {
    type Neighbors<'a>
        = G::Neighbors<'a>
    where
        Self: 'a;

    #[inline(always)]
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    #[inline(always)]
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    #[inline(always)]
    fn in_degree(&self, v: NodeId) -> usize {
        (**self).in_degree(v)
    }

    #[inline(always)]
    fn in_neighbors(&self, v: NodeId) -> Self::Neighbors<'_> {
        (**self).in_neighbors(v)
    }

    #[inline(always)]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        (**self).has_edge(u, v)
    }

    #[inline(always)]
    fn for_each_in_neighbors<I, F>(&self, nodes: I, f: F)
    where
        I: IntoIterator<Item = NodeId>,
        F: FnMut(NodeId, &[NodeId]),
    {
        (**self).for_each_in_neighbors(nodes, f)
    }

    #[inline(always)]
    fn resident_bytes(&self) -> usize {
        (**self).resident_bytes()
    }
}

/// Shared-ownership handles delegate, so services can hold
/// `ExactSim<Arc<DiGraph>>` (or an `Arc` of any other backend) and clone the
/// handle into per-epoch solver instances.
impl<G: NeighborAccess> NeighborAccess for Arc<G> {
    type Neighbors<'a>
        = G::Neighbors<'a>
    where
        Self: 'a;

    #[inline(always)]
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    #[inline(always)]
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    #[inline(always)]
    fn in_degree(&self, v: NodeId) -> usize {
        (**self).in_degree(v)
    }

    #[inline(always)]
    fn in_neighbors(&self, v: NodeId) -> Self::Neighbors<'_> {
        (**self).in_neighbors(v)
    }

    #[inline(always)]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        (**self).has_edge(u, v)
    }

    #[inline(always)]
    fn for_each_in_neighbors<I, F>(&self, nodes: I, f: F)
    where
        I: IntoIterator<Item = NodeId>,
        F: FnMut(NodeId, &[NodeId]),
    {
        (**self).for_each_in_neighbors(nodes, f)
    }

    #[inline(always)]
    fn resident_bytes(&self) -> usize {
        (**self).resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> DiGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.add_edge(3, 0);
        b.build()
    }

    /// Exercises a graph purely through the trait, as the solvers do.
    fn trait_summary<G: NeighborAccess>(g: &G) -> (usize, usize, Vec<NodeId>, Vec<usize>) {
        let mut ins = Vec::new();
        let mut degrees = Vec::new();
        for v in 0..g.num_nodes() as NodeId {
            ins.extend(g.in_neighbors(v).iter().copied());
            degrees.push(g.in_degree(v));
        }
        (g.num_nodes(), g.num_edges(), ins, degrees)
    }

    #[test]
    fn digraph_impl_matches_inherent_methods() {
        let g = sample();
        let (n, m, ins, degrees) = trait_summary(&g);
        assert_eq!(n, 4);
        assert_eq!(m, 4);
        assert_eq!(ins, vec![3, 0, 1, 2]);
        assert_eq!(degrees, vec![1, 0, 2, 1]);
        for v in 0..4u32 {
            assert_eq!(NeighborAccess::in_degree(&g, v), g.in_neighbors(v).len());
        }
        assert!(NeighborAccess::has_edge(&g, 0, 2));
        assert!(!NeighborAccess::has_edge(&g, 2, 0));
        assert_eq!(NeighborAccess::resident_bytes(&g), g.memory_bytes());
    }

    /// A backend that overrides nothing it need not, so the provided
    /// `has_edge` runs.
    struct Plain(InGraph);

    impl NeighborAccess for Plain {
        type Neighbors<'a> = &'a [NodeId];

        fn num_nodes(&self) -> usize {
            self.0.num_nodes()
        }

        fn num_edges(&self) -> usize {
            self.0.num_edges()
        }

        fn in_degree(&self, v: NodeId) -> usize {
            self.0.in_degree(v)
        }

        fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
            self.0.in_neighbors(v)
        }

        fn resident_bytes(&self) -> usize {
            self.0.memory_bytes()
        }
    }

    #[test]
    fn in_graph_serves_the_digraph_rows_at_one_orientation() {
        let g = sample();
        let ins = g.clone().into_in_graph();
        assert_eq!(trait_summary(&ins), trait_summary(&g));
        assert_eq!(NeighborAccess::resident_bytes(&ins), 8 * (4 + 1) + 4 * 4);
        assert_eq!(
            2 * NeighborAccess::resident_bytes(&ins),
            NeighborAccess::resident_bytes(&g)
        );
        let plain = Plain(ins.clone());
        for u in 0..4 {
            for v in 0..4 {
                let want = g.has_edge(u, v);
                assert_eq!(NeighborAccess::has_edge(&ins, u, v), want, "{u} -> {v}");
                assert_eq!(NeighborAccess::has_edge(&plain, u, v), want, "{u} -> {v}");
            }
        }
    }

    #[test]
    fn run_accessors_visit_every_node_in_order() {
        let g = sample();
        let mut ins = Vec::new();
        g.for_each_in_neighbors([3, 0, 2], |v, list| ins.push((v, list.to_vec())));
        assert_eq!(ins, vec![(3, vec![2]), (0, vec![3]), (2, vec![0, 1])]);
        let mut lens = Vec::new();
        Arc::new(sample()).for_each_in_neighbors(0..4, |v, list| lens.push((v, list.len())));
        assert_eq!(lens, vec![(0, 1), (1, 0), (2, 2), (3, 1)]);
    }

    #[test]
    fn reference_and_arc_handles_delegate() {
        let g = sample();
        let direct = trait_summary(&g);
        let by_ref = trait_summary(&&g);
        let arc = Arc::new(sample());
        let by_arc = trait_summary(&arc);
        assert_eq!(direct, by_ref);
        assert_eq!(direct, by_arc);
    }
}
