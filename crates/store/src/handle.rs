//! [`GraphHandle`]: the store's published graph, behind either backend.
//!
//! A [`crate::GraphStore`] publishes each epoch as a `GraphHandle` — a cheap
//! clonable handle that is either the in-memory in-rows (`Mem`, an
//! [`InGraph`], the zero-overhead fast path) or a buffer-pool-backed page
//! file (`Paged`, for graphs whose working set exceeds RAM). Either way the
//! handle serves in-rows only: that is all a query reads. The handle implements [`NeighborAccess`], so
//! every solver takes it directly; the enum dispatch sits outside the
//! per-neighbor hot loop for `Mem` (the returned guard *is* the slice).

use std::ops::Deref;
use std::sync::Arc;

use exactsim_graph::{InGraph, NeighborAccess, NodeId};

use crate::error::StoreError;
use crate::paged::{PagedGraph, PagedNeighbors};

/// A published graph: in-memory CSR or paged. Cloning clones an `Arc`.
#[derive(Clone, Debug)]
pub enum GraphHandle {
    /// The graph's in-rows resident in RAM (the default, zero-overhead
    /// backend).
    Mem(Arc<InGraph>),
    /// Adjacency streamed from a page file through a pinning buffer pool.
    Paged(Arc<PagedGraph>),
}

impl GraphHandle {
    /// `Some` iff this handle is the in-memory backend.
    pub fn as_mem(&self) -> Option<&Arc<InGraph>> {
        match self {
            GraphHandle::Mem(g) => Some(g),
            GraphHandle::Paged(_) => None,
        }
    }

    /// `Some` iff this handle is the paged backend.
    pub fn as_paged(&self) -> Option<&Arc<PagedGraph>> {
        match self {
            GraphHandle::Paged(g) => Some(g),
            GraphHandle::Mem(_) => None,
        }
    }

    /// The in-memory in-rows: the existing `Arc` for `Mem`, a transient
    /// `O(graph)`-memory rebuild for `Paged` (the commit/compaction path).
    pub fn materialize(&self) -> Result<Arc<InGraph>, StoreError> {
        match self {
            GraphHandle::Mem(g) => Ok(Arc::clone(g)),
            GraphHandle::Paged(p) => Ok(Arc::new(p.materialize()?)),
        }
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        NeighborAccess::num_nodes(self)
    }

    /// Edge count.
    pub fn num_edges(&self) -> usize {
        NeighborAccess::num_edges(self)
    }

    /// `true` iff the edge `u → v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        NeighborAccess::has_edge(self, u, v)
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        NeighborAccess::in_degree(self, v)
    }

    /// Structural self-check ([`InGraph::validate`]: sorted in-rows of
    /// in-range sources). `O(n + m)`, for tests; the paged backend
    /// materializes transiently.
    pub fn validate(&self) -> bool {
        match self {
            GraphHandle::Mem(g) => g.validate(),
            GraphHandle::Paged(p) => p.materialize().map(|g| g.validate()).unwrap_or(false),
        }
    }
}

/// The neighbor guard of a [`GraphHandle`]: a plain slice for `Mem`, a
/// buffer-pool pin guard for `Paged`.
pub enum HandleNeighbors<'a> {
    /// Borrowed straight from the in-memory CSR.
    Mem(&'a [NodeId]),
    /// Pinned page range.
    Paged(PagedNeighbors<'a>),
}

impl Deref for HandleNeighbors<'_> {
    type Target = [NodeId];

    #[inline]
    fn deref(&self) -> &[NodeId] {
        match self {
            HandleNeighbors::Mem(s) => s,
            HandleNeighbors::Paged(g) => g,
        }
    }
}

impl NeighborAccess for GraphHandle {
    type Neighbors<'a> = HandleNeighbors<'a>;

    #[inline]
    fn num_nodes(&self) -> usize {
        match self {
            GraphHandle::Mem(g) => g.num_nodes(),
            GraphHandle::Paged(p) => NeighborAccess::num_nodes(&**p),
        }
    }

    #[inline]
    fn num_edges(&self) -> usize {
        match self {
            GraphHandle::Mem(g) => g.num_edges(),
            GraphHandle::Paged(p) => NeighborAccess::num_edges(&**p),
        }
    }

    #[inline]
    fn in_degree(&self, v: NodeId) -> usize {
        match self {
            GraphHandle::Mem(g) => g.in_degree(v),
            GraphHandle::Paged(p) => NeighborAccess::in_degree(&**p, v),
        }
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> HandleNeighbors<'_> {
        match self {
            GraphHandle::Mem(g) => HandleNeighbors::Mem(g.in_neighbors(v)),
            GraphHandle::Paged(p) => HandleNeighbors::Paged(p.in_neighbors(v)),
        }
    }

    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        match self {
            GraphHandle::Mem(g) => g.has_edge(u, v),
            GraphHandle::Paged(p) => NeighborAccess::has_edge(&**p, u, v),
        }
    }

    #[inline]
    fn for_each_in_neighbors<I, F>(&self, nodes: I, f: F)
    where
        I: IntoIterator<Item = NodeId>,
        F: FnMut(NodeId, &[NodeId]),
    {
        match self {
            GraphHandle::Mem(g) => g.for_each_in_neighbors(nodes, f),
            GraphHandle::Paged(p) => p.for_each_in_neighbors(nodes, f),
        }
    }

    fn resident_bytes(&self) -> usize {
        match self {
            GraphHandle::Mem(g) => g.memory_bytes(),
            GraphHandle::Paged(p) => NeighborAccess::resident_bytes(&**p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use exactsim_graph::DiGraph;

    #[test]
    fn mem_and_paged_handles_agree_through_the_trait() {
        let dir = std::env::temp_dir().join(format!("exactsim-handle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch-0.pages");
        let graph =
            Arc::new(DiGraph::from_edges(4, &[(0, 2), (1, 2), (2, 3), (3, 0)]).into_in_graph());
        PagedGraph::build(&path, &graph, 0, 8).unwrap();
        let paged = PagedGraph::open(&path, Arc::new(BufferPool::new(2))).unwrap();
        let mem = GraphHandle::Mem(Arc::clone(&graph));
        let paged = GraphHandle::Paged(Arc::new(paged));
        for h in [&mem, &paged] {
            assert_eq!(h.num_nodes(), 4);
            assert_eq!(h.num_edges(), 4);
            assert!(h.has_edge(0, 2));
            assert!(!h.has_edge(2, 0));
            assert_eq!(h.in_degree(2), 2);
            assert!(h.validate());
            let ins: Vec<NodeId> = h.in_neighbors(2).iter().copied().collect();
            assert_eq!(ins, vec![0, 1]);
        }
        assert_eq!(mem.materialize().unwrap(), paged.materialize().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
