//! The staged edge-delta buffer.
//!
//! A [`DeltaBuffer`] accumulates edge insertions and deletions *relative to a
//! base graph* between commits. It maintains set semantics: an insertion of
//! an edge already present in the base is a no-op, a deletion cancels a
//! pending insertion of the same edge (and vice versa), and duplicates
//! collapse. Both sides are kept in `BTreeSet`s so the commit path can hand
//! sorted, duplicate-free slices straight to
//! [`exactsim_graph::InGraph::apply_deltas_into`].

use std::collections::BTreeSet;

use exactsim_graph::{NeighborAccess, NodeId};

#[cfg(test)]
use exactsim_graph::DiGraph;

/// A sorted, duplicate-free edge list, as produced by [`DeltaBuffer::lists`]
/// and consumed by [`exactsim_graph::InGraph::apply_deltas_into`].
pub type EdgeList = Vec<(NodeId, NodeId)>;

/// What staging one edge update did to the buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Staged {
    /// The update changed the pending delta (it will take effect on commit).
    Pending,
    /// The update cancelled the opposite pending update for the same edge,
    /// restoring the base graph's state for it.
    Cancelled,
    /// The update was a no-op: the base graph (plus the pending delta)
    /// already has the requested state for this edge.
    NoOp,
}

impl Staged {
    /// `true` unless the update was a [`Staged::NoOp`].
    pub fn changed(self) -> bool {
        !matches!(self, Staged::NoOp)
    }
}

/// Pending, deduplicated edge updates against a base graph, plus pending
/// node-id-space growth (`addnode`).
#[derive(Clone, Debug, Default)]
pub struct DeltaBuffer {
    insertions: BTreeSet<(NodeId, NodeId)>,
    deletions: BTreeSet<(NodeId, NodeId)>,
    /// Nodes to append at the top of the id space on the next commit. New
    /// nodes are born isolated; staged insertions may reference them (their
    /// ids are `base_n .. base_n + added_nodes`).
    added_nodes: u64,
}

impl DeltaBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` iff `base` has the edge `u → v`. Endpoints beyond `base`'s
    /// node space (legal when they point at staged-but-uncommitted new
    /// nodes) are never present.
    fn base_has_edge<G: NeighborAccess>(base: &G, u: NodeId, v: NodeId) -> bool {
        let n = base.num_nodes() as u64;
        u64::from(u) < n && u64::from(v) < n && base.has_edge(u, v)
    }

    /// Stages the insertion of `u → v` against `base`.
    pub fn stage_insert<G: NeighborAccess>(&mut self, base: &G, u: NodeId, v: NodeId) -> Staged {
        if self.deletions.remove(&(u, v)) {
            return Staged::Cancelled;
        }
        if Self::base_has_edge(base, u, v) || !self.insertions.insert((u, v)) {
            return Staged::NoOp;
        }
        Staged::Pending
    }

    /// Stages the deletion of `u → v` against `base`.
    pub fn stage_delete<G: NeighborAccess>(&mut self, base: &G, u: NodeId, v: NodeId) -> Staged {
        if self.insertions.remove(&(u, v)) {
            return Staged::Cancelled;
        }
        if !Self::base_has_edge(base, u, v) || !self.deletions.insert((u, v)) {
            return Staged::NoOp;
        }
        Staged::Pending
    }

    /// Stages the growth of the node-id space by `count` nodes, returning
    /// the total pending growth. Range validation against `NodeId` happens
    /// in the store, which knows the base node count.
    pub fn stage_add_nodes(&mut self, count: u64) -> u64 {
        self.added_nodes += count;
        self.added_nodes
    }

    /// Total nodes pending addition.
    pub fn added_nodes(&self) -> u64 {
        self.added_nodes
    }

    /// Number of pending insertions.
    pub fn num_insertions(&self) -> usize {
        self.insertions.len()
    }

    /// Number of pending deletions.
    pub fn num_deletions(&self) -> usize {
        self.deletions.len()
    }

    /// `true` if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty() && self.added_nodes == 0
    }

    /// Drops every staged update (including pending node growth).
    pub fn clear(&mut self) {
        self.insertions.clear();
        self.deletions.clear();
        self.added_nodes = 0;
    }

    /// Copies the buffer into sorted, duplicate-free `(insertions, deletions)`
    /// edge lists ready for [`exactsim_graph::InGraph::apply_deltas_into`],
    /// *without* draining it. A commit copies the lists, writes the WAL
    /// record, and only once the record is safely on disk empties the buffer
    /// with [`DeltaBuffer::clear`] — a failed append leaves the staged delta
    /// intact.
    pub fn lists(&self) -> (EdgeList, EdgeList) {
        (
            self.insertions.iter().copied().collect(),
            self.deletions.iter().copied().collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> DiGraph {
        DiGraph::from_edges(4, &[(0, 2), (1, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn insert_then_delete_cancels_out() {
        let g = base();
        let mut d = DeltaBuffer::new();
        assert_eq!(d.stage_insert(&g, 0, 1), Staged::Pending);
        assert_eq!(d.stage_delete(&g, 0, 1), Staged::Cancelled);
        assert!(d.is_empty());
    }

    #[test]
    fn delete_then_insert_cancels_out() {
        let g = base();
        let mut d = DeltaBuffer::new();
        assert_eq!(d.stage_delete(&g, 0, 2), Staged::Pending);
        assert_eq!(d.stage_insert(&g, 0, 2), Staged::Cancelled);
        assert!(d.is_empty());
    }

    #[test]
    fn duplicates_and_existing_state_are_noops() {
        let g = base();
        let mut d = DeltaBuffer::new();
        assert_eq!(
            d.stage_insert(&g, 0, 2),
            Staged::NoOp,
            "edge already in base"
        );
        assert_eq!(
            d.stage_delete(&g, 0, 1),
            Staged::NoOp,
            "edge absent from base"
        );
        assert_eq!(d.stage_insert(&g, 0, 1), Staged::Pending);
        assert_eq!(d.stage_insert(&g, 0, 1), Staged::NoOp, "duplicate insert");
        assert_eq!(d.stage_delete(&g, 3, 0), Staged::Pending);
        assert_eq!(d.stage_delete(&g, 3, 0), Staged::NoOp, "duplicate delete");
        assert_eq!(d.num_insertions(), 1);
        assert_eq!(d.num_deletions(), 1);
        assert!(Staged::Pending.changed());
        assert!(Staged::Cancelled.changed());
        assert!(!Staged::NoOp.changed());
    }

    #[test]
    fn lists_are_sorted_and_unique_and_leave_the_buffer_until_clear() {
        let g = base();
        let mut d = DeltaBuffer::new();
        d.stage_insert(&g, 2, 0);
        d.stage_insert(&g, 0, 1);
        d.stage_delete(&g, 3, 0);
        d.stage_delete(&g, 1, 2);
        d.stage_add_nodes(2);
        let (ins, del) = d.lists();
        assert_eq!(ins, vec![(0, 1), (2, 0)]);
        assert_eq!(del, vec![(1, 2), (3, 0)]);
        assert_eq!((d.num_insertions(), d.num_deletions()), (2, 2));
        assert_eq!(d.lists(), (ins, del));
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.added_nodes(), 0);
    }

    #[test]
    fn clear_discards_everything() {
        let g = base();
        let mut d = DeltaBuffer::new();
        d.stage_insert(&g, 0, 1);
        d.stage_delete(&g, 0, 2);
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.num_insertions() + d.num_deletions(), 0);
    }
}
