//! Reusable per-query workspaces for the single-source kernels.
//!
//! The paper's pitch is that exact single-source SimRank is *feasible at
//! scale*; feasibility dies first in the allocator. Before this module, every
//! query allocated fresh hop vectors, a fresh `Workspace`, a fresh allocation
//! vector, and — worst of all — the diagonal exploration (Algorithm 3) built
//! a forest of `BTreeMap`s per node. [`Scratch`] owns all of that state once,
//! and the kernels in [`crate::ppr`], [`crate::diagonal`] and
//! [`crate::exactsim`] thread it through, so a steady-state query performs no
//! accumulator allocation at all.
//!
//! ## Determinism
//!
//! Replacing ordered maps with dense accumulators must not change a single
//! output bit (the PR-1 regression test pins this): every accumulator here is
//! an epoch-stamped dense array whose touched indices are **drained in sorted
//! order**, so float reductions happen in exactly the ascending-index order
//! the `BTreeMap`s used to give. `tests/properties.rs` checks the rewritten
//! kernels against a verbatim port of the seed-era implementation.
//!
//! Algorithm 3 additionally builds each walk distribution `P^t · e_q` once
//! per query and lets every node of the query read it ([`DistTable`]). That
//! is safe for the same reason: a distribution is a pure function of `q`,
//! `t` and the graph, so it has the same bits whichever node built it, and
//! each node is still charged its edge cost as if it had built it.
//!
//! ## Concurrency
//!
//! A `Scratch` is single-threaded state. Solvers own a [`ScratchPool`] —
//! a lock-protected stack of scratches — so concurrent queries through one
//! shared solver (the `exactsim-service` pattern) each check out their own
//! workspace and return it when done; the pool grows to the peak concurrency
//! and then stops allocating.

use std::sync::Mutex;

use exactsim_graph::linalg::{p_multiply_accumulate, SparseVec, Workspace};
use exactsim_graph::{NeighborAccess, NodeId};

use crate::ppr::{DenseHopVectors, SparseHopVectors};

/// The reusable workspace one single-source query threads through every
/// kernel it touches. Create one per worker thread (or use a
/// [`ScratchPool`]) and reuse it across queries; all buffers are grown on
/// first use and retained.
#[derive(Debug)]
pub struct Scratch {
    n: usize,
    /// Sparse-accumulator workspace for hop-vector pushes and PRSim queries.
    pub(crate) ws: Workspace,
    /// Ping-pong buffers for the sparse walk distribution.
    pub(crate) walk: SparseVec,
    pub(crate) walk_tmp: SparseVec,
    /// Entry buffer for aggregate-vector builds (`rebuild_from_unsorted`).
    pub(crate) entries: Vec<(NodeId, f64)>,
    /// Reused pruned hop vectors (optimized variant, PRSim queries).
    pub(crate) sparse_hops: SparseHopVectors,
    /// Reused dense hop vectors (basic variant, ParSim, Linearization).
    pub(crate) dense_hops: DenseHopVectors,
    /// Dense walk-distribution buffer (basic variant).
    pub(crate) dense_walk: Vec<f64>,
    /// Dense temporary for the Linearization recurrence ping-pong.
    pub(crate) dense_tmp: Vec<f64>,
    /// Per-node walk-pair allocation `R(k)`.
    pub(crate) allocation: Vec<u64>,
    /// Per-shard diagonal-exploration scratches, grown to the thread count.
    pub(crate) diag: Vec<DiagonalScratch>,
}

impl Scratch {
    /// Creates a workspace for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        Scratch {
            n,
            ws: Workspace::new(n),
            walk: SparseVec::new(),
            walk_tmp: SparseVec::new(),
            entries: Vec::new(),
            sparse_hops: SparseHopVectors::default(),
            dense_hops: DenseHopVectors::default(),
            dense_walk: Vec::new(),
            dense_tmp: Vec::new(),
            allocation: Vec::new(),
            diag: Vec::new(),
        }
    }

    /// Number of nodes this workspace supports.
    pub fn num_nodes(&self) -> usize {
        self.n
    }
}

/// A lock-protected stack of [`Scratch`]es sized for one graph.
///
/// Checking out pops a scratch (or builds one on first use at this
/// concurrency level); returning pushes it back. Steady-state query traffic
/// therefore allocates nothing, while concurrent callers never contend on a
/// single workspace. Cloning a pool (solvers derive `Clone`) yields a fresh
/// empty pool for the same `n` — scratches hold no result state, so this is
/// purely a warm-up concern.
pub struct ScratchPool {
    n: usize,
    pool: Mutex<Vec<Scratch>>,
}

impl ScratchPool {
    /// Creates an empty pool for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        ScratchPool {
            n,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Pops a scratch, creating one if the pool is empty.
    pub fn checkout(&self) -> Scratch {
        let pooled = self.pool.lock().expect("scratch pool poisoned").pop();
        match pooled {
            Some(scratch) => {
                crate::counters::inc(&crate::counters::SCRATCH_POOL_HITS);
                scratch
            }
            None => {
                crate::counters::inc(&crate::counters::SCRATCH_POOL_MISSES);
                Scratch::new(self.n)
            }
        }
    }

    /// Returns a scratch to the pool for reuse.
    pub fn give_back(&self, scratch: Scratch) {
        debug_assert_eq!(scratch.num_nodes(), self.n);
        self.pool
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
    }

    /// Number of idle scratches currently pooled (diagnostics).
    pub fn idle(&self) -> usize {
        self.pool.lock().expect("scratch pool poisoned").len()
    }
}

impl Clone for ScratchPool {
    fn clone(&self) -> Self {
        ScratchPool::new(self.n)
    }
}

impl std::fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("n", &self.n)
            .field("idle", &self.idle())
            .finish()
    }
}

/// Scratch state for one shard of the diagonal estimation (Algorithm 3):
/// the dense replacements for the seed-era `BTreeMap` accumulators.
#[derive(Debug)]
pub struct DiagonalScratch {
    /// Accumulator for the first-meeting level masses `Z_ℓ(k, ·)`.
    pub(crate) z: Workspace,
    /// Pooled per-level `Z_t` vectors; `z_len` of them are live per node run.
    pub(crate) z_levels: Vec<SparseVec>,
    /// The per-query walk-distribution arena.
    pub(crate) dist: DistTable,
}

impl DiagonalScratch {
    /// Creates a per-shard scratch for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        DiagonalScratch {
            z: Workspace::new(n),
            z_levels: Vec::new(),
            dist: DistTable::new(n),
        }
    }

    /// Number of nodes this scratch supports (the `n` it was created for).
    pub fn num_nodes(&self) -> usize {
        self.z.len()
    }
}

/// The walk-distribution arena of Algorithm 3: level `t` of slot `q` is
/// `P^t · e_q`, for every node `q` the exploration has reached during the
/// current query.
///
/// All levels of a query live in two flat arrays (`indices`, `values`),
/// appended to as levels are built; starting the next query truncates
/// them, keeping their capacity, so the arena retains one query's worth of
/// memory, not every distribution the process has ever built. A level is
/// built once per query and reused by every later node of that query. Each
/// node is still charged a level's edge cost (`Σ din` over the previous
/// level's support) the first time *it* reaches that level
/// (starting a node resets only what it has been charged for), so the
/// exploration's edge counts and budget stops are those of a per-node
/// table.
#[derive(Debug)]
pub struct DistTable {
    /// Workspace for the sparse `P·x` pushes that build levels.
    ws: Workspace,
    /// Entry arrays of every level built this query, level after level.
    indices: Vec<NodeId>,
    values: Vec<f64>,
    /// Level records; slot `q`'s levels are `spans[first..first + len]`.
    spans: Vec<LevelSpan>,
    /// Per-node slot headers, stamped by query and by node.
    slots: Vec<Slot>,
    query: u32,
    node: u32,
}

/// One built level: its entry range in the arena and the edge cost of
/// reaching it from level 0.
#[derive(Clone, Copy, Debug, Default)]
struct LevelSpan {
    start: usize,
    end: usize,
    /// `Σ_{u=1..=t} cost(u)`, where `cost(u)` is `Σ din` over level
    /// `u - 1`'s support.
    cum_cost: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// The slot is live iff this equals the table's query stamp.
    query: u32,
    /// `reached` counts for the current node iff this equals its stamp.
    node: u32,
    /// Levels `0..reached` have been charged to the current node.
    reached: usize,
    /// This slot's region of `spans`: `len` levels built, room for `cap`.
    first: usize,
    len: usize,
    cap: usize,
}

impl DistTable {
    fn new(n: usize) -> Self {
        DistTable {
            ws: Workspace::new(n),
            indices: Vec::new(),
            values: Vec::new(),
            spans: Vec::new(),
            // Grown on the first query, so a scratch that never runs
            // Algorithm 3 costs no per-node headers.
            slots: Vec::new(),
            query: 0,
            node: 0,
        }
    }

    /// Starts a new query: every slot becomes logically empty and the arena
    /// is truncated (capacity kept).
    pub(crate) fn begin_query(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        self.indices.clear();
        self.values.clear();
        self.spans.clear();
        self.query = next_stamp(self.query, &mut self.slots, |slot| slot.query = 0);
    }

    /// Starts the next node's exploration within the query: levels already
    /// built stay, but the node has reached none of them yet.
    pub(crate) fn begin_node(&mut self) {
        self.node = next_stamp(self.node, &mut self.slots, |slot| slot.node = 0);
    }

    /// Makes level `level` of slot `q` available, building missing levels,
    /// and returns the edge cost of the levels the current node reaches
    /// for the first time.
    pub(crate) fn reach<G: NeighborAccess>(&mut self, graph: &G, q: NodeId, level: usize) -> u64 {
        let idx = q as usize;
        if self.slots[idx].query != self.query {
            // First touch this query: level 0 is the unit vector e_q, which
            // costs nothing to reach.
            let start = self.indices.len();
            self.indices.push(q);
            self.values.push(1.0);
            let first = self.spans.len();
            self.spans.push(LevelSpan {
                start,
                end: start + 1,
                cum_cost: 0,
            });
            self.slots[idx] = Slot {
                query: self.query,
                node: self.node,
                reached: 1,
                first,
                len: 1,
                cap: 1,
            };
        }
        while self.slots[idx].len <= level {
            self.extend(graph, idx);
        }
        let slot = &mut self.slots[idx];
        if slot.node != self.node {
            slot.node = self.node;
            slot.reached = 1;
        }
        if level < slot.reached {
            return 0;
        }
        let cost = self.spans[slot.first + level].cum_cost
            - self.spans[slot.first + slot.reached - 1].cum_cost;
        slot.reached = level + 1;
        cost
    }

    /// Appends level `len` of slot `idx` by applying `P` to its newest level.
    fn extend<G: NeighborAccess>(&mut self, graph: &G, idx: usize) {
        let Slot {
            first, len, cap, ..
        } = self.slots[idx];
        let last = self.spans[first + len - 1];
        let support = &self.indices[last.start..last.end];
        let cost: u64 = support.iter().map(|&j| graph.in_degree(j) as u64).sum();
        p_multiply_accumulate(
            graph,
            support,
            &self.values[last.start..last.end],
            &mut self.ws,
        );
        let start = self.indices.len();
        self.ws.drain_append(&mut self.indices, &mut self.values);
        let span = LevelSpan {
            start,
            end: self.indices.len(),
            cum_cost: last.cum_cost + cost,
        };
        let slot = &mut self.slots[idx];
        if len == cap {
            // Double the region's room: in place when it ends `spans`,
            // otherwise by moving it to the end (the abandoned copy is
            // reclaimed by the next `begin_query`).
            if first + cap != self.spans.len() {
                slot.first = self.spans.len();
                self.spans.extend_from_within(first..first + len);
            }
            slot.cap = 2 * cap;
            self.spans
                .resize(slot.first + slot.cap, LevelSpan::default());
        }
        self.spans[slot.first + len] = span;
        slot.len = len + 1;
    }

    /// Level `level` of slot `q` as parallel `(indices, values)` slices; the
    /// level must have been [`DistTable::reach`]ed this query.
    pub(crate) fn level(&self, q: NodeId, level: usize) -> (&[NodeId], &[f64]) {
        let slot = &self.slots[q as usize];
        debug_assert!(slot.query == self.query && level < slot.len);
        let span = self.spans[slot.first + level];
        (
            &self.indices[span.start..span.end],
            &self.values[span.start..span.end],
        )
    }

    /// Heap bytes the table retains between queries (capacity, not length).
    #[cfg(test)]
    pub(crate) fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        self.indices.capacity() * size_of::<NodeId>()
            + self.values.capacity() * size_of::<f64>()
            + self.spans.capacity() * size_of::<LevelSpan>()
            + self.slots.capacity() * size_of::<Slot>()
    }
}

/// The stamp after `stamp`. On wrap-around every slot's copy is cleared
/// with `clear`, so a stale stamp can never collide with a live one.
fn next_stamp(stamp: u32, slots: &mut [Slot], clear: impl Fn(&mut Slot)) -> u32 {
    if stamp == u32::MAX {
        slots.iter_mut().for_each(clear);
        1
    } else {
        stamp + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_scratches() {
        let pool = ScratchPool::new(16);
        assert_eq!(pool.idle(), 0);
        let a = pool.checkout();
        let b = pool.checkout();
        pool.give_back(a);
        pool.give_back(b);
        assert_eq!(pool.idle(), 2);
        let _c = pool.checkout();
        assert_eq!(pool.idle(), 1);
        // Clones share nothing and start empty.
        assert_eq!(pool.clone().idle(), 0);
    }

    #[test]
    fn dist_table_resets_logically_between_nodes() {
        // 0 -> 2, 1 -> 2, 2 -> 3, 3 -> 0: P·e_2 = (e_0 + e_1)/2, P·e_3 = e_2.
        let g = exactsim_graph::DiGraph::from_edges(4, &[(0, 2), (1, 2), (2, 3), (3, 0)]);
        let mut table = DistTable::new(4);
        table.begin_query(4);
        table.begin_node();
        // Reaching level 2 of slot 3 builds levels 1 and 2 and charges
        // din(3) + din(2) = 1 + 2.
        assert_eq!(table.reach(&g, 3, 2), 3);
        assert_eq!(table.level(3, 0), (&[3][..], &[1.0][..]));
        assert_eq!(table.level(3, 1), (&[2][..], &[1.0][..]));
        assert_eq!(table.level(3, 2), (&[0, 1][..], &[0.5, 0.5][..]));
        // Already reached by this node: free.
        assert_eq!(table.reach(&g, 3, 1), 0);
        let arena = table.indices.len();

        // The next node reuses the built levels without a multiply, but is
        // charged for them once.
        table.begin_node();
        assert_eq!(table.reach(&g, 3, 1), 1);
        assert_eq!(table.reach(&g, 3, 2), 2);
        assert_eq!(table.reach(&g, 3, 2), 0);
        assert_eq!(table.indices.len(), arena);

        // A new query starts from an empty arena.
        table.begin_query(4);
        table.begin_node();
        assert_eq!(table.reach(&g, 2, 0), 0);
        assert_eq!(table.indices.len(), 1);
        assert_eq!(table.level(2, 0), (&[2][..], &[1.0][..]));
    }

    #[test]
    fn dist_table_keeps_slot_levels_addressable_across_region_moves() {
        // Interleaved growth of two slots forces region moves; every level
        // must still read back as P^t · e_q.
        let g = exactsim_graph::DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let mut table = DistTable::new(3);
        table.begin_query(3);
        table.begin_node();
        for level in 0..9 {
            table.reach(&g, 0, level);
            table.reach(&g, 1, level);
        }
        for level in 0..9usize {
            // On the 3-cycle, P·e_v = e_{v-1}, so P^t·e_q = e_{(q - t) mod 3}.
            for q in [0u32, 1] {
                let want = ((q as usize + 3 * 9 - level) % 3) as NodeId;
                assert_eq!(table.level(q, level), (&[want][..], &[1.0][..]));
            }
        }
    }
}
