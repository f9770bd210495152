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
//! a dense array with a live-slot bitmap
//! ([`exactsim_graph::linalg::Workspace`]) whose touched indices are
//! **drained in sorted order**, so float reductions happen in exactly the
//! ascending-index order the `BTreeMap`s used to give. `tests/properties.rs`
//! checks the rewritten kernels against a verbatim port of the seed-era
//! implementation.
//!
//! Algorithm 3 additionally builds each walk distribution `P^t · e_q` once
//! per query and lets every node of the query read it ([`DistTable`]). That
//! is safe for the same reason: a distribution is a pure function of `q`,
//! `t` and the graph, so it has the same bits whichever node built it, and
//! each node is still charged its edge cost as if it had built it. The
//! first two levels are never built at all: `e_q` and `P · e_q` are read
//! off `q` and its CSR in-row, with the bits a build would have given them,
//! so the arena holds levels ≥ 2 only.
//!
//! Every accumulator is a [`Workspace`] whose slots hold `+0.0` outside its
//! live set. A level build whose scatter makes at least one add per bitmap
//! word runs wide — no first-touch branch, no touched list — and drains by
//! scanning the bitmap; the rule is decided once, in
//! [`exactsim_graph::linalg::p_multiply_accumulate`], for the level builds
//! and the hop-vector pushes alike, and gives the bits a narrow scatter
//! gives (see [`Workspace`]). The `Z` accumulator stays narrow.
//!
//! ## Concurrency and lifetime
//!
//! A `Scratch` is single-threaded state. Solvers check scratches out of a
//! [`ScratchPool`] — a lock-protected stack of scratches — so concurrent
//! queries through one shared solver (the `exactsim-service` pattern) each
//! check out their own workspace and return it when done; the pool grows to
//! the peak concurrency and then stops allocating. A scratch holds no
//! result state, only capacity, so a pool is tied to a node count, not to
//! a solver or a graph: the service keeps one ExactSim pool across epochs
//! for as long as the node count stays the same
//! ([`crate::exactsim::ExactSim::with_scratch_pool`]), and the first query
//! after a commit reuses the arena and workspaces the last epoch grew.

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
    /// Algorithm 3's exploration state for the query.
    pub(crate) diag: DiagonalScratch,
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
            diag: DiagonalScratch::new(n),
        }
    }

    /// Number of nodes this workspace supports.
    pub fn num_nodes(&self) -> usize {
        self.n
    }
}

/// A lock-protected stack of [`Scratch`]es sized for graphs of one node
/// count.
///
/// Checking out pops a scratch (or builds one on first use at this
/// concurrency level); returning pushes it back. Steady-state query traffic
/// therefore allocates nothing, while concurrent callers never contend on a
/// single workspace. Scratches hold no result state, so one pool can serve
/// a sequence of solvers on different graphs of the same node count (behind
/// an `Arc`, see [`crate::exactsim::ExactSim::with_scratch_pool`]). Cloning
/// a pool (solvers that own theirs derive `Clone`) yields a fresh empty
/// pool for the same `n` — purely a warm-up concern.
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

    /// The node count this pool's scratches are sized for.
    pub fn num_nodes(&self) -> usize {
        self.n
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

/// Scratch state of the diagonal estimation (Algorithm 3): the dense
/// replacements for the seed-era `BTreeMap` accumulators.
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
    /// Creates a scratch for graphs with `n` nodes.
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
/// Levels 0 and 1 are views, never stored: level 0 is `e_q`, and level 1,
/// `P · e_q`, is `q`'s in-row with the value `1/din(q)` per in-edge (a run
/// of duplicate in-edges is one entry, see `for_each_run`). The levels
/// `t ≥ 2` of a query live in two flat arrays (`indices`, `values`),
/// appended to as levels are built; starting the next query truncates them,
/// keeping their capacity, so the arena retains one query's worth of
/// memory, not every distribution the process has ever built. A level is
/// built once per query and reused by every later node of that query. Each
/// node is still charged a level's edge cost (`Σ din` over the previous
/// level's support, views included) the first time *it* reaches that level
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
    /// Level records; slot `q`'s built levels `2..2 + len` are
    /// `spans[first..first + len]`.
    spans: Vec<LevelSpan>,
    /// Per-node slot headers, stamped by query and by node.
    slots: Vec<Slot>,
    /// Level 1 of the slot whose level 2 is being built, copied out of
    /// its in-row (entries, values).
    row: Vec<NodeId>,
    row_values: Vec<f64>,
    query: u32,
    node: u32,
}

/// The first level that is built and stored; levels below it are views.
const FIRST_BUILT: usize = 2;

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
            row: Vec::new(),
            row_values: Vec::new(),
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
            // First touch this query: nothing is built, and level 0, the
            // unit vector e_q, costs nothing to reach.
            self.slots[idx] = Slot {
                query: self.query,
                node: self.node,
                reached: 1,
                ..Slot::default()
            };
        }
        while FIRST_BUILT + self.slots[idx].len <= level {
            self.extend(graph, q);
        }
        let slot = &mut self.slots[idx];
        if slot.node != self.node {
            slot.node = self.node;
            slot.reached = 1;
        }
        if level < slot.reached {
            return 0;
        }
        let from = slot.reached - 1;
        slot.reached = level + 1;
        self.cum_cost(graph, q, level) - self.cum_cost(graph, q, from)
    }

    /// `Σ_{u=1..=level} cost(u)` for slot `q`; a built level must exist.
    fn cum_cost<G: NeighborAccess>(&self, graph: &G, q: NodeId, level: usize) -> u64 {
        match level {
            0 => 0,
            // Level 1 is one scatter of e_q: din(q) edges.
            1 => graph.in_degree(q) as u64,
            _ => {
                let slot = &self.slots[q as usize];
                self.spans[slot.first + level - FIRST_BUILT].cum_cost
            }
        }
    }

    /// Appends level `FIRST_BUILT + len` of slot `q` by applying `P` to the
    /// level below it.
    fn extend<G: NeighborAccess>(&mut self, graph: &G, q: NodeId) {
        let idx = q as usize;
        let Slot {
            first, len, cap, ..
        } = self.slots[idx];
        let (below, below_values, below_cost) = if len == 0 {
            // Level 1 is q's in-row. Copy it out before scattering it: on a
            // paged backend the row holds its page pinned, and the scatter
            // pins the pages of other rows.
            self.row.clear();
            self.row_values.clear();
            for_each_run(&graph.in_neighbors(q), |j, v, _| {
                self.row.push(j);
                self.row_values.push(v);
            });
            (
                &self.row[..],
                &self.row_values[..],
                self.cum_cost(graph, q, 1),
            )
        } else {
            let last = self.spans[first + len - 1];
            (
                &self.indices[last.start..last.end],
                &self.values[last.start..last.end],
                last.cum_cost,
            )
        };
        let cost = p_multiply_accumulate(graph, below, below_values, &mut self.ws);
        let start = self.indices.len();
        self.ws.drain_append(&mut self.indices, &mut self.values);
        let span = LevelSpan {
            start,
            end: self.indices.len(),
            cum_cost: below_cost + cost,
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
            slot.cap = (2 * cap).max(1);
            self.spans
                .resize(slot.first + slot.cap, LevelSpan::default());
        }
        self.spans[slot.first + len] = span;
        slot.len = len + 1;
    }

    /// Calls `f(i, map(v))` for every entry `(i, v)` of level `level` of
    /// slot `q`, in ascending `i`; the level must have been
    /// [`DistTable::reach`]ed this query. On level 1, whose entries all
    /// hold `1/din(q)` but for merged runs of duplicate in-edges, `map`
    /// runs once for the row and once per merged run.
    pub(crate) fn for_each_mapped<G: NeighborAccess>(
        &self,
        graph: &G,
        q: NodeId,
        level: usize,
        map: impl Fn(f64) -> f64,
        mut f: impl FnMut(NodeId, f64),
    ) {
        match level {
            0 => f(q, map(1.0)),
            1 => {
                let row = graph.in_neighbors(q);
                let single = map(1.0 / row.len() as f64);
                for_each_run(&row, |i, v, run| {
                    f(i, if run == 1 { single } else { map(v) })
                });
            }
            _ => {
                let slot = &self.slots[q as usize];
                debug_assert!(slot.query == self.query && level < FIRST_BUILT + slot.len);
                let span = self.spans[slot.first + level - FIRST_BUILT];
                let values = &self.values[span.start..span.end];
                for (&i, &v) in self.indices[span.start..span.end].iter().zip(values) {
                    f(i, map(v));
                }
            }
        }
    }

    /// Heap bytes the table retains between queries (capacity, not length).
    #[cfg(test)]
    pub(crate) fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.indices.capacity() + self.row.capacity()) * size_of::<NodeId>()
            + (self.values.capacity() + self.row_values.capacity()) * size_of::<f64>()
            + self.spans.capacity() * size_of::<LevelSpan>()
            + self.slots.capacity() * size_of::<Slot>()
    }
}

/// Visits `P · e_q` from `q`'s in-row `row`: calls `f(i, v, run)` for every
/// distinct in-neighbor `i`, where `run` is the number of its edges into
/// `q`. The row is sorted, so those edges are adjacent, and `v` is
/// `1/din(q)` added `run` times in turn — what scattering `e_q` into a
/// [`Workspace`] sums, bit for bit.
#[inline]
fn for_each_run(row: &[NodeId], mut f: impl FnMut(NodeId, f64, usize)) {
    debug_assert!(row.is_sorted(), "NeighborAccess hands out sorted in-rows");
    let weight = 1.0 / row.len() as f64;
    for run in row.chunk_by(|a, b| a == b) {
        let mut v = weight;
        for _ in 1..run.len() {
            v += weight;
        }
        f(run[0], v, run.len());
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
    use exactsim_graph::linalg::p_multiply_sparse;
    use exactsim_graph::DiGraph;

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

    /// Level `level` of slot `q` as `(index, value bits)` pairs, read
    /// through the accessor the exploration uses.
    fn level_bits(
        table: &DistTable,
        graph: &DiGraph,
        q: NodeId,
        level: usize,
    ) -> Vec<(NodeId, u64)> {
        let mut out = Vec::new();
        table.for_each_mapped(graph, q, level, |v| v, |i, v| out.push((i, v.to_bits())));
        out
    }

    fn bits(entries: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
        entries.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    }

    #[test]
    fn dist_table_resets_logically_between_nodes() {
        // 0 -> 2, 1 -> 2, 2 -> 3, 3 -> 0: P·e_2 = (e_0 + e_1)/2, P·e_3 = e_2.
        let g = DiGraph::from_edges(4, &[(0, 2), (1, 2), (2, 3), (3, 0)]);
        let mut table = DistTable::new(4);
        table.begin_query(4);
        table.begin_node();
        // Reaching level 2 of slot 3 builds level 2 and charges
        // din(3) + din(2) = 1 + 2.
        assert_eq!(table.reach(&g, 3, 2), 3);
        assert_eq!(level_bits(&table, &g, 3, 0), bits(&[(3, 1.0)]));
        assert_eq!(level_bits(&table, &g, 3, 1), bits(&[(2, 1.0)]));
        assert_eq!(level_bits(&table, &g, 3, 2), bits(&[(0, 0.5), (1, 0.5)]));
        // Already reached by this node: free.
        assert_eq!(table.reach(&g, 3, 1), 0);
        assert_eq!(table.indices.len(), 2, "only level 2 is stored");

        // The next node reuses the built level without a multiply, but is
        // charged for each level once.
        table.begin_node();
        assert_eq!(table.reach(&g, 3, 1), 1);
        assert_eq!(table.reach(&g, 3, 2), 2);
        assert_eq!(table.reach(&g, 3, 2), 0);
        assert_eq!(table.indices.len(), 2);

        // A new query starts from an empty arena.
        table.begin_query(4);
        table.begin_node();
        assert_eq!(table.reach(&g, 2, 0), 0);
        assert!(table.indices.is_empty());
        assert_eq!(level_bits(&table, &g, 2, 0), bits(&[(2, 1.0)]));
    }

    #[test]
    fn dist_table_levels_are_iterated_p_multiplies_on_a_multigraph() {
        // Parallel edges (0 -> 1 and 0 -> 3 twice, 3 -> 2 three times,
        // 3 -> 4 six times), self-loops (1 -> 1, 2 -> 2) and a node without
        // in-edges (5). Node 4's first step is one entry, 1/6 added six
        // times in turn, which is 0.9999999999999999, not 6 · (1/6) = 1: a
        // merged run must add, as a scatter does, not multiply.
        let mut edges = vec![
            (2, 0),
            (5, 0),
            (0, 1),
            (0, 1),
            (1, 1),
            (2, 1),
            (4, 1),
            (2, 2),
            (3, 2),
            (3, 2),
            (3, 2),
            (5, 2),
            (1, 3),
            (0, 3),
            (0, 3),
        ];
        edges.extend([(3, 4); 6]);
        let g = DiGraph::from_edges(6, &edges);
        assert_eq!(g.in_neighbors(2), &[2, 3, 3, 3, 5]);
        assert_eq!(g.in_degree(5), 0);
        let mut table = DistTable::new(6);
        table.begin_query(6);
        table.begin_node();
        for q in 0..6 {
            table.reach(&g, q, 1);
        }
        assert!(table.indices.is_empty() && table.spans.is_empty());
        assert_eq!(
            level_bits(&table, &g, 4, 1),
            bits(&[(3, 1.0 - f64::EPSILON / 2.0)])
        );

        let mut ws = Workspace::new(6);
        let mut stored = 0;
        for q in 0..6 {
            table.reach(&g, q, 4);
            let mut want = SparseVec::unit(q, 1.0);
            for level in 0..=4 {
                let want_bits: Vec<_> = want.iter().map(|(i, v)| (i, v.to_bits())).collect();
                assert_eq!(
                    level_bits(&table, &g, q, level),
                    want_bits,
                    "slot {q} level {level}"
                );
                if level >= FIRST_BUILT {
                    stored += want.nnz();
                }
                want = p_multiply_sparse(&g, &want, &mut ws);
            }
        }
        assert_eq!(
            table.indices.len(),
            stored,
            "the arena holds levels 2..=4 only"
        );
    }

    #[test]
    fn dist_table_keeps_slot_levels_addressable_across_region_moves() {
        // Interleaved growth of two slots forces region moves; every level
        // must still read back as P^t · e_q.
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
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
                assert_eq!(level_bits(&table, &g, q, level), bits(&[(want, 1.0)]));
            }
        }
    }
}
