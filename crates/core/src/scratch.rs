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
//! so the arena holds levels ≥ 2 only. A stored level keeps its nonzero
//! values in ascending index order, and its indices either as a list or,
//! once it is dense enough, as a bitmap of `n/64` words: both read back the
//! same ascending `(index, value)` sequence, so the encoding changes bytes,
//! never bits.
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

    /// Algorithm 3's part of this workspace, as the last query left it.
    pub fn diagonal(&self) -> &DiagonalScratch {
        &self.diag
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

    /// The walk-distribution levels the last Algorithm-3 query on this
    /// scratch stored, by encoding: `[index lists, bitmaps]` (see
    /// [`DistTable`]). A diagnostic; the answer is the same either way.
    pub fn stored_levels(&self) -> [usize; 2] {
        self.dist.stored
    }
}

/// The walk-distribution arena of Algorithm 3: level `t` of slot `q` is
/// `P^t · e_q`, for every node `q` the exploration has reached during the
/// current query.
///
/// Levels 0 and 1 are views, never stored: level 0 is `e_q`, and level 1,
/// `P · e_q`, is `q`'s in-row with the value `1/din(q)` per in-edge (a run
/// of duplicate in-edges is one entry, see `for_each_run`). The levels
/// `t ≥ 2` of a query are appended to the arena as they are built, in one
/// of two encodings, chosen per level by one rule:
/// - **bitmap**: one bit per node in `words` (`n/8` bytes per level), for
///   a level that holds more than 16 entries per bitmap word (a timed
///   constant, `ENTRIES_PER_BITMAP_WORD`);
/// - **index list**: the entries' indices in `indices` (4 bytes each), for
///   the sparser levels.
///
/// Either way the nonzero values sit in `values` in ascending index order,
/// so a level reads back the same ascending `(index, value)` sequence in
/// both encodings. Starting the next query truncates the arrays, keeping
/// their capacity, so the arena retains one query's worth of memory, not
/// every distribution the process has ever built. A level is built once per
/// query and reused by every later node of that query. Each node is still
/// charged a level's edge cost (`Σ din` over the previous level's support,
/// views included) the first time *it* reaches that level (starting a node
/// resets only what it has been charged for), so the exploration's edge
/// counts and budget stops are those of a per-node table.
#[derive(Debug)]
pub struct DistTable {
    /// Workspace for the sparse `P·x` pushes that build levels.
    ws: Workspace,
    /// Index lists of the levels stored as such, level after level.
    indices: Vec<NodeId>,
    /// Bitmaps of the levels stored as such, `n/64` words per level.
    words: Vec<u64>,
    /// Values of every level built this query, level after level.
    values: Vec<f64>,
    /// Level records; slot `q`'s built levels `2..2 + len` are
    /// `spans[first..first + len]`.
    spans: Vec<LevelSpan>,
    /// Per-node slot headers, stamped by query and by node.
    slots: Vec<Slot>,
    /// Level 1 of the slot whose level 2 is being built, copied out of
    /// its in-row (entries, values); or the indices of a bitmap level that
    /// a level is being built from.
    row: Vec<NodeId>,
    row_values: Vec<f64>,
    /// Levels stored this query: `[index lists, bitmaps]`.
    stored: [usize; 2],
    query: u32,
    node: u32,
}

/// The first level that is built and stored; levels below it are views.
const FIRST_BUILT: usize = 2;

/// A built level is stored as a bitmap when it holds more than this many
/// live entries per bitmap word, and as an index list otherwise.
///
/// A bitmap costs 8 bytes per word and an index list 4 bytes per entry, so
/// bytes alone break even at 2. But a bitmap level is read by scanning its
/// words, and a level built from one decodes it first, so the sparser a
/// bitmap level, the more its reads cost. Timed in one process that reads
/// each of 100 distinct IC@0.005 sources (serving config) with an
/// index-list-only table and with this one back to back, in alternating
/// order (2-vCPU VM, one pinned CPU), the median per-read time ratio was
/// 1.043–1.048 at 2 (2 runs), 1.005–1.033 at 4 (3 runs), 1.016 at 8 (9
/// runs), 1.003 at 16 (11 runs) and 0.976–1.021 at 32 (3 runs), against
/// 0.997–1.021 (median 1.011) with the same table on both sides (5 runs).
/// At 16, the worst warm-up read of that graph stores 2.23M entries in
/// 22.0 MB instead of 26.8 MB (20.8 MB at 2), and an average read stores
/// 9.8 bytes per entry.
///
/// A level holds at most one entry per add, so only a scatter of more adds
/// than this per word, which runs wide, can pass it.
const ENTRIES_PER_BITMAP_WORD: usize = 16;

/// One built level: its values' range in the arena, where its indices are,
/// and the edge cost of reaching it from level 0.
#[derive(Clone, Copy, Debug)]
struct LevelSpan {
    /// `values[start..end]`, in ascending index order.
    start: usize,
    end: usize,
    layout: Layout,
    /// `Σ_{u=1..=t} cost(u)`, where `cost(u)` is `Σ din` over level
    /// `u - 1`'s support.
    cum_cost: u64,
}

/// Where a built level's indices are.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// `indices[at..at + (end - start)]`.
    Indices(usize),
    /// The set bits of `words[at..at + n/64]`.
    Bitmap(usize),
}

/// Room reserved in a slot's region of `spans` for a level not built yet.
const VACANT: LevelSpan = LevelSpan {
    start: 0,
    end: 0,
    layout: Layout::Indices(0),
    cum_cost: 0,
};

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
            words: Vec::new(),
            values: Vec::new(),
            spans: Vec::new(),
            // Grown on the first query, so a scratch that never runs
            // Algorithm 3 costs no per-node headers.
            slots: Vec::new(),
            row: Vec::new(),
            row_values: Vec::new(),
            stored: [0; 2],
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
        self.words.clear();
        self.values.clear();
        self.spans.clear();
        self.stored = [0; 2];
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

    /// Bitmap words per bitmap level: `n/64`, rounded up.
    fn level_words(&self) -> usize {
        self.ws.len().div_ceil(64)
    }

    /// Appends level `FIRST_BUILT + len` of slot `q` by applying `P` to the
    /// level below it.
    fn extend<G: NeighborAccess>(&mut self, graph: &G, q: NodeId) {
        let idx = q as usize;
        let words = self.level_words();
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
            let values = &self.values[last.start..last.end];
            let indices = match last.layout {
                Layout::Indices(at) => &self.indices[at..at + values.len()],
                Layout::Bitmap(at) => {
                    // The scatter takes an index list: decode the bitmap.
                    self.row.clear();
                    for (w, &word) in self.words[at..at + words].iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            self.row.push((w * 64) as NodeId + bits.trailing_zeros());
                            bits &= bits - 1;
                        }
                    }
                    &self.row[..]
                }
            };
            (indices, values, last.cum_cost)
        };
        let cost = p_multiply_accumulate(graph, below, below_values, &mut self.ws);
        let start = self.values.len();
        // A level holds at most one entry per add, so the popcount runs
        // only after scatters of more adds than that.
        let dense = (ENTRIES_PER_BITMAP_WORD * words) as u64;
        let bitmap = cost > dense && self.ws.num_touched() as u64 > dense;
        let layout = if bitmap {
            let at = self.words.len();
            self.ws.drain_bitmap(&mut self.words, &mut self.values);
            Layout::Bitmap(at)
        } else {
            let at = self.indices.len();
            self.ws.drain_append(&mut self.indices, &mut self.values);
            Layout::Indices(at)
        };
        self.stored[usize::from(bitmap)] += 1;
        let span = LevelSpan {
            start,
            end: self.values.len(),
            layout,
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
            self.spans.resize(slot.first + slot.cap, VACANT);
        }
        self.spans[slot.first + len] = span;
        slot.len = len + 1;
    }

    /// Calls `f(i, map(v))` for every entry `(i, v)` of level `level` of
    /// slot `q`, in ascending `i`, whichever way the level is stored; the
    /// level must have been [`DistTable::reach`]ed this query. On level 1,
    /// whose entries all hold `1/din(q)` but for merged runs of duplicate
    /// in-edges, `map` runs once for the row and once per merged run.
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
                match span.layout {
                    Layout::Indices(at) => {
                        let indices = &self.indices[at..at + values.len()];
                        for (&i, &v) in indices.iter().zip(values) {
                            f(i, map(v));
                        }
                    }
                    Layout::Bitmap(at) => {
                        // The k-th set bit holds the k-th value: each word
                        // takes the next `popcount` values off the cursor.
                        let mut rest = values;
                        let words = &self.words[at..at + self.level_words()];
                        for (w, &word) in words.iter().enumerate() {
                            let (chunk, tail) = rest.split_at(word.count_ones() as usize);
                            rest = tail;
                            let mut bits = word;
                            for &v in chunk {
                                f((w * 64) as NodeId + bits.trailing_zeros(), map(v));
                                bits &= bits - 1;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Heap bytes the table retains between queries (capacity, not length).
    #[cfg(test)]
    pub(crate) fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.indices.capacity() + self.row.capacity()) * size_of::<NodeId>()
            + self.words.capacity() * size_of::<u64>()
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

    /// Levels stored in slot `q`'s region, by encoding:
    /// `[index lists, bitmaps]`, plus how many levels were built on top of
    /// a bitmap level.
    fn slot_layouts(table: &DistTable, q: NodeId) -> [usize; 3] {
        let slot = &table.slots[q as usize];
        let mut counts = [0; 3];
        let spans = &table.spans[slot.first..slot.first + slot.len];
        for (t, span) in spans.iter().enumerate() {
            counts[usize::from(matches!(span.layout, Layout::Bitmap(_)))] += 1;
            if t > 0 && matches!(spans[t - 1].layout, Layout::Bitmap(_)) {
                counts[2] += 1;
            }
        }
        counts
    }

    #[test]
    fn dist_table_reads_both_encodings_back_as_iterated_p_multiplies() {
        // 640 nodes (10 bitmap words) with ~12 in-edges each: a first step
        // holds ~12 entries and level 2 ~140, an index list each, while
        // level 3 reaches most nodes, past ENTRIES_PER_BITMAP_WORD per
        // word, and is stored as a bitmap; level 4 is built from it.
        let n = 640;
        let g = exactsim_graph::generators::gnm_directed(n, 12 * n, 7).unwrap();
        let mut table = DistTable::new(n);
        let mut ws = Workspace::new(n);
        let mut layouts = [0usize; 3];
        for round in 0..2 {
            table.begin_query(n);
            table.begin_node();
            // Interleaved growth moves regions; a second query reuses the
            // arena's capacity.
            for level in 0..=5 {
                for q in (round..n as NodeId).step_by(37) {
                    table.reach(&g, q, level);
                }
            }
            let mut round_layouts = [0usize; 3];
            for q in (round..n as NodeId).step_by(37) {
                let mut want = SparseVec::unit(q, 1.0);
                for level in 0..=5 {
                    let want_bits: Vec<_> = want.iter().map(|(i, v)| (i, v.to_bits())).collect();
                    assert_eq!(
                        level_bits(&table, &g, q, level),
                        want_bits,
                        "round {round} slot {q} level {level}"
                    );
                    want = p_multiply_sparse(&g, &want, &mut ws);
                }
                let counts = slot_layouts(&table, q);
                round_layouts
                    .iter_mut()
                    .zip(counts)
                    .for_each(|(t, c)| *t += c);
            }
            assert_eq!(round_layouts[..2], table.stored, "round {round}");
            layouts
                .iter_mut()
                .zip(round_layouts)
                .for_each(|(t, c)| *t += c);
        }
        assert!(
            layouts[0] > 0 && layouts[1] > 0 && layouts[2] > 0,
            "[index lists, bitmaps, built on a bitmap] = {layouts:?}"
        );
    }

    #[test]
    fn dense_levels_cost_fewer_bytes_per_entry_than_index_lists() {
        // A heavy-tailed graph of 8,192 nodes (128 bitmap words) with 4
        // edges per node, explored from every 64th node: Algorithm 3's
        // shallow levels hold a few entries, its deep ones most nodes.
        // Stored bytes per stored entry: 4 per index, 8 per value, 8 per
        // bitmap word. Index lists alone cost exactly 12; a bitmap for
        // every level costs a whole bitmap for each of the many sparse
        // ones (~12 here).
        let n = 8_192;
        let g = exactsim_graph::generators::power_law_digraph(
            exactsim_graph::generators::PowerLawConfig {
                nodes: n,
                edges: 4 * n,
                gamma_in: 2.2,
                gamma_out: 2.5,
                seed: 27,
            },
        )
        .unwrap();
        let allocation: Vec<u64> = (0..n)
            .map(|k| if k % 64 == 0 { 40_000 } else { 0 })
            .collect();
        let caps = crate::diagonal::LocalExploreCaps {
            max_tail_samples: 10,
            ..Default::default()
        };
        let mut scratch = DiagonalScratch::new(n);
        crate::diagonal::estimate_diagonal_in(
            &g,
            &allocation,
            &crate::diagonal::DiagonalEstimator::LocalDeterministic(caps),
            0.6f64.sqrt(),
            1e-3,
            1,
            &mut scratch,
        );
        let dist = &scratch.dist;
        let entries = dist.values.len();
        let bytes = 4 * dist.indices.len() + 8 * dist.words.len() + 8 * entries;
        assert!(
            bytes < 10 * entries,
            "{bytes} bytes for {entries} entries in {:?} [index-list, bitmap] levels",
            dist.stored
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
