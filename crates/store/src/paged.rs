//! [`PagedGraph`]: a [`NeighborAccess`] backend that streams adjacency from
//! a page file through a pinning [`BufferPool`].
//!
//! Only the global in-offsets array, the page directory, and up to
//! `pool_pages` decoded pages are resident; everything else stays on disk.
//! The page file holds the in-rows alone, which is all a query reads.
//! A solver generic over `G: NeighborAccess` runs against this backend
//! unchanged and — because pages store exactly the same sorted neighbor
//! lists as the in-memory CSR — produces bit-identical score vectors, which
//! the in-memory-vs-paged equivalence tests pin across all five solvers.
//!
//! ## Panics
//!
//! `NeighborAccess` has no error channel (the in-memory fast path must stay
//! a plain slice return), so I/O failures and pool exhaustion inside
//! `in_neighbors` panic with the underlying [`StoreError`].
//! Both are deployment faults, not data states: a page file is a rebuildable
//! cache of a durably-stored epoch, and pool exhaustion means the pool was
//! sized below `threads + 1` pages.

use std::cell::RefCell;
use std::ops::{Deref, Range};
use std::path::Path;
use std::sync::{Arc, Weak};

use exactsim_graph::{CsrAdjacency, InGraph, NeighborAccess, NodeId};

use crate::buffer::{BufferPool, PinnedPage, PoolStats};
use crate::error::StoreError;
use crate::pages::{write_page_file, FileManager, PageData};

/// A graph served from a page file through a shared buffer pool.
#[derive(Debug)]
pub struct PagedGraph {
    fm: FileManager,
    pool: Arc<BufferPool>,
}

impl PagedGraph {
    /// Writes the page-file image of `graph` at `epoch` to `path`. See
    /// [`crate::pages::write_page_file`].
    pub fn build(
        path: &Path,
        graph: &InGraph,
        epoch: u64,
        page_bytes: usize,
    ) -> Result<(), StoreError> {
        write_page_file(path, graph, epoch, page_bytes)
    }

    /// Opens a page file and serves it through `pool`. The pool may be
    /// shared with other epochs' paged graphs; page keys never collide.
    pub fn open(path: &Path, pool: Arc<BufferPool>) -> Result<Self, StoreError> {
        Ok(PagedGraph {
            fm: FileManager::open(path)?,
            pool,
        })
    }

    /// The epoch this page file images.
    pub fn epoch(&self) -> u64 {
        self.fm.epoch()
    }

    /// Number of pages in the file.
    pub fn num_pages(&self) -> usize {
        self.fm.num_pages()
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Current buffer-pool statistics.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The underlying page file's path.
    pub fn path(&self) -> &Path {
        self.fm.path()
    }

    /// Rebuilds the in-memory [`InGraph`] by streaming every page once,
    /// bypassing the pool (a sequential scan must not wipe the working set).
    /// This is the commit path's transient materialization — it costs
    /// `O(graph)` memory for its duration.
    pub fn materialize(&self) -> Result<InGraph, StoreError> {
        let offsets = self.fm.in_offsets().iter().map(|&o| o as usize).collect();
        let mut targets: Vec<NodeId> = Vec::with_capacity(self.fm.num_edges());
        // Pages are laid out in node order, so straight concatenation
        // reproduces the target array.
        for page_no in 0..self.fm.num_pages() as u32 {
            targets.extend_from_slice(&self.fm.read_page(page_no)?.targets);
        }
        Ok(InGraph::from_in_csr(CsrAdjacency::from_raw_parts(
            offsets, targets,
        )))
    }

    fn neighbors(&self, page_no: u32, range: Range<usize>) -> PagedNeighbors<'_> {
        if range.is_empty() {
            return PagedNeighbors { page: None, range };
        }
        PagedNeighbors {
            page: Some(self.page(page_no)),
            range,
        }
    }

    /// The payload of `page_no`. A page still alive in the thread's page
    /// table is served from it — no pool lock, counted as a pool hit.
    /// Anything else is fetched (and pinned) through the pool and recorded
    /// in the table.
    fn page(&self, page_no: u32) -> PageRef<'_> {
        PAGE_TABLE.with(|table| {
            let mut table = table.borrow_mut();
            let file = self.fm.id();
            if table.file != file {
                table.file = file;
                table.pages.clear();
                table.pages.resize(self.fm.num_pages(), Weak::new());
            }
            let entry = &mut table.pages[page_no as usize];
            if let Some(data) = entry.upgrade() {
                self.pool.count_hit();
                return PageRef::Shared(data);
            }
            let guard = self
                .pool
                .fetch(&self.fm, page_no)
                .unwrap_or_else(|e| panic!("paged graph adjacency read failed: {e}"));
            *entry = Arc::downgrade(guard.data());
            PageRef::Pinned(guard)
        })
    }
}

/// A thread's page table for one page file: entry `p` is a `Weak` handle on
/// page `p`'s payload as the pool last handed it out. It owns nothing — a
/// page lives only as long as the pool (or a live guard) keeps it — so the
/// table serves exactly the pages the pool still holds, without the pool
/// lock.
struct PageTable {
    /// Id of the page file the entries belong to (`0`: none yet; file ids
    /// start at 1).
    file: u64,
    pages: Vec<Weak<PageData>>,
}

thread_local! {
    /// The thread's page table, reset whenever the thread reads a different
    /// page file.
    static PAGE_TABLE: RefCell<PageTable> = const {
        RefCell::new(PageTable {
            file: 0,
            pages: Vec::new(),
        })
    };
}

/// How a [`PagedNeighbors`] guard holds its page.
enum PageRef<'a> {
    /// Fetched from the pool this access; pins the frame until drop.
    Pinned(PinnedPage<'a>),
    /// Served from the thread's page table; the payload outlives any
    /// eviction because the guard shares ownership of it.
    Shared(Arc<PageData>),
}

impl PageRef<'_> {
    #[inline]
    fn targets(&self) -> &[NodeId] {
        match self {
            PageRef::Pinned(guard) => &guard.data().targets,
            PageRef::Shared(data) => &data.targets,
        }
    }
}

/// The guard returned by [`PagedGraph`]'s neighbor accessors: keeps its page
/// alive (pinning the pool frame when it came from the pool) for the guard's
/// lifetime and derefs to the node's slice of the page. Empty neighbor lists
/// skip the pool entirely.
pub struct PagedNeighbors<'a> {
    page: Option<PageRef<'a>>,
    range: Range<usize>,
}

impl Deref for PagedNeighbors<'_> {
    type Target = [NodeId];

    #[inline]
    fn deref(&self) -> &[NodeId] {
        match &self.page {
            Some(page) => &page.targets()[self.range.clone()],
            None => &[],
        }
    }
}

impl NeighborAccess for PagedGraph {
    type Neighbors<'a> = PagedNeighbors<'a>;

    #[inline]
    fn num_nodes(&self) -> usize {
        self.fm.num_nodes()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.fm.num_edges()
    }

    #[inline]
    fn in_degree(&self, v: NodeId) -> usize {
        let offsets = self.fm.in_offsets();
        (offsets[v as usize + 1] - offsets[v as usize]) as usize
    }

    fn in_neighbors(&self, v: NodeId) -> PagedNeighbors<'_> {
        let (page_no, range) = self.fm.locate_in(v);
        self.neighbors(page_no, range)
    }

    /// Walks `nodes` holding one page at a time. A node stored on the held
    /// page is sliced straight out of it; only a node on another page pays
    /// for the page lookup and fetch.
    fn for_each_in_neighbors<I, F>(&self, nodes: I, mut f: F)
    where
        I: IntoIterator<Item = NodeId>,
        F: FnMut(NodeId, &[NodeId]),
    {
        let offsets = self.fm.in_offsets();
        // (nodes stored on the page, offset of its first target, payload)
        let mut held: Option<(Range<NodeId>, u64, PageRef<'_>)> = None;
        for v in nodes {
            let (lo, hi) = (offsets[v as usize], offsets[v as usize + 1]);
            if lo == hi {
                f(v, &[]);
                continue;
            }
            let (base, page) = match &held {
                Some((stored, base, page)) if stored.contains(&v) => (*base, page),
                _ => {
                    // Release the previous page before taking the next, so a
                    // run never holds more than one pin.
                    held = None;
                    let (page_no, _) = self.fm.locate_in(v);
                    let stored = self.fm.page_nodes(page_no);
                    let base = offsets[stored.start as usize];
                    let (_, base, page) = held.insert((stored, base, self.page(page_no)));
                    (*base, &*page)
                }
            };
            f(
                v,
                &page.targets()[(lo - base) as usize..(hi - base) as usize],
            );
        }
    }

    fn resident_bytes(&self) -> usize {
        self.fm.resident_bytes() + self.pool.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exactsim_graph::generators::barabasi_albert;
    use std::path::PathBuf;

    fn paged(tag: &str, pool_pages: usize) -> (PathBuf, InGraph, PagedGraph) {
        let dir = std::env::temp_dir().join(format!("exactsim-paged-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch-0.pages");
        let graph = barabasi_albert(400, 4, true, 23).unwrap().into_in_graph();
        PagedGraph::build(&path, &graph, 0, 64).unwrap();
        let paged = PagedGraph::open(&path, Arc::new(BufferPool::new(pool_pages))).unwrap();
        (dir, graph, paged)
    }

    #[test]
    fn adjacency_matches_the_in_memory_graph_exactly() {
        let (dir, graph, paged) = paged("match", 8);
        assert_eq!(NeighborAccess::num_nodes(&paged), graph.num_nodes());
        assert_eq!(NeighborAccess::num_edges(&paged), graph.num_edges());
        for v in 0..graph.num_nodes() as NodeId {
            assert_eq!(paged.in_degree(v), graph.in_degree(v));
            assert_eq!(&*paged.in_neighbors(v), graph.in_neighbors(v));
            assert_eq!(
                NeighborAccess::has_edge(&paged, v, (v + 1) % graph.num_nodes() as NodeId),
                graph.has_edge(v, (v + 1) % graph.num_nodes() as NodeId)
            );
        }
        // A pool far smaller than the page count must have evicted.
        assert!(paged.num_pages() > 8);
        assert!(paged.pool_stats().evictions > 0);
        assert!(paged.resident_bytes() < graph.memory_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_accessors_fetch_each_page_once_per_run() {
        let (dir, graph, paged) = paged("runs", 1024);
        let n = graph.num_nodes() as NodeId;
        let mut ins = Vec::new();
        paged.for_each_in_neighbors(0..n, |v, list| ins.push((v, list.to_vec())));
        for v in 0..n {
            assert_eq!(ins[v as usize], (v, graph.in_neighbors(v).to_vec()));
        }
        // One fetch per page, and every page was read from the file once.
        let touched = (0..n)
            .map(|v| paged.fm.locate_in(v))
            .filter(|(_, range)| !range.is_empty())
            .map(|(page, _)| page)
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u64;
        let first = paged.pool_stats();
        assert_eq!((first.misses, first.hits), (touched, 0));
        // Every page is still resident: a second pass is all page-table hits.
        paged.for_each_in_neighbors(0..n, |_, _| {});
        let second = paged.pool_stats();
        assert_eq!((second.misses, second.hits), (touched, touched));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn page_table_serves_resident_pages_and_forgets_evicted_ones() {
        let (dir, graph, paged) = paged("table", 2);
        let (page0, _) = paged.fm.locate_in(0);
        let node_on = |page: u32| {
            (0..paged.num_nodes() as NodeId)
                .find(|&v| {
                    let (p, range) = paged.fm.locate_in(v);
                    p == page && !range.is_empty()
                })
                .expect("every page holds a non-empty list")
        };
        let v0 = node_on(page0);
        drop(paged.in_neighbors(v0));
        drop(paged.in_neighbors(v0));
        let s = paged.pool_stats();
        assert_eq!((s.misses, s.hits), (1, 1), "a resident page is a table hit");
        // Cycle other pages through the 2-frame pool until page 0 is gone.
        for page in (0..paged.num_pages() as u32)
            .filter(|&p| p != page0)
            .take(4)
        {
            drop(paged.in_neighbors(node_on(page)));
        }
        assert!(paged.pool_stats().evictions > 0);
        let before = paged.pool_stats().misses;
        assert_eq!(&*paged.in_neighbors(v0), graph.in_neighbors(v0));
        assert_eq!(
            paged.pool_stats().misses,
            before + 1,
            "an evicted page must be read again, not served from the table"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn materialize_round_trips_bit_identically() {
        let (dir, graph, paged) = paged("mat", 4);
        let rebuilt = paged.materialize().unwrap();
        assert_eq!(rebuilt, graph);
        assert!(rebuilt.validate());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
