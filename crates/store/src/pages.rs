//! The on-disk page file: fixed-size pages of CSR ranges plus a file
//! manager for page I/O.
//!
//! A page file is the paged backend's image of one published epoch. It is a
//! *rebuildable cache*: the durable truth stays the snapshot + WAL of
//! [`crate::persist`], and a page file can always be regenerated from them
//! (`write_page_file` over the materialized graph), so page I/O errors never
//! threaten durability.
//!
//! ## Layout (version 2, little-endian)
//!
//! ```text
//! magic          "ESPG"                        4 bytes
//! version        u32                           4 bytes
//! epoch          u64                           8 bytes
//! num_nodes      u64                           8 bytes
//! num_edges      u64                           8 bytes
//! page_bytes     u32   target capacity per regular page     4 bytes
//! num_pages      u32                           4 bytes
//! in_offsets     u64 × (num_nodes + 1)         global in-CSR offsets
//! directory      20 bytes × num_pages          {first_node u32, node_count u32,
//!                                               file_offset u64, byte_len u32}
//! header_crc     u32 over everything above     4 bytes
//! pages          ...                           at their directory offsets
//! ```
//!
//! The file images the in-rows alone ([`InGraph`]): every kernel reads
//! in-neighbors only. Version 1 also held an out-orientation (its offsets,
//! an out-page count and out pages ahead of the in pages) that no query
//! read; a version-1 file is refused with
//! [`StoreError::UnsupportedVersion`], and since page files are caches it is
//! simply rebuilt.
//!
//! The global offsets array stays RAM-resident in the [`FileManager`], which
//! is what makes degrees (`offsets[v+1] - offsets[v]`) and page-relative
//! slicing O(1) without touching adjacency storage — the per-page offset
//! table of a textbook layout is hoisted to the file header, once, instead
//! of repeated per page.
//!
//! ## Pages
//!
//! Each page covers a contiguous node range and stores exactly the
//! concatenated in-neighbor lists of that range:
//!
//! ```text
//! first_node  u32
//! node_count  u32
//! edge_count  u32
//! targets     u32 × edge_count
//! crc32       u32 over everything above
//! ```
//!
//! Nodes are packed greedily until a page's targets would exceed
//! `page_bytes`; a single node whose neighbor list alone exceeds the
//! capacity gets a private jumbo page (pages are read whole, so jumbo pages
//! just cost one larger read).

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use exactsim_graph::{InGraph, NodeId};
use exactsim_obs::fault;

use crate::error::StoreError;
use crate::persist::crc32;

/// Page file magic.
pub const PAGE_MAGIC: &[u8; 4] = b"ESPG";

/// Page file format version this build writes and reads. Version 2 holds
/// the in-rows alone.
pub const PAGE_FORMAT_VERSION: u32 = 2;

/// Default target capacity of a regular page, in bytes (1024 neighbor ids).
pub const DEFAULT_PAGE_BYTES: usize = 4096;

/// Fixed-size part of the file header preceding the offsets array
/// (through `num_pages`).
const FILE_HEADER_LEN: usize = 40;

/// Bytes per directory entry.
const DIR_ENTRY_LEN: usize = 20;

/// Fixed per-page overhead: header (12) + trailing crc (4).
const PAGE_OVERHEAD: usize = 16;

/// Distinguishes page files across epochs inside one shared
/// [`crate::BufferPool`]: every opened [`FileManager`] gets a unique id, so
/// pool keys `(file_id, page_no)` never collide between the old and new
/// epoch during a commit swap.
static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(1);

/// The decoded, validated contents of one page, shared behind an `Arc` by
/// the buffer pool and its pin guards.
#[derive(Debug)]
pub struct PageData {
    /// First node of the range this page covers.
    pub first_node: NodeId,
    /// The concatenated, per-node-sorted neighbor lists of the range.
    pub targets: Vec<NodeId>,
}

impl PageData {
    /// Heap footprint of the decoded targets.
    pub fn resident_bytes(&self) -> usize {
        self.targets.len() * std::mem::size_of::<NodeId>()
    }
}

/// One directory entry: which node range a page covers and where its bytes
/// live in the file.
#[derive(Clone, Copy, Debug)]
pub struct PageMeta {
    /// First node of the page's range.
    pub first_node: NodeId,
    /// Number of consecutive nodes the page covers.
    pub node_count: u32,
    /// Absolute byte offset of the page in the file.
    pub file_offset: u64,
    /// Byte length of the page (header + targets + crc).
    pub byte_len: u32,
}

/// Greedily partitions nodes `0..n` into page ranges so each regular page
/// holds at most `cap_targets` neighbor ids. Returns `(first_node,
/// node_count)` pairs covering every node exactly once.
fn plan_pages(offsets: &[u64], cap_targets: usize) -> Vec<(NodeId, u32)> {
    let n = offsets.len() - 1;
    let mut pages = Vec::new();
    let mut first = 0usize;
    let mut edges_in_page = 0usize;
    for v in 0..n {
        let deg = (offsets[v + 1] - offsets[v]) as usize;
        if v > first && edges_in_page + deg > cap_targets {
            pages.push((first as NodeId, (v - first) as u32));
            first = v;
            edges_in_page = 0;
        }
        edges_in_page += deg;
    }
    if n > first {
        pages.push((first as NodeId, (n - first) as u32));
    }
    pages
}

/// Writes the page-file image of `graph` at `epoch` to `path` (atomically:
/// temp file + fsync + rename). `page_bytes` is the regular-page target
/// capacity in bytes; it is clamped to at least one neighbor id.
pub fn write_page_file(
    path: &Path,
    graph: &InGraph,
    epoch: u64,
    page_bytes: usize,
) -> Result<(), StoreError> {
    let n = graph.num_nodes();
    let m = graph.num_edges();
    let cap_targets = (page_bytes / std::mem::size_of::<NodeId>()).max(1);

    let csr = graph.in_csr();
    let offsets: Vec<u64> = csr.offsets().iter().map(|&o| o as u64).collect();
    let plan = plan_pages(&offsets, cap_targets);
    let num_pages = plan.len();

    let header_region_len = FILE_HEADER_LEN + 8 * offsets.len() + DIR_ENTRY_LEN * num_pages + 4;

    // Lay out the directory first so page offsets are known up front.
    let mut directory: Vec<PageMeta> = Vec::with_capacity(num_pages);
    let mut cursor = header_region_len as u64;
    for &(first, count) in &plan {
        let lo = offsets[first as usize];
        let hi = offsets[first as usize + count as usize];
        let byte_len = (PAGE_OVERHEAD + (hi - lo) as usize * 4) as u32;
        directory.push(PageMeta {
            first_node: first,
            node_count: count,
            file_offset: cursor,
            byte_len,
        });
        cursor += u64::from(byte_len);
    }

    let mut bytes = Vec::with_capacity(cursor as usize);
    bytes.extend_from_slice(PAGE_MAGIC);
    bytes.extend_from_slice(&PAGE_FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&epoch.to_le_bytes());
    bytes.extend_from_slice(&(n as u64).to_le_bytes());
    bytes.extend_from_slice(&(m as u64).to_le_bytes());
    bytes.extend_from_slice(&(page_bytes as u32).to_le_bytes());
    bytes.extend_from_slice(&(num_pages as u32).to_le_bytes());
    for &o in &offsets {
        bytes.extend_from_slice(&o.to_le_bytes());
    }
    for meta in &directory {
        bytes.extend_from_slice(&meta.first_node.to_le_bytes());
        bytes.extend_from_slice(&meta.node_count.to_le_bytes());
        bytes.extend_from_slice(&meta.file_offset.to_le_bytes());
        bytes.extend_from_slice(&meta.byte_len.to_le_bytes());
    }
    let header_crc = crc32(&bytes);
    bytes.extend_from_slice(&header_crc.to_le_bytes());
    debug_assert_eq!(bytes.len(), header_region_len);

    for meta in &directory {
        let lo = offsets[meta.first_node as usize] as usize;
        let hi = offsets[meta.first_node as usize + meta.node_count as usize] as usize;
        let page_start = bytes.len();
        bytes.extend_from_slice(&meta.first_node.to_le_bytes());
        bytes.extend_from_slice(&meta.node_count.to_le_bytes());
        bytes.extend_from_slice(&((hi - lo) as u32).to_le_bytes());
        for &t in &csr.targets()[lo..hi] {
            bytes.extend_from_slice(&t.to_le_bytes());
        }
        let page_crc = crc32(&bytes[page_start..]);
        bytes.extend_from_slice(&page_crc.to_le_bytes());
        debug_assert_eq!(bytes.len() - page_start, meta.byte_len as usize);
    }

    let tmp = path.with_extension("pages.tmp");
    let mut file = File::create(&tmp).map_err(|e| StoreError::io(&tmp, "create", e))?;
    std::io::Write::write_all(&mut file, &bytes).map_err(|e| StoreError::io(&tmp, "write", e))?;
    file.sync_all()
        .map_err(|e| StoreError::io(&tmp, "sync", e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| StoreError::io(path, "rename", e))?;
    Ok(())
}

fn corrupt(path: &Path, detail: impl Into<String>) -> StoreError {
    StoreError::PageCorrupt {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// Open page file: validated header, RAM-resident offsets + directory, and
/// positioned page reads (`pread`) for the buffer pool.
#[derive(Debug)]
pub struct FileManager {
    file: File,
    path: PathBuf,
    id: u64,
    epoch: u64,
    num_nodes: usize,
    num_edges: usize,
    page_bytes: u32,
    in_offsets: Vec<u64>,
    directory: Vec<PageMeta>,
    /// `first_node` of each page, for `partition_point` node→page lookup.
    first_nodes: Vec<NodeId>,
}

impl FileManager {
    /// Opens and fully validates a page file's header region (magic,
    /// version, lengths, checksum, directory consistency). Page payloads are
    /// validated lazily, per read.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let file = File::open(path).map_err(|e| StoreError::io(path, "open", e))?;
        let file_len = file
            .metadata()
            .map_err(|e| StoreError::io(path, "metadata", e))?
            .len();
        let mut fixed = [0u8; FILE_HEADER_LEN];
        if file_len < FILE_HEADER_LEN as u64 {
            return Err(corrupt(path, "file too short for a page-file header"));
        }
        file.read_exact_at(&mut fixed, 0)
            .map_err(|e| StoreError::io(path, "read", e))?;
        if &fixed[0..4] != PAGE_MAGIC {
            return Err(corrupt(path, "bad magic (not a page file)"));
        }
        let version = u32::from_le_bytes(fixed[4..8].try_into().expect("4 bytes"));
        if version != PAGE_FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                path: path.to_path_buf(),
                found: version,
                supported: PAGE_FORMAT_VERSION,
            });
        }
        let epoch = u64::from_le_bytes(fixed[8..16].try_into().expect("8 bytes"));
        let num_nodes = u64::from_le_bytes(fixed[16..24].try_into().expect("8 bytes"));
        let num_edges = u64::from_le_bytes(fixed[24..32].try_into().expect("8 bytes"));
        let page_bytes = u32::from_le_bytes(fixed[32..36].try_into().expect("4 bytes"));
        let num_pages = u32::from_le_bytes(fixed[36..40].try_into().expect("4 bytes")) as usize;
        let n = usize::try_from(num_nodes)
            .map_err(|_| corrupt(path, format!("num_nodes {num_nodes} exceeds usize")))?;
        let m = usize::try_from(num_edges)
            .map_err(|_| corrupt(path, format!("num_edges {num_edges} exceeds usize")))?;

        let header_region_len = FILE_HEADER_LEN + 8 * (n + 1) + DIR_ENTRY_LEN * num_pages + 4;
        if file_len < header_region_len as u64 {
            return Err(corrupt(
                path,
                format!("file too short ({file_len} bytes) for its declared header region"),
            ));
        }
        let mut header = vec![0u8; header_region_len];
        file.read_exact_at(&mut header, 0)
            .map_err(|e| StoreError::io(path, "read", e))?;
        let body_end = header_region_len - 4;
        let stored = u32::from_le_bytes(header[body_end..].try_into().expect("4 bytes"));
        let computed = crc32(&header[..body_end]);
        if stored != computed {
            return Err(corrupt(
                path,
                format!(
                    "header checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
                ),
            ));
        }

        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut prev = 0u64;
        for i in 0..=n {
            let lo = FILE_HEADER_LEN + 8 * i;
            let o = u64::from_le_bytes(header[lo..lo + 8].try_into().expect("8 bytes"));
            if (i == 0 && o != 0) || o < prev {
                return Err(corrupt(path, format!("offsets not monotonic at index {i}")));
            }
            prev = o;
            in_offsets.push(o);
        }
        if prev != num_edges {
            return Err(corrupt(
                path,
                format!("final offset {prev} does not match num_edges {num_edges}"),
            ));
        }

        let dir_start = FILE_HEADER_LEN + 8 * (n + 1);
        let mut directory = Vec::with_capacity(num_pages);
        for p in 0..num_pages {
            let at = dir_start + DIR_ENTRY_LEN * p;
            let meta = PageMeta {
                first_node: u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes")),
                node_count: u32::from_le_bytes(header[at + 4..at + 8].try_into().expect("4 bytes")),
                file_offset: u64::from_le_bytes(
                    header[at + 8..at + 16].try_into().expect("8 bytes"),
                ),
                byte_len: u32::from_le_bytes(header[at + 16..at + 20].try_into().expect("4 bytes")),
            };
            if meta.file_offset + u64::from(meta.byte_len) > file_len {
                return Err(corrupt(path, format!("page {p} overruns the file")));
            }
            directory.push(meta);
        }
        let mut first_nodes = Vec::with_capacity(num_pages);
        let mut next = 0u64;
        for meta in &directory {
            if u64::from(meta.first_node) != next || meta.node_count == 0 {
                return Err(corrupt(path, "page directory does not tile the node space"));
            }
            first_nodes.push(meta.first_node);
            next += u64::from(meta.node_count);
        }
        if next != num_nodes {
            return Err(corrupt(path, "page directory does not cover every node"));
        }

        Ok(FileManager {
            file,
            path: path.to_path_buf(),
            id: NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed),
            epoch,
            num_nodes: n,
            num_edges: m,
            page_bytes,
            in_offsets,
            directory,
            first_nodes,
        })
    }

    /// Unique id of this open file (pool key component).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The epoch the file images.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Node count of the imaged graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Edge count of the imaged graph.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.directory.len()
    }

    /// Regular-page target capacity in bytes, as written.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes as usize
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Global in-CSR offsets (length `n + 1`).
    pub fn in_offsets(&self) -> &[u64] {
        &self.in_offsets
    }

    /// RAM held by the manager itself: offsets array + directory (the pool
    /// accounts for cached page payloads separately).
    pub fn resident_bytes(&self) -> usize {
        8 * self.in_offsets.len()
            + self.directory.len() * std::mem::size_of::<PageMeta>()
            + self.first_nodes.len() * std::mem::size_of::<NodeId>()
    }

    /// The consecutive nodes whose lists page `page_no` stores.
    pub fn page_nodes(&self, page_no: u32) -> std::ops::Range<NodeId> {
        let meta = self.directory[page_no as usize];
        meta.first_node..meta.first_node + meta.node_count
    }

    /// The page and page-relative target range holding `v`'s in-neighbors.
    pub fn locate_in(&self, v: NodeId) -> (u32, std::ops::Range<usize>) {
        let p = self.first_nodes.partition_point(|&f| f <= v) - 1;
        let base = self.in_offsets[self.first_nodes[p] as usize];
        let lo = (self.in_offsets[v as usize] - base) as usize;
        let hi = (self.in_offsets[v as usize + 1] - base) as usize;
        (p as u32, lo..hi)
    }

    /// Reads and validates one page (positioned read; no shared cursor, so
    /// concurrent reads never race).
    pub fn read_page(&self, page_no: u32) -> Result<PageData, StoreError> {
        let meta = self
            .directory
            .get(page_no as usize)
            .copied()
            .ok_or_else(|| corrupt(&self.path, format!("page {page_no} out of range")))?;
        if fault::check(fault::sites::PAGE_READ).is_some() {
            return Err(StoreError::io(
                &self.path,
                "read",
                fault::injected_io_error(fault::sites::PAGE_READ),
            ));
        }
        let mut buf = vec![0u8; meta.byte_len as usize];
        self.file
            .read_exact_at(&mut buf, meta.file_offset)
            .map_err(|e| StoreError::io(&self.path, "read", e))?;
        if buf.len() < PAGE_OVERHEAD {
            return Err(corrupt(&self.path, format!("page {page_no} too short")));
        }
        let body_end = buf.len() - 4;
        let stored = u32::from_le_bytes(buf[body_end..].try_into().expect("4 bytes"));
        let computed = crc32(&buf[..body_end]);
        if fault::check(fault::sites::PAGE_CRC).is_some() {
            return Err(corrupt(
                &self.path,
                format!("page {page_no} checksum mismatch (injected bit-rot)"),
            ));
        }
        if stored != computed {
            return Err(corrupt(
                &self.path,
                format!(
                    "page {page_no} checksum mismatch (stored {stored:#010x}, \
                     computed {computed:#010x})"
                ),
            ));
        }
        let first_node = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
        let node_count = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
        let edge_count = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")) as usize;
        if first_node != meta.first_node
            || node_count != meta.node_count
            || PAGE_OVERHEAD + 4 * edge_count != meta.byte_len as usize
        {
            return Err(corrupt(
                &self.path,
                format!("page {page_no} header disagrees with the directory"),
            ));
        }
        let mut targets = Vec::with_capacity(edge_count);
        for i in 0..edge_count {
            let at = 12 + 4 * i;
            targets.push(u32::from_le_bytes(
                buf[at..at + 4].try_into().expect("4 bytes"),
            ));
        }
        Ok(PageData {
            first_node,
            targets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exactsim_graph::generators::barabasi_albert;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("exactsim-pages-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn plan_packs_greedily_and_covers_every_node() {
        // Degrees: 3, 1, 0, 2, 5 with a 4-target page capacity. Nodes 0, 1
        // fill the first page and the degree-0 node 2 rides along free.
        let offsets = [0u64, 3, 4, 4, 6, 11];
        let plan = plan_pages(&offsets, 4);
        assert_eq!(plan, vec![(0, 3), (3, 1), (4, 1)]);
        let covered: u64 = plan.iter().map(|&(_, c)| u64::from(c)).sum();
        assert_eq!(covered, 5);
        // A jumbo node (degree > cap) gets its own page.
        let offsets = [0u64, 10];
        assert_eq!(plan_pages(&offsets, 4), vec![(0, 1)]);
        // Empty graph: no pages.
        assert!(plan_pages(&[0u64], 4).is_empty());
    }

    #[test]
    fn page_file_round_trips_and_serves_neighbor_ranges() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("epoch-0.pages");
        let graph = barabasi_albert(300, 4, true, 11).unwrap().into_in_graph();
        write_page_file(&path, &graph, 7, 64).unwrap();
        let fm = FileManager::open(&path).unwrap();
        assert_eq!(fm.epoch(), 7);
        assert_eq!(fm.num_nodes(), graph.num_nodes());
        assert_eq!(fm.num_edges(), graph.num_edges());
        assert!(fm.num_pages() > 2, "64-byte pages must split this graph");
        for v in 0..graph.num_nodes() as NodeId {
            let (page_no, range) = fm.locate_in(v);
            let page = fm.read_page(page_no).unwrap();
            assert_eq!(&page.targets[range], graph.in_neighbors(v), "node {v}");
        }
        // One orientation: the header holds one offsets array, and the
        // pages hold every in-row once, in node order.
        let header = FILE_HEADER_LEN + 8 * (graph.num_nodes() + 1) + DIR_ENTRY_LEN * fm.num_pages();
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        assert_eq!(
            file_len,
            header + 4 + PAGE_OVERHEAD * fm.num_pages() + 4 * graph.num_edges()
        );
        let rows: Vec<NodeId> = (0..fm.num_pages() as u32)
            .flat_map(|p| fm.read_page(p).unwrap().targets)
            .collect();
        assert_eq!(rows, graph.in_csr().targets());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("epoch-0.pages");
        let graph = barabasi_albert(100, 3, true, 3).unwrap().into_in_graph();
        write_page_file(&path, &graph, 0, 64).unwrap();

        // Flip a byte in the header region.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileManager::open(&path),
            Err(StoreError::PageCorrupt { .. })
        ));

        // Flip a byte inside a page payload: the header validates, the page
        // read fails.
        write_page_file(&path, &graph, 0, 64).unwrap();
        let fm = FileManager::open(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 6;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let fm2 = FileManager::open(&path).unwrap();
        let last_page = (fm.num_pages() - 1) as u32;
        assert!(matches!(
            fm2.read_page(last_page),
            Err(StoreError::PageCorrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_1_page_file_is_refused() {
        let dir = tmp_dir("version");
        let path = dir.join("epoch-0.pages");
        let graph = barabasi_albert(50, 2, true, 5).unwrap().into_in_graph();
        write_page_file(&path, &graph, 0, 64).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileManager::open(&path),
            Err(StoreError::UnsupportedVersion {
                found: 1,
                supported: 2,
                ..
            })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_graph_pages_cleanly() {
        let dir = tmp_dir("empty");
        let path = dir.join("epoch-0.pages");
        let graph = exactsim_graph::DiGraph::from_edges(0, &[]).into_in_graph();
        write_page_file(&path, &graph, 0, DEFAULT_PAGE_BYTES).unwrap();
        let fm = FileManager::open(&path).unwrap();
        assert_eq!(fm.num_nodes(), 0);
        assert_eq!(fm.num_pages(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
