//! A pinning buffer pool over page files.
//!
//! Classic disk-engine structure, read-only edition: a fixed number of
//! frames, a hash map from page keys to frames, pin counts, and a clock
//! (second-chance) replacer. Because the store never mutates published
//! pages, every frame is clean — eviction is a drop, never a write-back.
//!
//! One pool is shared across epochs of a paged [`crate::GraphStore`]: keys
//! are `(file_id, page_no)`, where each opened page file gets a unique id,
//! so after a commit the old epoch's pages simply age out under the clock
//! while the counters (hits/misses/evictions) stay monotonic — which is what
//! the `simrank_pool_*` Prometheus series require.
//!
//! ## Pinning
//!
//! [`BufferPool::fetch`] returns a [`PinnedPage`] that holds the frame's pin
//! count up until drop; pinned frames are never chosen by the replacer. The
//! page payload itself is additionally behind an `Arc`, so even a pool bug
//! could not invalidate a live reader — the pin's job is purely to keep the
//! *pool* honest about its working set. If every frame is pinned, `fetch`
//! fails with [`StoreError::PoolExhausted`] after two full sweeps instead of
//! deadlocking; callers hold at most a few guards per thread, so any pool of
//! at least `threads + 1` pages cannot hit this.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::error::StoreError;
use crate::pages::{FileManager, PageData};

use std::sync::Arc;

/// Identifies one page across every file the pool has seen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct PageKey {
    file: u64,
    page: u32,
}

/// Multiply-xor hasher for [`PageKey`]. The pool lookup sits on every
/// neighbor access of every paged query, and the default SipHash is the
/// single largest cost on that path; page keys are tiny, fixed-shape and
/// not attacker-controlled, so a two-instruction mix is enough.
#[derive(Default)]
struct PageKeyHasher(u64);

impl std::hash::Hasher for PageKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PageKey hashes through the integer write methods")
    }

    fn write_u64(&mut self, v: u64) {
        // Fibonacci multiply + shift-xor: mixes the file id (high entropy in
        // low bits) and page number into all table-index bits.
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }
}

struct Frame {
    key: Option<PageKey>,
    data: Option<Arc<PageData>>,
    ref_bit: bool,
}

struct PoolInner {
    frames: Vec<Frame>,
    map: HashMap<PageKey, usize, BuildHasherDefault<PageKeyHasher>>,
    hand: usize,
}

/// A point-in-time view of the pool, for `stats` JSON and Prometheus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Frame capacity of the pool.
    pub capacity: u64,
    /// Frames currently holding a page.
    pub resident: u64,
    /// Frames currently pinned by live neighbor guards.
    pub pinned: u64,
    /// Page accesses served without reading the page file (monotonic):
    /// fetches that found a resident frame, plus the paged graph's
    /// page-table hits, which skip the pool lock.
    pub hits: u64,
    /// Fetches that had to read the page file (monotonic).
    pub misses: u64,
    /// Resident pages dropped to make room (monotonic).
    pub evictions: u64,
}

impl PoolStats {
    /// Hit fraction of all fetches so far (`0.0` before any fetch).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The pinning, read-only buffer pool. See the module docs.
pub struct BufferPool {
    capacity: usize,
    inner: Mutex<PoolInner>,
    /// Per-frame pin counts, outside the lock: a pin is taken under the
    /// lock (so the replacer's `pins == 0` check cannot race a new pin),
    /// but releasing one is a single atomic decrement — guard drop sits on
    /// every neighbor access and must not take the pool lock again. The
    /// only cross-thread race this allows is an unpin landing mid-sweep,
    /// which merely postpones that frame's eviction by one lap.
    pins: Box<[AtomicU32]>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("BufferPool")
            .field("capacity", &stats.capacity)
            .field("resident", &stats.resident)
            .field("pinned", &stats.pinned)
            .finish_non_exhaustive()
    }
}

impl BufferPool {
    /// A pool of `capacity` frames (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BufferPool {
            capacity,
            inner: Mutex::new(PoolInner {
                frames: Vec::new(),
                map: HashMap::default(),
                hand: 0,
            }),
            pins: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fetches `page_no` of `fm`, pinning its frame until the returned guard
    /// drops. A miss reads the page under the pool lock (reads are short and
    /// page-sized; serializing them keeps the pool free of in-flight-read
    /// bookkeeping) and may evict one unpinned, unreferenced page.
    pub fn fetch(&self, fm: &FileManager, page_no: u32) -> Result<PinnedPage<'_>, StoreError> {
        let key = PageKey {
            file: fm.id(),
            page: page_no,
        };
        let mut inner = self.inner.lock().expect("buffer pool poisoned");
        if let Some(&idx) = inner.map.get(&key) {
            let frame = &mut inner.frames[idx];
            frame.ref_bit = true;
            let data = Arc::clone(frame.data.as_ref().expect("mapped frame holds data"));
            self.pins[idx].fetch_add(1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(PinnedPage {
                pool: self,
                frame: idx,
                data,
            });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let idx = if inner.frames.len() < self.capacity {
            inner.frames.push(Frame {
                key: None,
                data: None,
                ref_bit: false,
            });
            inner.frames.len() - 1
        } else {
            // Clock sweep: skip pinned frames, clear one reference bit per
            // visit, give up (typed error, no deadlock) after two laps.
            let mut chosen = None;
            for _ in 0..2 * self.capacity {
                let i = inner.hand;
                inner.hand = (inner.hand + 1) % self.capacity;
                if self.pins[i].load(Ordering::Acquire) > 0 {
                    continue;
                }
                let frame = &mut inner.frames[i];
                if frame.ref_bit {
                    frame.ref_bit = false;
                    continue;
                }
                chosen = Some(i);
                break;
            }
            chosen.ok_or(StoreError::PoolExhausted {
                capacity: self.capacity,
            })?
        };
        let data = Arc::new(fm.read_page(page_no)?);
        let evicted = {
            let frame = &mut inner.frames[idx];
            let old = frame.key.take();
            frame.key = Some(key);
            frame.data = Some(Arc::clone(&data));
            self.pins[idx].fetch_add(1, Ordering::Relaxed);
            frame.ref_bit = true;
            old
        };
        if let Some(old) = evicted {
            inner.map.remove(&old);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        inner.map.insert(key, idx);
        Ok(PinnedPage {
            pool: self,
            frame: idx,
            data,
        })
    }

    /// Counts an access served without the pool lock from a payload the
    /// pool handed out earlier (the paged graph's page table) as a hit.
    pub(crate) fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn unpin(&self, frame: usize) {
        let prev = self.pins[frame].fetch_sub(1, Ordering::Release);
        debug_assert!(prev > 0, "unpin without a pin");
    }

    /// Current pool statistics.
    pub fn stats(&self) -> PoolStats {
        let inner = self.inner.lock().expect("buffer pool poisoned");
        PoolStats {
            capacity: self.capacity as u64,
            resident: inner.frames.iter().filter(|f| f.data.is_some()).count() as u64,
            pinned: self.pins[..inner.frames.len()]
                .iter()
                .filter(|p| p.load(Ordering::Relaxed) > 0)
                .count() as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Bytes of decoded page payloads currently resident.
    pub fn resident_bytes(&self) -> usize {
        let inner = self.inner.lock().expect("buffer pool poisoned");
        inner
            .frames
            .iter()
            .filter_map(|f| f.data.as_ref())
            .map(|d| d.resident_bytes())
            .sum()
    }
}

/// A pinned page: keeps its frame un-evictable until dropped and hands out
/// the decoded payload.
pub struct PinnedPage<'a> {
    pool: &'a BufferPool,
    frame: usize,
    data: Arc<PageData>,
}

impl PinnedPage<'_> {
    /// The decoded page payload.
    pub fn data(&self) -> &Arc<PageData> {
        &self.data
    }
}

impl Drop for PinnedPage<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::write_page_file;
    use exactsim_graph::generators::barabasi_albert;
    use std::path::PathBuf;

    fn page_file(tag: &str) -> (PathBuf, FileManager) {
        let dir =
            std::env::temp_dir().join(format!("exactsim-buffer-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch-0.pages");
        let graph = barabasi_albert(200, 3, true, 5).unwrap().into_in_graph();
        write_page_file(&path, &graph, 0, 64).unwrap();
        let fm = FileManager::open(&path).unwrap();
        (dir, fm)
    }

    #[test]
    fn hits_misses_and_evictions_are_counted() {
        let (dir, fm) = page_file("counts");
        let pages = fm.num_pages() as u32;
        assert!(pages >= 4, "need several pages, got {pages}");
        let pool = BufferPool::new(2);
        // Cold fetches of two pages: misses.
        drop(pool.fetch(&fm, 0).unwrap());
        drop(pool.fetch(&fm, 1).unwrap());
        // Refetch: hit.
        drop(pool.fetch(&fm, 0).unwrap());
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 2, 0));
        // Touch every page with a 2-frame pool: evictions must happen.
        for p in 0..pages {
            drop(pool.fetch(&fm, p).unwrap());
        }
        let s = pool.stats();
        assert!(s.evictions > 0);
        assert_eq!(s.resident, 2);
        assert!(s.hit_rate() > 0.0 && s.hit_rate() < 1.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_frames_are_never_evicted() {
        let (dir, fm) = page_file("pins");
        let pool = BufferPool::new(2);
        let guard0 = pool.fetch(&fm, 0).unwrap();
        let first_targets: Vec<_> = guard0.data().targets.clone();
        // Cycle many other pages through the remaining frame.
        for p in 1..fm.num_pages() as u32 {
            drop(pool.fetch(&fm, p).unwrap());
        }
        // Page 0 must still be resident and intact.
        assert_eq!(guard0.data().targets, first_targets);
        let s = pool.stats();
        assert_eq!(s.pinned, 1);
        let refetch = pool.fetch(&fm, 0).unwrap();
        assert_eq!(refetch.data().targets, first_targets);
        drop(refetch);
        drop(guard0);
        assert_eq!(pool.stats().pinned, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_pool_errors_instead_of_deadlocking() {
        let (dir, fm) = page_file("exhaust");
        let pool = BufferPool::new(2);
        let _g0 = pool.fetch(&fm, 0).unwrap();
        let _g1 = pool.fetch(&fm, 1).unwrap();
        assert!(matches!(
            pool.fetch(&fm, 2),
            Err(StoreError::PoolExhausted { capacity: 2 })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
