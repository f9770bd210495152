//! Sharded LRU result cache.
//!
//! Cached values are full single-source similarity columns wrapped in
//! `Arc<QueryResponse>`, keyed by `(epoch, algorithm, source, epsilon-tier)`
//! — the epoch component makes entries from superseded graph snapshots
//! unreachable the moment a new epoch is published, and a generation
//! [`ShardedLruCache::clear`] reclaims their memory eagerly. The
//! cache is sharded: each shard is an independent `Mutex<LruShard>` selected
//! by key hash, so concurrent queries for different sources rarely contend on
//! the same lock. Within a shard, recency is tracked with an intrusive
//! doubly-linked list over a slab (`O(1)` get/insert/evict, no per-operation
//! allocation beyond the stored entry).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use exactsim_graph::NodeId;

use crate::response::{AlgorithmKind, QueryResponse};

/// Quantizes an additive-error target ε into a deci-decade tier, so that
/// configurations with practically identical accuracy share cache entries
/// while meaningfully different ones do not: tier = round(−10·log₁₀ ε)
/// (ε = 1e-2 → 20, ε = 5e-3 → 23, ε = 1e-7 → 70).
pub fn epsilon_tier(epsilon: f64) -> u16 {
    if epsilon.is_nan() || epsilon <= 0.0 || !epsilon.is_finite() {
        return u16::MAX;
    }
    (-10.0 * epsilon.log10())
        .round()
        .clamp(0.0, u16::MAX as f64) as u16
}

/// Cache key: one single-source answer per graph epoch, algorithm, source,
/// and accuracy tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The graph epoch the answer was (or would be) computed against. A
    /// commit on the backing store bumps the epoch, so entries of older
    /// epochs can never answer post-commit queries — stale results are
    /// unreachable even before the cache is swept.
    pub epoch: u64,
    /// The algorithm that produced (or would produce) the answer.
    pub algorithm: AlgorithmKind,
    /// The query source node.
    pub source: NodeId,
    /// Quantized accuracy, from [`epsilon_tier`].
    pub epsilon_tier: u16,
}

const NIL: usize = usize::MAX;

struct Entry {
    key: CacheKey,
    value: Arc<QueryResponse>,
    prev: usize,
    next: usize,
}

/// One shard: a classic HashMap + intrusive-list LRU.
struct LruShard {
    map: HashMap<CacheKey, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        LruShard {
            map: HashMap::with_capacity(capacity.min(1024)),
            slab: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<Arc<QueryResponse>> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(Arc::clone(&self.slab[idx].value))
    }

    /// Inserts (or refreshes) an entry; returns `true` if an old entry was
    /// evicted to make room.
    fn insert(&mut self, key: CacheKey, value: Arc<QueryResponse>) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.free.push(victim);
            evicted = true;
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx] = Entry {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                };
                idx
            }
            None => {
                self.slab.push(Entry {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Drops every entry, returning how many were resident. The slab and its
    /// free list are released too: a generation sweep is the natural moment
    /// to return the memory of a whole epoch's worth of columns.
    fn clear(&mut self) -> usize {
        let dropped = self.map.len();
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        dropped
    }
}

/// The sharded LRU cache.
pub struct ShardedLruCache {
    shards: Vec<Mutex<LruShard>>,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl ShardedLruCache {
    /// Creates a cache holding at most `capacity` entries spread over (up to)
    /// `shards` independent LRU shards. The shard count is clamped to the
    /// capacity and the capacity is distributed exactly (the first
    /// `capacity % shards` shards hold one extra entry), so the configured
    /// total is a hard bound — each entry is a full similarity column, so
    /// callers use the capacity to bound memory.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        let base = capacity / shards;
        let extra = capacity % shards;
        ShardedLruCache {
            shards: (0..shards)
                .map(|i| Mutex::new(LruShard::new(base + usize::from(i < extra))))
                .collect(),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &CacheKey) -> &Mutex<LruShard> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        let idx = (hasher.finish() as usize) % self.shards.len();
        &self.shards[idx]
    }

    /// Looks up a key, refreshing its recency on hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<QueryResponse>> {
        self.shard_for(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key)
    }

    /// Inserts an entry, evicting the least recently used entry of the
    /// target shard if it is full.
    pub fn insert(&self, key: CacheKey, value: Arc<QueryResponse>) {
        let evicted = self
            .shard_for(&key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// `true` if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry (a generation invalidation, e.g. when the
    /// backing graph publishes a new epoch) and returns how many entries
    /// were swept. Concurrent inserts racing the sweep may land before or
    /// after it — epoch-tagged keys keep either order correct.
    pub fn clear(&self) -> usize {
        let swept: usize = self
            .shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").clear())
            .sum();
        self.invalidations
            .fetch_add(swept as u64, Ordering::Relaxed);
        swept
    }

    /// Total entries evicted under capacity pressure since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total entries dropped by [`ShardedLruCache::clear`] sweeps since
    /// creation (distinct from capacity [`ShardedLruCache::evictions`]).
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Number of shards (for diagnostics).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn resp(source: NodeId, tag: f64) -> Arc<QueryResponse> {
        Arc::new(QueryResponse::new(
            AlgorithmKind::ExactSim,
            0,
            source,
            vec![tag],
            Duration::ZERO,
        ))
    }

    fn key(source: NodeId) -> CacheKey {
        CacheKey {
            epoch: 0,
            algorithm: AlgorithmKind::ExactSim,
            source,
            epsilon_tier: 20,
        }
    }

    #[test]
    fn epsilon_tiers_separate_orders_of_magnitude() {
        assert_eq!(epsilon_tier(1e-2), 20);
        assert_eq!(epsilon_tier(1e-7), 70);
        assert_ne!(epsilon_tier(1e-2), epsilon_tier(5e-3));
        assert_eq!(epsilon_tier(1.05e-2), epsilon_tier(1e-2)); // same tier
        assert_eq!(epsilon_tier(0.0), u16::MAX);
        assert_eq!(epsilon_tier(f64::NAN), u16::MAX);
    }

    #[test]
    fn evicts_in_lru_order_under_capacity_pressure() {
        // One shard so the eviction order is globally observable.
        let cache = ShardedLruCache::new(3, 1);
        cache.insert(key(0), resp(0, 0.0));
        cache.insert(key(1), resp(1, 1.0));
        cache.insert(key(2), resp(2, 2.0));
        assert_eq!(cache.len(), 3);

        // Touch 0 so 1 becomes the LRU victim.
        assert!(cache.get(&key(0)).is_some());
        cache.insert(key(3), resp(3, 3.0));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&key(1)).is_none(), "LRU entry 1 should be gone");
        assert!(cache.get(&key(0)).is_some());
        assert!(cache.get(&key(2)).is_some());
        assert!(cache.get(&key(3)).is_some());

        // Eviction proceeds strictly in recency order.
        cache.insert(key(4), resp(4, 4.0));
        cache.insert(key(5), resp(5, 5.0));
        assert_eq!(cache.evictions(), 3);
        assert!(cache.get(&key(0)).is_none());
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(5)).is_some());
    }

    #[test]
    fn reinsert_refreshes_value_without_eviction() {
        let cache = ShardedLruCache::new(2, 1);
        cache.insert(key(0), resp(0, 0.0));
        cache.insert(key(0), resp(0, 9.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.get(&key(0)).unwrap().scores(), vec![9.0]);
    }

    #[test]
    fn distinct_tiers_algorithms_and_epochs_occupy_distinct_entries() {
        let cache = ShardedLruCache::new(16, 4);
        let a = CacheKey {
            epoch: 0,
            algorithm: AlgorithmKind::ExactSim,
            source: 1,
            epsilon_tier: 20,
        };
        let b = CacheKey {
            epsilon_tier: 30,
            ..a
        };
        let c = CacheKey {
            algorithm: AlgorithmKind::MonteCarlo,
            ..a
        };
        let d = CacheKey { epoch: 1, ..a };
        cache.insert(a, resp(1, 1.0));
        cache.insert(b, resp(1, 2.0));
        cache.insert(c, resp(1, 3.0));
        cache.insert(d, resp(1, 4.0));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.get(&a).unwrap().scores(), vec![1.0]);
        assert_eq!(cache.get(&b).unwrap().scores(), vec![2.0]);
        assert_eq!(cache.get(&c).unwrap().scores(), vec![3.0]);
        assert_eq!(cache.get(&d).unwrap().scores(), vec![4.0]);
    }

    #[test]
    fn clear_sweeps_every_shard_and_counts_invalidations() {
        let cache = ShardedLruCache::new(32, 4);
        for s in 0..20u32 {
            cache.insert(key(s), resp(s, s as f64));
        }
        assert_eq!(cache.len(), 20);
        assert_eq!(cache.clear(), 20);
        assert!(cache.is_empty());
        assert_eq!(cache.invalidations(), 20);
        assert_eq!(cache.evictions(), 0, "a sweep is not a capacity eviction");
        for s in 0..20u32 {
            assert!(cache.get(&key(s)).is_none(), "entry {s} survived clear");
        }
    }

    #[test]
    fn cache_remains_fully_usable_after_clear() {
        let cache = ShardedLruCache::new(3, 1);
        for s in 0..3u32 {
            cache.insert(key(s), resp(s, s as f64));
        }
        cache.clear();
        // Reinsert past capacity: LRU eviction still works on the fresh slab.
        for s in 10..15u32 {
            cache.insert(key(s), resp(s, s as f64));
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.get(&key(14)).unwrap().scores(), vec![14.0]);
        assert!(cache.get(&key(10)).is_none());
        // A second clear sweeps the reinserted generation.
        assert_eq!(cache.clear(), 3);
        assert_eq!(cache.invalidations(), 6);
    }

    #[test]
    fn clear_on_an_empty_cache_is_a_noop() {
        let cache = ShardedLruCache::new(8, 2);
        assert_eq!(cache.clear(), 0);
        assert_eq!(cache.invalidations(), 0);
    }

    #[test]
    fn total_capacity_is_a_hard_bound_and_slab_slots_are_reused() {
        let cache = ShardedLruCache::new(10, 4); // shard capacities 3,3,2,2
        assert_eq!(cache.shard_count(), 4);
        for s in 0..200u32 {
            cache.insert(key(s), resp(s, s as f64));
        }
        assert!(
            cache.len() <= 10,
            "len {} exceeds configured capacity",
            cache.len()
        );
        assert_eq!(cache.evictions() as usize, 200 - cache.len());
    }

    #[test]
    fn tiny_capacities_clamp_the_shard_count() {
        // capacity 1 with 16 requested shards must still hold at most 1 entry.
        let cache = ShardedLruCache::new(1, 16);
        assert_eq!(cache.shard_count(), 1);
        for s in 0..10u32 {
            cache.insert(key(s), resp(s, s as f64));
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 9);
    }

    #[test]
    fn concurrent_access_is_coherent() {
        let cache = Arc::new(ShardedLruCache::new(64, 8));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    let s = (t * 31 + i) % 40;
                    cache.insert(key(s), resp(s, s as f64));
                    if let Some(hit) = cache.get(&key(s)) {
                        assert_eq!(hit.scores(), vec![s as f64], "cross-thread value mix-up");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= 64);
    }
}
