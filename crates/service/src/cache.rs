//! The answer table of one graph epoch.
//!
//! ExactSim is index-free, so every answer the service holds is one full
//! single-source column computed against one epoch's graph. Each epoch's
//! serving state owns one [`ShardedLruCache`] of them, keyed by
//! `(algorithm, source, epsilon-tier)`. A key is either *pending* — a query
//! is computing it, and concurrent queries for the key wait on that one
//! computation instead of starting their own — or *ready*, holding the
//! computed `Arc<QueryResponse>`. [`ShardedLruCache::lookup`] (hit, follow
//! or lead) and [`ShardedLruCache::complete`] (pending → ready, or retired)
//! each run under the key's one shard lock, so there is no moment at which a
//! key is neither pending nor ready while its leader hands over.
//!
//! A commit gives the next epoch a fresh table, and adopting the epoch
//! [`clear`](ShardedLruCache::clear)s the superseded one: a column computed
//! against an older graph can never answer a newer epoch's query, and the
//! memory of a whole epoch's columns is reclaimed at once.
//!
//! The table is sharded: each shard is an independent `Mutex<LruShard>`
//! selected by key hash, so concurrent queries for different sources rarely
//! contend on the same lock. Within a shard, recency of the ready entries is
//! tracked with an intrusive doubly-linked list over a slab (`O(1)`
//! get/insert/evict, no per-operation allocation beyond the stored entry).
//! Pending entries are not on the list: they neither count against the
//! capacity nor get evicted.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use exactsim_graph::NodeId;
use exactsim_obs::metrics::Counter;

use crate::error::ServiceError;
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

/// Cache key: one single-source answer per algorithm, source, and accuracy
/// tier. The epoch is not part of the key: each epoch owns its own table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The algorithm that produced (or would produce) the answer.
    pub algorithm: AlgorithmKind,
    /// The query source node.
    pub source: NodeId,
    /// Quantized accuracy, from [`epsilon_tier`].
    pub epsilon_tier: u16,
}

/// The outcome of one computation, shared by its leader and its followers.
pub type QueryResult = Result<Arc<QueryResponse>, ServiceError>;

/// One computation in flight: its leader sets the cell once, when the
/// computation ends, and every follower waits on it.
pub type Flight = Arc<OnceLock<QueryResult>>;

/// What [`ShardedLruCache::lookup`] found for a key.
pub enum Lookup {
    /// The key's cached answer.
    Hit(Arc<QueryResponse>),
    /// Another query is computing the key: wait on its flight.
    Follow(Flight),
    /// The caller computes the key and then hands the result to
    /// [`ShardedLruCache::complete`] with this flight.
    Lead(Flight),
}

/// A key's place in its shard.
enum Slot {
    /// Computing; followers wait on the flight.
    Pending(Flight),
    /// Cached at this slab index.
    Ready(usize),
}

const NIL: usize = usize::MAX;

struct Entry {
    key: CacheKey,
    value: Arc<QueryResponse>,
    prev: usize,
    next: usize,
}

/// One shard: a HashMap of pending and ready keys plus an intrusive-list LRU
/// over the ready ones.
struct LruShard {
    map: HashMap<CacheKey, Slot>,
    /// The ready entries; an eviction hands the victim's slot to the newcomer.
    slab: Vec<Entry>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        LruShard {
            map: HashMap::with_capacity(capacity.min(1024)),
            slab: Vec::with_capacity(capacity.min(1024)),
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

    fn lookup(&mut self, key: CacheKey) -> Lookup {
        match self.map.get(&key) {
            Some(&Slot::Ready(idx)) => {
                self.unlink(idx);
                self.push_front(idx);
                Lookup::Hit(Arc::clone(&self.slab[idx].value))
            }
            Some(Slot::Pending(flight)) => Lookup::Follow(Arc::clone(flight)),
            None => {
                let flight = Flight::default();
                self.map.insert(key, Slot::Pending(Arc::clone(&flight)));
                Lookup::Lead(flight)
            }
        }
    }

    /// Ends `flight`'s hold on `key`: a successful result becomes the key's
    /// ready entry, an error retires the key, and a flight whose entry a
    /// sweep removed changes nothing. Returns `true` if a ready entry was
    /// evicted to make room.
    fn complete(&mut self, key: CacheKey, flight: &Flight, result: &QueryResult) -> bool {
        match self.map.get(&key) {
            Some(Slot::Pending(pending)) if Arc::ptr_eq(pending, flight) => {}
            _ => return false,
        }
        let Ok(value) = result else {
            self.map.remove(&key);
            return false;
        };
        let entry = Entry {
            key,
            value: Arc::clone(value),
            prev: NIL,
            next: NIL,
        };
        let evicted = self.slab.len() >= self.capacity;
        let idx = if evicted {
            // The least recently used answer gives up its slot.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.slab[victim] = entry;
            victim
        } else {
            self.slab.push(entry);
            self.slab.len() - 1
        };
        self.map.insert(key, Slot::Ready(idx));
        self.push_front(idx);
        evicted
    }

    /// Drops every entry, pending or ready, returning how many ready ones
    /// were resident.
    fn clear(&mut self) -> usize {
        let dropped = self.slab.len();
        self.map.clear();
        self.slab.clear();
        self.head = NIL;
        self.tail = NIL;
        dropped
    }
}

/// One epoch's sharded answer table.
pub struct ShardedLruCache {
    shards: Vec<Mutex<LruShard>>,
    evictions: Arc<Counter>,
    invalidations: Arc<Counter>,
}

impl ShardedLruCache {
    /// Creates a table holding at most `capacity` cached answers spread over
    /// (up to) `shards` independent LRU shards. The shard count is clamped
    /// to the capacity and the capacity is distributed exactly (the first
    /// `capacity % shards` shards hold one extra entry), so the configured
    /// total is a hard bound — each entry is a full similarity column, so
    /// callers use the capacity to bound memory. Capacity evictions add to
    /// `evictions` and entries swept by [`ShardedLruCache::clear`] to
    /// `invalidations`, counters that outlive the table.
    pub fn new(
        capacity: usize,
        shards: usize,
        evictions: Arc<Counter>,
        invalidations: Arc<Counter>,
    ) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        let base = capacity / shards;
        let extra = capacity % shards;
        ShardedLruCache {
            shards: (0..shards)
                .map(|i| Mutex::new(LruShard::new(base + usize::from(i < extra))))
                .collect(),
            evictions,
            invalidations,
        }
    }

    fn shard_for(&self, key: &CacheKey) -> &Mutex<LruShard> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        let idx = (hasher.finish() as usize) % self.shards.len();
        &self.shards[idx]
    }

    /// Resolves `key`: its cached answer (refreshing its recency), the
    /// flight of the query computing it, or — when the key is absent — a new
    /// flight the caller now leads. A leader must pass its flight to
    /// [`ShardedLruCache::complete`], or the key's followers wait forever.
    pub fn lookup(&self, key: CacheKey) -> Lookup {
        self.shard_for(&key)
            .lock()
            .expect("cache shard poisoned")
            .lookup(key)
    }

    /// Ends a flight this thread leads and hands `result` to its followers.
    /// A successful answer is cached, evicting the least recently used
    /// answer of the key's shard if it is full; an error is not cached, so
    /// the next lookup leads again. If a [`ShardedLruCache::clear`] swept the
    /// flight, its followers are still answered but nothing is cached.
    pub fn complete(&self, key: CacheKey, flight: &Flight, result: &QueryResult) {
        let evicted = self
            .shard_for(&key)
            .lock()
            .expect("cache shard poisoned")
            .complete(key, flight, result);
        if evicted {
            self.evictions.inc();
        }
        let first = flight.set(result.clone()).is_ok();
        debug_assert!(first, "a flight completes once");
    }

    /// Current number of cached answers across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").slab.len())
            .sum()
    }

    /// `true` if no answers are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of keys currently being computed.
    pub fn in_flight(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("cache shard poisoned");
                shard.map.len() - shard.slab.len()
            })
            .sum()
    }

    /// Drops every cached answer and every pending flight (when a newer
    /// epoch is adopted) and returns how many answers were swept, which it
    /// adds to the invalidation counter. A swept flight's leader still
    /// answers its followers, but caches nothing.
    pub fn clear(&self) -> usize {
        let swept: usize = self
            .shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").clear())
            .sum();
        self.invalidations.add(swept as u64);
        swept
    }

    /// Number of shards (for diagnostics).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    /// A table plus the eviction and invalidation counters it adds to.
    struct Table {
        cache: ShardedLruCache,
        evictions: Arc<Counter>,
        invalidations: Arc<Counter>,
    }

    impl Table {
        fn new(capacity: usize, shards: usize) -> Table {
            let evictions = Arc::new(Counter::new());
            let invalidations = Arc::new(Counter::new());
            Table {
                cache: ShardedLruCache::new(
                    capacity,
                    shards,
                    Arc::clone(&evictions),
                    Arc::clone(&invalidations),
                ),
                evictions,
                invalidations,
            }
        }

        /// Leads `key`'s flight and completes it with a one-score column.
        fn insert(&self, key: CacheKey, tag: f64) {
            let Lookup::Lead(flight) = self.cache.lookup(key) else {
                panic!("{key:?} is already pending or cached");
            };
            self.cache
                .complete(key, &flight, &Ok(resp(key.source, tag)));
        }

        /// The cached scores of `key` (a hit refreshes its recency), or
        /// `None` when the key is not cached.
        fn get(&self, key: CacheKey) -> Option<Vec<f64>> {
            match self.cache.lookup(key) {
                Lookup::Hit(hit) => Some(hit.scores().to_vec()),
                Lookup::Follow(_) => panic!("{key:?} is pending"),
                Lookup::Lead(flight) => {
                    // Retire the probe's flight so the key stays absent.
                    let miss = Err(ServiceError::InvalidRequest("probe".into()));
                    self.cache.complete(key, &flight, &miss);
                    None
                }
            }
        }
    }

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
        let table = Table::new(3, 1);
        table.insert(key(0), 0.0);
        table.insert(key(1), 1.0);
        table.insert(key(2), 2.0);
        assert_eq!(table.cache.len(), 3);

        // Touch 0 so 1 becomes the LRU victim.
        assert!(table.get(key(0)).is_some());
        table.insert(key(3), 3.0);
        assert_eq!(table.cache.len(), 3);
        assert_eq!(table.evictions.get(), 1);
        assert!(table.get(key(1)).is_none(), "LRU entry 1 should be gone");
        assert!(table.get(key(0)).is_some());
        assert!(table.get(key(2)).is_some());
        assert!(table.get(key(3)).is_some());

        // Eviction proceeds strictly in recency order.
        table.insert(key(4), 4.0);
        table.insert(key(5), 5.0);
        assert_eq!(table.evictions.get(), 3);
        assert!(table.get(key(0)).is_none());
        assert!(table.get(key(2)).is_none());
        assert!(table.get(key(5)).is_some());
    }

    #[test]
    fn a_cached_key_is_a_hit_and_leads_no_second_flight() {
        let table = Table::new(2, 1);
        table.insert(key(0), 9.0);
        for _ in 0..3 {
            assert!(matches!(table.cache.lookup(key(0)), Lookup::Hit(_)));
        }
        assert_eq!(table.cache.len(), 1);
        assert_eq!(table.cache.in_flight(), 0);
        assert_eq!(table.evictions.get(), 0);
        assert_eq!(table.get(key(0)).unwrap(), vec![9.0]);
    }

    /// Tiers and algorithms are separate keys of one table; epochs are
    /// separate tables, so an answer cached for one epoch is absent from the
    /// next epoch's table.
    #[test]
    fn distinct_tiers_algorithms_and_epochs_occupy_distinct_entries() {
        let table = Table::new(16, 4);
        let a = CacheKey {
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
        table.insert(a, 1.0);
        table.insert(b, 2.0);
        table.insert(c, 3.0);
        assert_eq!(table.cache.len(), 3);
        assert_eq!(table.get(a).unwrap(), vec![1.0]);
        assert_eq!(table.get(b).unwrap(), vec![2.0]);
        assert_eq!(table.get(c).unwrap(), vec![3.0]);

        let next_epoch = Table::new(16, 4);
        assert!(next_epoch.get(a).is_none());
        next_epoch.insert(a, 4.0);
        assert_eq!(next_epoch.get(a).unwrap(), vec![4.0]);
        assert_eq!(table.get(a).unwrap(), vec![1.0]);
    }

    #[test]
    fn clear_sweeps_every_shard_and_counts_invalidations() {
        let table = Table::new(32, 4);
        for s in 0..20u32 {
            table.insert(key(s), s as f64);
        }
        assert_eq!(table.cache.len(), 20);
        assert_eq!(table.cache.clear(), 20);
        assert!(table.cache.is_empty());
        assert_eq!(table.invalidations.get(), 20);
        assert_eq!(
            table.evictions.get(),
            0,
            "a sweep is not a capacity eviction"
        );
        for s in 0..20u32 {
            assert!(table.get(key(s)).is_none(), "entry {s} survived clear");
        }
    }

    #[test]
    fn cache_remains_fully_usable_after_clear() {
        let table = Table::new(3, 1);
        for s in 0..3u32 {
            table.insert(key(s), s as f64);
        }
        table.cache.clear();
        // Reinsert past capacity: LRU eviction still works on the fresh slab.
        for s in 10..15u32 {
            table.insert(key(s), s as f64);
        }
        assert_eq!(table.cache.len(), 3);
        assert_eq!(table.evictions.get(), 2);
        assert_eq!(table.get(key(14)).unwrap(), vec![14.0]);
        assert!(table.get(key(10)).is_none());
        // A second clear sweeps the reinserted generation.
        assert_eq!(table.cache.clear(), 3);
        assert_eq!(table.invalidations.get(), 6);
    }

    #[test]
    fn clear_on_an_empty_cache_is_a_noop() {
        let table = Table::new(8, 2);
        assert_eq!(table.cache.clear(), 0);
        assert_eq!(table.invalidations.get(), 0);
    }

    #[test]
    fn total_capacity_is_a_hard_bound_and_slab_slots_are_reused() {
        let table = Table::new(10, 4); // shard capacities 3,3,2,2
        assert_eq!(table.cache.shard_count(), 4);
        for s in 0..200u32 {
            table.insert(key(s), s as f64);
        }
        assert!(
            table.cache.len() <= 10,
            "len {} exceeds configured capacity",
            table.cache.len()
        );
        assert_eq!(table.evictions.get() as usize, 200 - table.cache.len());
    }

    #[test]
    fn tiny_capacities_clamp_the_shard_count() {
        // capacity 1 with 16 requested shards must still hold at most 1 entry.
        let table = Table::new(1, 16);
        assert_eq!(table.cache.shard_count(), 1);
        for s in 0..10u32 {
            table.insert(key(s), s as f64);
        }
        assert_eq!(table.cache.len(), 1);
        assert_eq!(table.evictions.get(), 9);
    }

    #[test]
    fn concurrent_access_is_coherent() {
        let table = Table::new(64, 8);
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let cache = &table.cache;
                scope.spawn(move || {
                    for i in 0..500u32 {
                        let s = (t * 31 + i) % 40;
                        let answer = match cache.lookup(key(s)) {
                            Lookup::Hit(hit) => Ok(hit),
                            Lookup::Follow(flight) => flight.wait().clone(),
                            Lookup::Lead(flight) => {
                                let result = Ok(resp(s, s as f64));
                                cache.complete(key(s), &flight, &result);
                                result
                            }
                        };
                        assert_eq!(
                            answer.unwrap().scores(),
                            vec![s as f64],
                            "cross-thread value mix-up"
                        );
                    }
                });
            }
        });
        assert!(table.cache.len() <= 64);
        assert_eq!(table.cache.in_flight(), 0);
    }

    #[test]
    fn first_caller_leads_latecomers_follow() {
        let table = Table::new(4, 1);
        let Lookup::Lead(flight) = table.cache.lookup(key(1)) else {
            panic!("first caller must lead");
        };
        let Lookup::Follow(_) = table.cache.lookup(key(1)) else {
            panic!("second caller must follow");
        };
        assert_eq!(table.cache.in_flight(), 1);
        let failed = Err(ServiceError::InvalidRequest("x".into()));
        table.cache.complete(key(1), &flight, &failed);
        assert_eq!(table.cache.in_flight(), 0);
        assert!(table.cache.is_empty(), "an error is not cached");
        // Key retired: next caller leads again.
        assert!(matches!(table.cache.lookup(key(1)), Lookup::Lead(_)));
    }

    #[test]
    fn followers_receive_the_leaders_result_across_threads() {
        const FOLLOWERS: usize = 4;
        let table = Table::new(4, 1);
        let Lookup::Lead(flight) = table.cache.lookup(key(1)) else {
            panic!("lead expected");
        };
        let published = Arc::new(QueryResponse::new(
            AlgorithmKind::ExactSim,
            0,
            1,
            vec![1.0, 0.5],
            Duration::from_micros(5),
        ));
        // Every follower has joined the flight before the leader completes.
        let joined = Barrier::new(FOLLOWERS + 1);
        std::thread::scope(|scope| {
            let followers: Vec<_> = (0..FOLLOWERS)
                .map(|_| {
                    scope.spawn(|| {
                        let Lookup::Follow(flight) = table.cache.lookup(key(1)) else {
                            panic!("the leader has not completed yet");
                        };
                        joined.wait();
                        flight.wait().clone()
                    })
                })
                .collect();
            joined.wait();
            table
                .cache
                .complete(key(1), &flight, &Ok(Arc::clone(&published)));
            for follower in followers {
                let resp = follower.join().unwrap().unwrap();
                assert!(Arc::ptr_eq(&resp, &published));
            }
        });
        // Completed: the next caller hits.
        assert!(matches!(table.cache.lookup(key(1)), Lookup::Hit(_)));
    }

    #[test]
    fn a_flight_swept_by_clear_answers_its_followers_but_caches_nothing() {
        let table = Table::new(4, 1);
        table.insert(key(0), 0.0);
        let Lookup::Lead(flight) = table.cache.lookup(key(1)) else {
            panic!("lead expected");
        };
        let Lookup::Follow(follower) = table.cache.lookup(key(1)) else {
            panic!("follow expected");
        };
        // The sweep counts the one cached answer, not the pending flight.
        assert_eq!(table.cache.clear(), 1);
        assert_eq!(table.invalidations.get(), 1);
        assert_eq!(table.cache.in_flight(), 0);

        // A query arriving after the sweep leads its own flight.
        let Lookup::Lead(after_sweep) = table.cache.lookup(key(1)) else {
            panic!("a swept key leads again");
        };
        table.cache.complete(key(1), &flight, &Ok(resp(1, 1.0)));
        assert_eq!(follower.wait().as_ref().unwrap().scores(), vec![1.0]);
        assert!(table.cache.is_empty(), "the swept flight cached its answer");
        assert_eq!(table.cache.in_flight(), 1, "the newer flight is intact");

        table
            .cache
            .complete(key(1), &after_sweep, &Ok(resp(1, 2.0)));
        assert_eq!(table.get(key(1)).unwrap(), vec![2.0]);
        assert_eq!(table.evictions.get(), 0);
    }

    #[test]
    fn pending_entries_neither_count_against_capacity_nor_get_evicted() {
        let table = Table::new(2, 1);
        let flights: Vec<_> = (10..14u32)
            .map(|s| match table.cache.lookup(key(s)) {
                Lookup::Lead(flight) => flight,
                _ => panic!("lead expected"),
            })
            .collect();
        assert_eq!(table.cache.in_flight(), 4);
        assert!(table.cache.is_empty());

        // Two answers fill the capacity with four keys still pending; a
        // third evicts the older answer, never a pending key.
        table.insert(key(0), 0.0);
        table.insert(key(1), 1.0);
        assert_eq!(table.evictions.get(), 0);
        table.insert(key(2), 2.0);
        assert_eq!(table.evictions.get(), 1);
        assert_eq!(table.cache.len(), 2);
        assert_eq!(table.cache.in_flight(), 4);
        for s in 10..14u32 {
            assert!(matches!(table.cache.lookup(key(s)), Lookup::Follow(_)));
        }

        // Completing the flights caches their answers within the capacity.
        for (s, flight) in (10..14u32).zip(&flights) {
            table.cache.complete(key(s), flight, &Ok(resp(s, s as f64)));
        }
        assert_eq!(table.cache.in_flight(), 0);
        assert_eq!(table.cache.len(), 2);
        assert_eq!(table.evictions.get(), 5);
        assert_eq!(table.get(key(13)).unwrap(), vec![13.0]);
    }
}
