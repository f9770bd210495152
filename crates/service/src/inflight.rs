//! In-flight query deduplication.
//!
//! When several threads concurrently miss the cache on the same key, exactly
//! one of them (the *leader*) performs the computation; the rest (the
//! *followers*) block on the leader's slot and receive a clone of its result.
//! This is the standard "single-flight" pattern: under a thundering herd of
//! identical queries the service performs one computation, not N.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use crate::cache::CacheKey;
use crate::error::ServiceError;
use crate::response::QueryResponse;

pub(crate) type QueryResult = Result<Arc<QueryResponse>, ServiceError>;

/// One in-flight computation, shared between the leader and its followers.
pub(crate) struct Slot {
    result: Mutex<Option<QueryResult>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Blocks until the leader publishes the result.
    pub(crate) fn wait(&self) -> QueryResult {
        let mut guard = self.result.lock().expect("in-flight slot poisoned");
        while guard.is_none() {
            guard = self.ready.wait(guard).expect("in-flight slot poisoned");
        }
        guard.as_ref().expect("checked above").clone()
    }

    fn publish(&self, result: QueryResult) {
        let mut guard = self.result.lock().expect("in-flight slot poisoned");
        *guard = Some(result);
        self.ready.notify_all();
    }
}

/// Outcome of [`InflightTable::join_or_lead`].
pub(crate) enum Ticket {
    /// This thread must compute and then call [`InflightTable::complete`].
    Lead(Arc<Slot>),
    /// Another thread is computing; wait on the slot.
    Follow(Arc<Slot>),
}

/// The table of currently-computing keys.
#[derive(Default)]
pub(crate) struct InflightTable {
    map: Mutex<HashMap<CacheKey, Arc<Slot>>>,
}

impl InflightTable {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Either registers the caller as the leader for `key` or returns the
    /// existing leader's slot to wait on.
    pub(crate) fn join_or_lead(&self, key: CacheKey) -> Ticket {
        let mut map = self.map.lock().expect("in-flight table poisoned");
        match map.get(&key) {
            Some(slot) => Ticket::Follow(Arc::clone(slot)),
            None => {
                let slot = Arc::new(Slot::new());
                map.insert(key, Arc::clone(&slot));
                Ticket::Lead(slot)
            }
        }
    }

    /// Publishes the leader's result and retires the key. Callers must have
    /// already inserted successful results into the cache *before* calling
    /// this, so that a thread arriving after retirement finds the cache
    /// populated (the hand-off has no window in which neither holds the
    /// answer).
    pub(crate) fn complete(&self, key: &CacheKey, slot: &Arc<Slot>, result: QueryResult) {
        {
            let mut map = self.map.lock().expect("in-flight table poisoned");
            map.remove(key);
        }
        slot.publish(result);
    }

    /// Number of keys currently being computed (diagnostics).
    pub(crate) fn len(&self) -> usize {
        self.map.lock().expect("in-flight table poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::AlgorithmKind;
    use std::time::Duration;

    fn key() -> CacheKey {
        CacheKey {
            epoch: 0,
            algorithm: AlgorithmKind::ExactSim,
            source: 1,
            epsilon_tier: 20,
        }
    }

    #[test]
    fn first_caller_leads_latecomers_follow() {
        let table = InflightTable::new();
        let Ticket::Lead(slot) = table.join_or_lead(key()) else {
            panic!("first caller must lead");
        };
        let Ticket::Follow(_) = table.join_or_lead(key()) else {
            panic!("second caller must follow");
        };
        assert_eq!(table.len(), 1);
        table.complete(&key(), &slot, Err(ServiceError::InvalidRequest("x".into())));
        assert_eq!(table.len(), 0);
        // Key retired: next caller leads again.
        assert!(matches!(table.join_or_lead(key()), Ticket::Lead(_)));
    }

    #[test]
    fn followers_receive_the_leaders_result_across_threads() {
        let table = Arc::new(InflightTable::new());
        let Ticket::Lead(slot) = table.join_or_lead(key()) else {
            panic!("lead expected");
        };
        let mut handles = Vec::new();
        for _ in 0..4 {
            let table = Arc::clone(&table);
            handles.push(std::thread::spawn(move || {
                match table.join_or_lead(key()) {
                    Ticket::Follow(slot) => slot.wait(),
                    // A thread may arrive after completion; lead-and-bail.
                    Ticket::Lead(slot) => {
                        let r = Err(ServiceError::InvalidRequest("late".into()));
                        table.complete(&key(), &slot, r.clone());
                        r
                    }
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(20));
        let published = Arc::new(QueryResponse::new(
            AlgorithmKind::ExactSim,
            0,
            1,
            vec![1.0, 0.5],
            Duration::from_micros(5),
        ));
        table.complete(&key(), &slot, Ok(Arc::clone(&published)));
        for h in handles {
            if let Ok(resp) = h.join().unwrap() {
                assert_eq!(resp.scores(), published.scores());
            }
        }
    }
}
