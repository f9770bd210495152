//! The long-lived SimRank query engine.
//!
//! [`SimRankService`] resolves its graph through an epoch-based
//! [`GraphStore`] and keeps a per-epoch serving state: the epoch's immutable
//! graph snapshot, each algorithm's index, built lazily — at most once per
//! epoch, on first use, behind a `OnceLock` — as
//! `Arc<dyn SingleSourceAlgorithm + Send + Sync>`, and the epoch's answer
//! table ([`crate::cache`]). Every query flows through two layers:
//!
//! 1. the epoch's **answer table**: one lookup under the key's shard lock
//!    either returns the cached `Arc<QueryResponse>` (a hit), joins the
//!    query already computing the key and waits for its result (a dedup
//!    join), or makes this query the key's leader;
//! 2. the **algorithm**: the leader computes, then completes the key, which
//!    caches the answer and hands it to the waiting queries in one step.
//!
//! ## Updates and epochs
//!
//! Edge updates staged on the store become visible when
//! [`GraphStore::commit`] publishes a new epoch. The serving loop never
//! stops: each query captures one epoch state up front and runs entirely
//! against it, so a query racing a commit returns pre-commit or post-commit
//! values, never a mix. The first query that observes a fresh epoch swaps in
//! a new state with an empty answer table and clears the superseded table,
//! so no column computed against an older graph can answer a newer epoch's
//! query, even one a late query of the old epoch completes after the swap.
//! In-flight queries on the old snapshot finish undisturbed (their `Arc`s pin
//! the old graph). The new state's ExactSim solver is handed the old state's
//! scratch pool while the node count is unchanged, so a commit does not make
//! the next cold read regrow Algorithm 3's arena and workspaces.
//!
//! The service runs no threads of its own: every query executes on its
//! caller's thread (a TCP connection handler, the stdin REPL, or any
//! application thread).

use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

use exactsim::exactsim::ExactSimConfig;
use exactsim::mc::MonteCarloConfig;
use exactsim::prsim::PrSimConfig;
use exactsim::scratch::ScratchPool;
use exactsim::suite::{
    ExactSimAlgorithm, MonteCarloAlgorithm, PrSimAlgorithm, SingleSourceAlgorithm,
};
use exactsim::SimRankError;
use exactsim_graph::{DiGraph, NodeId};
use exactsim_obs::metrics::Counter;
use exactsim_obs::slowlog::SlowLog;
use exactsim_obs::trace;
use exactsim_store::GraphHandle;
use exactsim_store::{CommitReport, GraphSnapshot, GraphStore, StoreError};

use crate::cache::{epsilon_tier, CacheKey, Lookup, ShardedLruCache};
use crate::error::ServiceError;
use crate::metrics::{
    ServiceMetrics, COMMIT_STAGE_CACHE_SWEEP, OUTCOME_DEDUP, OUTCOME_ERROR, OUTCOME_HIT,
    OUTCOME_MISS, STAGE_CACHE, STAGE_DEDUP, STAGE_INDEX_BUILD, STAGE_KERNEL,
};
use crate::response::{AlgorithmKind, QueryResponse, TopKResponse};
use crate::stats::{ServingShape, StatsSnapshot};

/// Independently locked shards of each answer table (fewer when the
/// capacity is smaller, see [`ShardedLruCache::new`]).
const CACHE_SHARDS: usize = 16;

/// A `'static`, thread-safe, shareable algorithm handle.
type AlgorithmHandle = Arc<dyn SingleSourceAlgorithm + Send + Sync>;

/// Configuration of a [`SimRankService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Total result-cache capacity in entries (each entry holds one full
    /// single-source column, i.e. `n` floats — size the capacity to the
    /// graph).
    pub cache_capacity: usize,
    /// Configuration used when serving [`AlgorithmKind::ExactSim`].
    pub exactsim: ExactSimConfig,
    /// Configuration used when serving [`AlgorithmKind::PrSim`].
    pub prsim: PrSimConfig,
    /// Configuration used when serving [`AlgorithmKind::MonteCarlo`].
    pub mc: MonteCarloConfig,
    /// Queries at least this slow are recorded in the slow-query ring
    /// (`slowlog` protocol verb). A zero threshold records every query.
    pub slowlog_threshold: Duration,
    /// Capacity of the slow-query ring (newest entries win).
    pub slowlog_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 1024,
            exactsim: ExactSimConfig::default(),
            prsim: PrSimConfig::default(),
            mc: MonteCarloConfig::default(),
            slowlog_threshold: Duration::from_millis(100),
            slowlog_capacity: 128,
        }
    }
}

impl ServiceConfig {
    /// A configuration tuned for demos and tests: ExactSim at ε = 10⁻² with a
    /// capped walk budget, so queries on graphs of a few thousand nodes take
    /// milliseconds instead of the paper's ε = 10⁻⁷ ground-truth regime.
    pub fn fast_demo() -> Self {
        ServiceConfig {
            exactsim: ExactSimConfig {
                epsilon: 1e-2,
                walk_budget: Some(100_000),
                ..ExactSimConfig::default()
            },
            ..ServiceConfig::default()
        }
    }

    /// The accuracy tier a given algorithm's answers are cached under.
    pub fn tier_for(&self, algorithm: AlgorithmKind) -> u16 {
        match algorithm {
            AlgorithmKind::ExactSim => epsilon_tier(self.exactsim.epsilon),
            AlgorithmKind::PrSim => epsilon_tier(self.prsim.epsilon),
            // MC's statistical error scales as 1/√r for r walks per node.
            AlgorithmKind::MonteCarlo => {
                epsilon_tier(1.0 / (self.mc.walks_per_node.max(1) as f64).sqrt())
            }
        }
    }
}

/// One epoch's serving state: the graph snapshot it serves, the
/// per-algorithm indices built against it, and the answers computed on it.
struct EpochState {
    epoch: u64,
    /// The epoch's graph behind either storage backend (in-memory CSR or
    /// buffer-pool-paged); every algorithm is generic over it.
    graph: GraphHandle,
    /// The scratches this epoch's ExactSim solver checks out. Handed on to
    /// the next epoch while the node count stays the same, so the first
    /// query after a commit does not regrow Algorithm 3's arena and
    /// workspaces.
    exactsim_scratch: Arc<ScratchPool>,
    /// Lazily-built per-algorithm indices, in [`AlgorithmKind::ALL`] order.
    /// Build errors are cached too: neither the configuration nor this
    /// epoch's graph can change, so retrying an invalid combination is
    /// pointless — the cell empties naturally at the next epoch.
    algorithms: [OnceLock<Result<AlgorithmHandle, SimRankError>>; 3],
    /// This epoch's answers, cached and in flight. Every epoch starts with
    /// an empty table of its own, never the previous epoch's.
    answers: ShardedLruCache,
}

impl EpochState {
    /// The state for `snapshot`, keeping `previous`'s ExactSim scratch pool
    /// when the node count is unchanged, with a fresh answer table.
    fn new(
        snapshot: GraphSnapshot,
        previous: Option<&EpochState>,
        config: &ServiceConfig,
        metrics: &ServiceMetrics,
    ) -> Self {
        let n = snapshot.graph.num_nodes();
        let exactsim_scratch = match previous {
            Some(state) if state.exactsim_scratch.num_nodes() == n => {
                Arc::clone(&state.exactsim_scratch)
            }
            _ => Arc::new(ScratchPool::new(n)),
        };
        EpochState {
            epoch: snapshot.epoch,
            graph: snapshot.graph,
            exactsim_scratch,
            algorithms: [OnceLock::new(), OnceLock::new(), OnceLock::new()],
            answers: ShardedLruCache::new(
                config.cache_capacity,
                CACHE_SHARDS,
                Arc::clone(&metrics.cache_evictions),
                Arc::clone(&metrics.cache_invalidations),
            ),
        }
    }

    fn handle(
        &self,
        kind: AlgorithmKind,
        config: &ServiceConfig,
        index_builds: &Counter,
    ) -> Result<AlgorithmHandle, ServiceError> {
        let cell = &self.algorithms[kind.index()];
        cell.get_or_init(|| {
            let graph = self.graph.clone();
            Ok(match kind {
                // ExactSim is index-free: constructing its handle is pure
                // validation and does not count as an index build.
                AlgorithmKind::ExactSim => Arc::new(ExactSimAlgorithm::with_scratch_pool(
                    graph,
                    config.exactsim.clone(),
                    Arc::clone(&self.exactsim_scratch),
                )?) as AlgorithmHandle,
                AlgorithmKind::PrSim => {
                    index_builds.inc();
                    Arc::new(PrSimAlgorithm::build(graph, config.prsim)?) as AlgorithmHandle
                }
                AlgorithmKind::MonteCarlo => {
                    index_builds.inc();
                    Arc::new(MonteCarloAlgorithm::build(graph, config.mc)?) as AlgorithmHandle
                }
            })
        })
        .clone()
        .map_err(ServiceError::Algorithm)
    }

    /// Heap footprint of each algorithm's index for this epoch, in
    /// [`AlgorithmKind::ALL`] order. `None` for algorithms whose index has
    /// not been built (or failed to build) this epoch; index-free ExactSim
    /// reports `Some(0)` once its handle exists.
    fn index_memory_bytes(&self) -> [Option<u64>; 3] {
        let mut out = [None; 3];
        for kind in AlgorithmKind::ALL {
            out[kind.index()] = self.algorithms[kind.index()]
                .get()
                .and_then(|built| built.as_ref().ok())
                .map(|handle| handle.index_bytes() as u64);
        }
        out
    }
}

struct Inner {
    store: Arc<GraphStore>,
    config: ServiceConfig,
    /// The epoch state queries currently serve from. Refreshed lazily by the
    /// first query that observes a newer published epoch on the store.
    state: RwLock<Arc<EpochState>>,
    metrics: ServiceMetrics,
    /// Behind `Arc` so `simrank_slow_queries_total` can read the ring's own
    /// count at scrape time.
    slowlog: Arc<SlowLog>,
}

impl Inner {
    /// Returns the serving state for the store's current epoch, rebuilding
    /// it (and clearing the superseded answer table) if a commit published a
    /// newer one. The returned `Arc` pins a consistent `(epoch, graph,
    /// indices, answers)` state for the whole query, whatever the store does
    /// concurrently.
    fn current_state(&self) -> Arc<EpochState> {
        {
            let state = self.state.read().expect("epoch state poisoned");
            if state.epoch == self.store.epoch() {
                return Arc::clone(&state);
            }
        }
        let mut state = self.state.write().expect("epoch state poisoned");
        // Double-check under the write lock: another thread may have
        // refreshed while we waited, and the epoch may have advanced again.
        let snapshot = self.store.snapshot();
        if state.epoch != snapshot.epoch {
            let fresh = EpochState::new(snapshot, Some(&state), &self.config, &self.metrics);
            let superseded = std::mem::replace(&mut *state, Arc::new(fresh));
            // Queries still running on the superseded epoch keep its state
            // alive, but its answers can serve no later query: reclaim them
            // now. This is the tail end of the commit pipeline, so it lands
            // in the commit-stage series.
            {
                let _sweep = trace::stage(
                    "cache_sweep",
                    Some(self.metrics.commit_stage(COMMIT_STAGE_CACHE_SWEEP)),
                );
                superseded.answers.clear();
            }
            self.metrics.epoch_refreshes.inc();
        }
        Arc::clone(&state)
    }

    fn compute(
        &self,
        state: &EpochState,
        algorithm: AlgorithmKind,
        source: NodeId,
    ) -> Result<Arc<QueryResponse>, ServiceError> {
        // Only time the handle acquisition as "index_build" when this call
        // actually builds it — later queries get the built handle for an
        // atomic load and must not pollute the build-stage histogram (and a
        // traced cache-hit query must show no index/kernel stages at all).
        let handle = if state.algorithms[algorithm.index()].get().is_some() {
            state.handle(algorithm, &self.config, &self.metrics.index_builds)?
        } else {
            let _build = trace::stage(
                "index_build",
                Some(self.metrics.query_stage(STAGE_INDEX_BUILD)),
            );
            state.handle(algorithm, &self.config, &self.metrics.index_builds)?
        };
        let output = {
            let _kernel = trace::stage("kernel", Some(self.metrics.query_stage(STAGE_KERNEL)));
            handle.query(source)?
        };
        Ok(Arc::new(QueryResponse::from_output(
            algorithm,
            state.epoch,
            source,
            output,
        )))
    }

    /// Closes the books on one query: its one outcome count (which `stats`
    /// reads back as hits, joins, computations, or errors), the latency
    /// series, and the slow-query ring. The request string is built lazily —
    /// only queries that cross the slowlog threshold pay for the formatting.
    fn finish_query(
        &self,
        algorithm: AlgorithmKind,
        source: NodeId,
        outcome: usize,
        started: Instant,
    ) {
        let elapsed = started.elapsed();
        self.metrics.record_query(algorithm, outcome, elapsed);
        self.slowlog
            .observe(elapsed, crate::metrics::OUTCOMES[outcome], || {
                format!("query {source} {}", algorithm.wire_name())
            });
    }

    fn query(
        &self,
        algorithm: AlgorithmKind,
        source: NodeId,
    ) -> Result<Arc<QueryResponse>, ServiceError> {
        let serve_start = Instant::now();
        // Captured once: answer table, index, and computation all belong to
        // this epoch's snapshot, so one answer never mixes two graphs.
        let state = self.current_state();
        let key = CacheKey {
            algorithm,
            source,
            epsilon_tier: self.config.tier_for(algorithm),
        };
        let lookup = {
            let _probe = trace::stage("cache", Some(self.metrics.query_stage(STAGE_CACHE)));
            state.answers.lookup(key)
        };
        let (result, outcome) = match lookup {
            Lookup::Hit(hit) => (Ok(hit), OUTCOME_HIT),
            Lookup::Follow(flight) => {
                let _join = trace::stage("dedup", Some(self.metrics.query_stage(STAGE_DEDUP)));
                (flight.wait().clone(), OUTCOME_DEDUP)
            }
            Lookup::Lead(flight) => {
                // A panicking computation must still complete the flight —
                // otherwise the key is wedged for the epoch (every later
                // query follows a computation that will never end).
                let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.compute(&state, algorithm, source)
                })) {
                    Ok(result) => result,
                    Err(payload) => {
                        let panicked = Err(ServiceError::Internal("computation panicked".into()));
                        state.answers.complete(key, &flight, &panicked);
                        // Count the query even on the unwind path.
                        self.finish_query(algorithm, source, OUTCOME_ERROR, serve_start);
                        std::panic::resume_unwind(payload);
                    }
                };
                state.answers.complete(key, &flight, &result);
                (result, OUTCOME_MISS)
            }
        };
        let outcome = if result.is_err() {
            OUTCOME_ERROR
        } else {
            outcome
        };
        self.finish_query(algorithm, source, outcome, serve_start);
        result
    }
}

/// The concurrent SimRank query-serving engine. Cheap to clone (all clones
/// share one store, one serving epoch state, one registry).
#[derive(Clone)]
pub struct SimRankService {
    inner: Arc<Inner>,
}

impl SimRankService {
    /// Creates a service for a static `graph`, wrapping it in a private
    /// [`GraphStore`] at epoch 0, which keeps the graph's in-rows only (and
    /// copies them once if `graph` is shared, see [`GraphStore::new`]). Use
    /// [`SimRankService::store`] (or [`SimRankService::with_store`] with a
    /// shared store) to stage and commit edge updates later.
    pub fn new(graph: Arc<DiGraph>, config: ServiceConfig) -> Result<Self, ServiceError> {
        Self::with_store(Arc::new(GraphStore::new(graph)), config)
    }

    /// Creates a service resolving its graph through `store`. Validates the
    /// configurations eagerly against the store's current snapshot (fail
    /// fast at startup, not on first query); indices are still built lazily
    /// on first use of each algorithm per epoch.
    pub fn with_store(store: Arc<GraphStore>, config: ServiceConfig) -> Result<Self, ServiceError> {
        let snapshot = store.snapshot();
        if snapshot.graph.num_nodes() == 0 {
            return Err(ServiceError::Algorithm(SimRankError::EmptyGraph));
        }
        // ExactSim construction is pure validation (the solver is index-free)
        // and also covers the graph-dependent checks a bare
        // `config.exactsim.validate()` cannot see, e.g. a
        // `DiagonalMode::Exact` vector whose length mismatches the graph —
        // without this, that error would surface on the first query and be
        // cached for the rest of the epoch in the `OnceLock`. (A later
        // `addnode` commit can still grow the node space past an exact
        // diagonal's length; that epoch's build error is then cached like
        // any other per-epoch failure.)
        exactsim::exactsim::ExactSim::new(snapshot.graph.clone(), config.exactsim.clone())?;
        config.prsim.validate()?;
        config.mc.validate()?;
        let slowlog = Arc::new(SlowLog::new(
            config.slowlog_capacity,
            config.slowlog_threshold,
        ));
        // Registered before the first query so a scrape of an idle service
        // already exposes every series at zero (Prometheus rate() needs the
        // first sample to exist).
        let metrics = ServiceMetrics::new(&store, &slowlog);
        let state = EpochState::new(snapshot, None, &config, &metrics);
        Ok(SimRankService {
            inner: Arc::new(Inner {
                store,
                config,
                state: RwLock::new(Arc::new(state)),
                metrics,
                slowlog,
            }),
        })
    }

    /// The graph this service is currently serving queries about, behind
    /// its storage backend ([`GraphHandle`]). After a store commit this
    /// reflects the new epoch once the service has refreshed (which also
    /// happens lazily on the next query).
    pub fn graph(&self) -> GraphHandle {
        self.inner.current_state().graph.clone()
    }

    /// The dynamic graph store backing this service. Stage updates with
    /// [`GraphStore::stage_insert`] / [`GraphStore::stage_delete`], then
    /// publish them with [`SimRankService::commit`] (or the store's own
    /// `commit`) — the serving loop picks the new epoch up without stopping.
    pub fn store(&self) -> &Arc<GraphStore> {
        &self.inner.store
    }

    /// The graph epoch currently published by the backing store.
    pub fn epoch(&self) -> u64 {
        self.inner.store.epoch()
    }

    /// Commits the store's staged updates: materializes the new graph, bumps
    /// the epoch, and atomically swaps the published snapshot. Queries
    /// already running finish on their old snapshot; the next query adopts
    /// the new epoch with an empty answer table and clears the superseded
    /// one. Zero serving downtime.
    ///
    /// On a durable store the delta is WAL-logged and fsynced before
    /// publication; a persistence failure ([`StoreError`]) leaves the staged
    /// delta intact and nothing published. In-memory stores never fail.
    pub fn commit(&self) -> Result<CommitReport, StoreError> {
        let report = self.inner.store.commit()?;
        self.inner.metrics.record_commit(&report);
        Ok(report)
    }

    /// The configuration the service was created with.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Serves one single-source query from the epoch's answer table: a
    /// cached answer, the answer of the query already computing it, or a
    /// computation of its own.
    ///
    /// The returned response is shared with the table; results for the same
    /// `(algorithm, source)` under an unchanged configuration are
    /// bit-identical to a direct library call because every algorithm
    /// derives its randomness deterministically from `(seed, source)`.
    pub fn query(
        &self,
        algorithm: AlgorithmKind,
        source: NodeId,
    ) -> Result<Arc<QueryResponse>, ServiceError> {
        self.inner.query(algorithm, source)
    }

    /// Serves a top-k query (rides on the cached single-source column).
    pub fn top_k(
        &self,
        algorithm: AlgorithmKind,
        source: NodeId,
        k: usize,
    ) -> Result<TopKResponse, ServiceError> {
        Ok(self.query(algorithm, source)?.top_k(k))
    }

    /// A point-in-time read of the serving counters: every counter comes
    /// from the registry series `metrics` renders, next to the backing
    /// store's durability state (data dir, WAL length, snapshot epoch) when
    /// it has one, and the cached answers and per-algorithm index memory of
    /// the epoch state currently serving (without forcing an epoch
    /// refresh). `queries` is the sum of the four outcomes, so
    /// `queries == cache_hits + dedup_joins + computations + errors` holds
    /// in every snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let inner = &self.inner;
        let metrics = &inner.metrics;
        let net = &metrics.net;
        let outcomes = metrics.outcome_totals();
        let (index_memory_bytes, cached_entries) = {
            let state = inner.state.read().expect("epoch state poisoned");
            (state.index_memory_bytes(), state.answers.len())
        };
        let durability = inner.store.durability();
        StatsSnapshot {
            epoch: inner.store.epoch(),
            shape: ServingShape {
                workers: net.live_connections() as usize,
                kernel_threads: 1,
                shards: 1,
            },
            pool: inner.store.pool_stats(),
            data_dir: durability
                .as_ref()
                .map(|d| d.data_dir.display().to_string()),
            wal_len: durability.as_ref().map(|d| d.wal_records),
            last_snapshot_epoch: durability.as_ref().map(|d| d.last_snapshot_epoch),
            queries: outcomes.iter().sum(),
            cache_hits: outcomes[OUTCOME_HIT],
            dedup_joins: outcomes[OUTCOME_DEDUP],
            computations: outcomes[OUTCOME_MISS],
            index_builds: metrics.index_builds.get(),
            errors: outcomes[OUTCOME_ERROR],
            epoch_refreshes: metrics.epoch_refreshes.get(),
            updates_staged: metrics.updates_staged.get(),
            commit_requests: metrics.commit_requests.get(),
            evictions: metrics.cache_evictions.get(),
            invalidations: metrics.cache_invalidations.get(),
            cached_entries,
            index_memory_bytes,
            p50: metrics.serve_latency.quantile(0.50),
            p99: metrics.serve_latency.quantile(0.99),
            latency_saturated: metrics.serve_latency.saturated(),
            connections_accepted: net.connections_accepted.get(),
            connections_closed: net.connections_closed.get(),
            connections_rejected: net.connections_rejected.get(),
            net_requests: net.requests.get(),
            bytes_in: net.bytes_in.get(),
            bytes_out: net.bytes_out.get(),
            requests_per_conn_p50: net.requests_per_conn.quantile_value(0.50),
        }
    }

    /// Number of keys the epoch state currently serving is computing
    /// (diagnostics).
    pub fn in_flight(&self) -> usize {
        let state = self.inner.state.read().expect("epoch state poisoned");
        state.answers.in_flight()
    }

    /// Renders every registered metric family in Prometheus text exposition
    /// format (the payload of the `metrics` protocol verb). The payload ends
    /// with a `# EOF` line so stream clients can frame the multi-line reply.
    pub fn metrics_text(&self) -> String {
        self.inner.metrics.render()
    }

    /// The slow-query ring buffer (the `slowlog` protocol verb reads it).
    pub fn slowlog(&self) -> &SlowLog {
        &self.inner.slowlog
    }

    /// The labeled metrics registry wrapper, for in-crate front-ends that
    /// record protocol-level stages (parse, serialize), writes, and net
    /// traffic.
    pub(crate) fn metrics(&self) -> &ServiceMetrics {
        &self.inner.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exactsim_graph::generators::barabasi_albert;

    fn demo_service(n: usize, seed: u64) -> SimRankService {
        let graph = Arc::new(barabasi_albert(n, 3, true, seed).unwrap());
        SimRankService::new(graph, ServiceConfig::fast_demo()).unwrap()
    }

    #[test]
    fn rejects_empty_graphs_and_bad_configs_eagerly() {
        let empty = Arc::new(exactsim_graph::GraphBuilder::new(0).build());
        assert!(SimRankService::new(empty, ServiceConfig::fast_demo()).is_err());

        let graph = Arc::new(barabasi_albert(20, 2, true, 1).unwrap());
        let bad = ServiceConfig {
            exactsim: ExactSimConfig {
                epsilon: 0.0,
                ..ExactSimConfig::default()
            },
            ..ServiceConfig::fast_demo()
        };
        assert!(SimRankService::new(Arc::clone(&graph), bad).is_err());

        // PrSim/MC misconfigurations also fail at construction, not on the
        // first query of that algorithm (where the error would be cached
        // forever in the OnceLock).
        let bad_prsim = ServiceConfig {
            prsim: exactsim::prsim::PrSimConfig {
                epsilon: 0.0,
                ..Default::default()
            },
            ..ServiceConfig::fast_demo()
        };
        assert!(SimRankService::new(Arc::clone(&graph), bad_prsim).is_err());
        let bad_mc = ServiceConfig {
            mc: exactsim::mc::MonteCarloConfig {
                walks_per_node: 0,
                ..Default::default()
            },
            ..ServiceConfig::fast_demo()
        };
        assert!(SimRankService::new(Arc::clone(&graph), bad_mc).is_err());

        // Graph-dependent misconfiguration: an exact diagonal of the wrong
        // length (graph has 20 nodes) is rejected at construction too.
        let bad_diag = ServiceConfig {
            exactsim: ExactSimConfig {
                diagonal: exactsim::exactsim::DiagonalMode::Exact(vec![1.0; 5]),
                ..ExactSimConfig::default()
            },
            ..ServiceConfig::fast_demo()
        };
        assert!(SimRankService::new(graph, bad_diag).is_err());
    }

    #[test]
    fn query_errors_do_not_poison_the_key() {
        let service = demo_service(30, 3);
        let out_of_range = service.query(AlgorithmKind::ExactSim, 999);
        assert!(matches!(
            out_of_range,
            Err(ServiceError::Algorithm(
                SimRankError::SourceOutOfRange { .. }
            ))
        ));
        // The failed query is not cached and the key is retired: a valid
        // query afterwards works, as does retrying the bad one.
        assert!(service.query(AlgorithmKind::ExactSim, 0).is_ok());
        assert!(service.query(AlgorithmKind::ExactSim, 999).is_err());
        let snap = service.stats();
        assert_eq!(snap.errors, 2);
        assert_eq!(snap.cached_entries, 1);
    }

    #[test]
    fn index_is_built_once_per_algorithm() {
        let service = demo_service(40, 5);
        service.query(AlgorithmKind::MonteCarlo, 0).unwrap();
        service.query(AlgorithmKind::MonteCarlo, 1).unwrap();
        service.query(AlgorithmKind::PrSim, 0).unwrap();
        // Index-free ExactSim must not count as an index build.
        service.query(AlgorithmKind::ExactSim, 0).unwrap();
        let snap = service.stats();
        assert_eq!(snap.index_builds, 2);
        assert_eq!(snap.computations, 4);
        // Per-algorithm index memory surfaces once the index exists: MC and
        // PrSim hold real bytes, index-free ExactSim reports zero.
        assert_eq!(
            snap.index_memory_bytes[AlgorithmKind::ExactSim.index()],
            Some(0)
        );
        assert!(snap.index_memory_bytes[AlgorithmKind::PrSim.index()].unwrap() > 0);
        assert!(snap.index_memory_bytes[AlgorithmKind::MonteCarlo.index()].unwrap() > 0);
        assert!(snap.to_json().contains("\"memory_bytes\":{\"exactsim\":0,"));
    }

    #[test]
    fn index_memory_is_unreported_until_the_index_is_built() {
        let service = demo_service(25, 21);
        let snap = service.stats();
        assert_eq!(snap.index_memory_bytes, [None, None, None]);
        assert!(snap
            .to_json()
            .contains("\"memory_bytes\":{\"exactsim\":null,\"prsim\":null,\"mc\":null}"));
        service.query(AlgorithmKind::MonteCarlo, 0).unwrap();
        let snap = service.stats();
        assert_eq!(snap.index_memory_bytes[AlgorithmKind::PrSim.index()], None);
        assert!(snap.index_memory_bytes[AlgorithmKind::MonteCarlo.index()].unwrap() > 0);
    }

    #[test]
    fn commit_bumps_epoch_invalidates_cache_and_rebuilds_indices() {
        let service = demo_service(40, 9);
        let before = service.query(AlgorithmKind::ExactSim, 0).unwrap();
        service.query(AlgorithmKind::MonteCarlo, 0).unwrap();
        assert_eq!(service.stats().index_builds, 1, "MC index built once");
        assert_eq!(service.epoch(), 0);

        // Stage a structural change around node 0 and publish it.
        let target = (service.graph().num_nodes() - 1) as NodeId;
        assert!(service.store().stage_insert(0, target).unwrap().changed());
        let report = service.commit().unwrap();
        assert!(report.advanced());
        assert_eq!(report.epoch, 1);
        assert_eq!(service.epoch(), 1);

        // The next queries refresh the serving state: epoch 0's answers
        // were swept, ExactSim recomputes on the new graph, and the MC index
        // is rebuilt for the new epoch.
        let after = service.query(AlgorithmKind::ExactSim, 0).unwrap();
        assert_ne!(
            before.scores(),
            after.scores(),
            "the graph around 0 changed"
        );
        service.query(AlgorithmKind::MonteCarlo, 0).unwrap();
        let snap = service.stats();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.epoch_refreshes, 1);
        assert!(snap.invalidations >= 2, "pre-commit entries were swept");
        assert_eq!(snap.index_builds, 2, "MC index rebuilt for the new epoch");
        assert_eq!(snap.cache_hits, 0, "no stale entry may answer post-commit");

        // Within the new epoch, caching works as before.
        let again = service.query(AlgorithmKind::ExactSim, 0).unwrap();
        assert!(Arc::ptr_eq(&after, &again));
        assert_eq!(service.stats().cache_hits, 1);
    }

    /// A query that captured epoch 0's state before epoch 1 was adopted,
    /// and looks its key up and completes it only afterwards, caches its
    /// column where no epoch-1 query looks: every epoch owns its table.
    #[test]
    fn a_late_query_of_a_superseded_epoch_cannot_answer_the_next_one() {
        let service = demo_service(40, 9);
        let stale = service.inner.current_state();
        assert_eq!(stale.epoch, 0);
        assert!(service.store().stage_insert(0, 39).unwrap().changed());
        service.commit().unwrap();
        // Another query adopts epoch 1, clearing epoch 0's table.
        service.query(AlgorithmKind::ExactSim, 1).unwrap();
        assert_eq!(service.stats().epoch_refreshes, 1);

        // The late query runs the steps of `Inner::query` on its state.
        let key = CacheKey {
            algorithm: AlgorithmKind::ExactSim,
            source: 0,
            epsilon_tier: service.config().tier_for(AlgorithmKind::ExactSim),
        };
        let Lookup::Lead(flight) = stale.answers.lookup(key) else {
            panic!("epoch 0's cleared table cannot answer");
        };
        let late = service.inner.compute(&stale, AlgorithmKind::ExactSim, 0);
        stale.answers.complete(key, &flight, &late);
        assert_eq!(late.unwrap().epoch, 0);

        let hits = service.stats().cache_hits;
        let answer = service.query(AlgorithmKind::ExactSim, 0).unwrap();
        assert_eq!(
            answer.epoch, 1,
            "epoch 1 was answered with epoch 0's column"
        );
        assert_eq!(service.stats().cache_hits, hits);
        let graph = (*service.graph().materialize().unwrap()).clone();
        let fresh = SimRankService::new(
            Arc::new(DiGraph::from_in_graph(graph)),
            ServiceConfig::fast_demo(),
        )
        .unwrap();
        assert_eq!(
            answer.scores(),
            fresh.query(AlgorithmKind::ExactSim, 0).unwrap().scores()
        );
    }

    #[test]
    fn empty_commit_keeps_epoch_cache_and_indices() {
        let service = demo_service(30, 13);
        let first = service.query(AlgorithmKind::ExactSim, 1).unwrap();
        let report = service.commit().unwrap();
        assert!(!report.advanced());
        assert_eq!(service.epoch(), 0);
        let second = service.query(AlgorithmKind::ExactSim, 1).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "cache survived the no-op commit"
        );
        let snap = service.stats();
        assert_eq!(snap.epoch_refreshes, 0);
        assert_eq!(snap.invalidations, 0);
    }

    #[test]
    fn services_sharing_a_store_see_each_others_commits() {
        let graph = Arc::new(barabasi_albert(40, 3, true, 17).unwrap());
        let store = Arc::new(GraphStore::new(graph));
        let a = SimRankService::with_store(Arc::clone(&store), ServiceConfig::fast_demo()).unwrap();
        let b = SimRankService::with_store(Arc::clone(&store), ServiceConfig::fast_demo()).unwrap();
        a.store().stage_insert(0, 39).unwrap();
        a.commit().unwrap();
        assert_eq!(b.epoch(), 1, "epoch is a property of the shared store");
        let via_a = a.query(AlgorithmKind::ExactSim, 0).unwrap();
        let via_b = b.query(AlgorithmKind::ExactSim, 0).unwrap();
        assert_eq!(via_a.scores(), via_b.scores());
        assert!(a.graph().has_edge(0, 39));
    }

    /// The ExactSim scratch pool outlives an epoch while the node count
    /// stays the same, a commit that grows the node space starts a new one,
    /// and answers after either commit have the bits of a service built
    /// fresh on that epoch's graph.
    #[test]
    fn exactsim_scratch_pool_is_kept_across_commits_that_keep_the_node_count() {
        let service = demo_service(300, 23);
        let sources: [NodeId; 4] = [0, 7, 150, 299];
        let assert_fresh_bits = |context: &str| {
            let graph = (*service.graph().materialize().unwrap()).clone();
            let graph = Arc::new(DiGraph::from_in_graph(graph));
            let fresh = SimRankService::new(graph, ServiceConfig::fast_demo()).unwrap();
            for source in sources {
                let served = service.query(AlgorithmKind::ExactSim, source).unwrap();
                let want = fresh.query(AlgorithmKind::ExactSim, source).unwrap();
                let bits = |r: &QueryResponse| -> Vec<u64> {
                    r.scores().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&served), bits(&want), "{context}: source {source}");
            }
        };
        assert_fresh_bits("epoch 0");
        let epoch0 = service.inner.current_state();
        assert_eq!(epoch0.exactsim_scratch.idle(), 1);

        // An edge commit keeps the pool. The pooled scratch is held out, so
        // the new epoch's solver must give a scratch back to the pool it
        // was handed for `idle` to read 1.
        let dropped = (0..300)
            .find(|&v| service.graph().has_edge(0, v))
            .expect("node 0 has an out-edge");
        assert_ne!(dropped, 299);
        service.store().stage_insert(0, 299).unwrap();
        service.store().stage_delete(0, dropped).unwrap();
        service.commit().unwrap();
        let held = epoch0.exactsim_scratch.checkout();
        assert_fresh_bits("after an edge commit");
        let epoch1 = service.inner.current_state();
        assert_eq!(epoch1.epoch, 1);
        assert!(Arc::ptr_eq(
            &epoch0.exactsim_scratch,
            &epoch1.exactsim_scratch
        ));
        assert_eq!(epoch1.exactsim_scratch.idle(), 1);
        epoch0.exactsim_scratch.give_back(held);

        // A commit that adds nodes starts a pool for the new node count.
        service.store().stage_add_nodes(2).unwrap();
        service.store().stage_insert(300, 0).unwrap();
        service.store().stage_insert(5, 301).unwrap();
        service.commit().unwrap();
        assert_fresh_bits("after addnode");
        let epoch2 = service.inner.current_state();
        assert_eq!(epoch2.epoch, 2);
        assert!(!Arc::ptr_eq(
            &epoch1.exactsim_scratch,
            &epoch2.exactsim_scratch
        ));
        assert_eq!(epoch2.exactsim_scratch.num_nodes(), 302);
        assert_eq!(
            epoch1.exactsim_scratch.idle(),
            2,
            "the old pool got nothing back"
        );
    }

    /// A service over a paged store surfaces the buffer pool everywhere an
    /// operator looks: `stats().pool`, the stats JSON, and `simrank_pool_*`
    /// Prometheus series (which an in-memory service must not register).
    #[test]
    fn paged_service_reports_pool_stats_and_metrics() {
        let dir = std::env::temp_dir().join(format!(
            "exactsim-service-paged-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let graph = Arc::new(barabasi_albert(60, 3, true, 23).unwrap());
        let store = Arc::new(
            GraphStore::new(graph)
                .with_paging(
                    &dir,
                    exactsim_store::PagedOptions {
                        pool_pages: 4,
                        page_bytes: 64,
                    },
                )
                .unwrap(),
        );
        let service = SimRankService::with_store(store, ServiceConfig::fast_demo()).unwrap();
        service.query(AlgorithmKind::ExactSim, 0).unwrap();

        let snap = service.stats();
        let pool = snap.pool.expect("paged service must report pool stats");
        assert_eq!(pool.capacity, 4);
        assert!(pool.misses > 0, "a 4-frame pool cannot hold the graph");
        assert!(pool.evictions > 0, "{pool:?}");
        assert!(
            snap.to_json().contains("\"pool\":{\"pages\":4,"),
            "{snap:?}"
        );

        let metrics = service.metrics_text();
        assert!(
            metrics.contains("# TYPE simrank_pool_pages gauge"),
            "{metrics}"
        );
        assert!(
            metrics.contains("simrank_pool_fetches_total{result=\"miss\"}"),
            "{metrics}"
        );
        assert!(
            metrics.contains("# TYPE simrank_pool_evictions_total counter"),
            "{metrics}"
        );

        // An in-memory service reports no pool and registers no pool series.
        let unpaged = demo_service(20, 5);
        assert!(unpaged.stats().pool.is_none());
        assert!(unpaged.stats().to_json().contains("\"pool\":null"));
        assert!(!unpaged.metrics_text().contains("simrank_pool_"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_answers_carry_indices_and_complete() {
        // A batch of 20 requests over 5 sources, alternating top-k and full
        // columns, answered from 4 scoped threads into per-index slots.
        let service = demo_service(60, 7);
        let top_k = |i: usize| i.is_multiple_of(2).then_some(3);
        let mut answers: Vec<Option<Result<usize, ServiceError>>> = vec![None; 20];
        std::thread::scope(|scope| {
            for (lane, slots) in answers.chunks_mut(5).enumerate() {
                let service = &service;
                scope.spawn(move || {
                    for (offset, slot) in slots.iter_mut().enumerate() {
                        let i = lane * 5 + offset;
                        let source = (i % 5) as NodeId;
                        *slot = Some(match top_k(i) {
                            Some(k) => service
                                .top_k(AlgorithmKind::ExactSim, source, k)
                                .map(|top| top.entries.len()),
                            None => service
                                .query(AlgorithmKind::ExactSim, source)
                                .map(|resp| resp.scores().len()),
                        });
                    }
                });
            }
        });
        for (i, answer) in answers.into_iter().enumerate() {
            let len = answer.expect("every request answered").unwrap();
            match top_k(i) {
                Some(k) => assert!(len <= k, "request {i}"),
                None => assert_eq!(len, 60, "request {i}"),
            }
        }
        // 5 distinct sources -> at most 5 computations, everything else served
        // from cache or joined in flight.
        let snap = service.stats();
        assert!(
            snap.computations <= 5,
            "computations = {}",
            snap.computations
        );
        assert_eq!(snap.queries, 20);
    }
}
