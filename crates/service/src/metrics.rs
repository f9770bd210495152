//! The service's labeled metric families and their Prometheus registry.
//!
//! One [`ServiceMetrics`] is built per [`crate::SimRankService`] at
//! construction time, registering **every** series eagerly — a scrape taken
//! before the first request already shows each family at zero, so monitoring
//! can alert on a series' absence without a warm-up race.
//!
//! ## Metric-name contract
//!
//! | series | type | labels |
//! |---|---|---|
//! | `simrank_queries_total` | counter | `algo`, `outcome` ∈ `hit\|miss\|dedup\|error` |
//! | `simrank_query_latency_us` | histogram | `algo`, `outcome` ∈ `hit\|miss\|dedup` |
//! | `simrank_query_stage_us` | histogram | `stage` ∈ `parse\|cache\|dedup\|index_build\|kernel\|serialize` |
//! | `simrank_serve_latency_us` | histogram | — (the aggregate behind `stats` p50/p99) |
//! | `simrank_index_builds_total` | counter | — (PrSim and MC indices; ExactSim has none) |
//! | `simrank_epoch_refreshes_total` | counter | — |
//! | `simrank_cache_evictions_total` | counter | — (cached answers evicted under capacity pressure) |
//! | `simrank_cache_invalidations_total` | counter | — (cached answers swept with a superseded epoch's table) |
//! | `simrank_updates_staged_total` | counter | — (`addedge`/`deledge`/`addnode` that reached the store) |
//! | `simrank_commit_requests_total` | counter | — (`commit` requests accepted) |
//! | `simrank_commits_total` | counter | — (effective commits only) |
//! | `simrank_commit_stage_us` | histogram | `stage` ∈ `stage\|wal_append\|fsync\|csr_merge\|publish\|cache_sweep` |
//! | `simrank_slow_queries_total` | counter | — (read from the slow-query ring) |
//! | `simrank_epoch` | gauge | — |
//! | `simrank_connections_accepted_total` … | counter | — (also `closed`, `rejected`) |
//! | `simrank_net_requests_total` | counter | — |
//! | `simrank_net_bytes_total` | counter | `direction` ∈ `in\|out` |
//! | `simrank_requests_per_connection` | histogram | — (unit: requests, not µs) |
//! | `simrank_pool_pages` | gauge | — (frame capacity; paged stores only) |
//! | `simrank_pool_resident_pages` | gauge | — (paged stores only) |
//! | `simrank_pool_pinned_pages` | gauge | — (paged stores only) |
//! | `simrank_pool_fetches_total` | counter | `result` ∈ `hit\|miss` (paged stores only) |
//! | `simrank_pool_evictions_total` | counter | — (paged stores only) |
//! | `simrank_kernel_scratch_checkouts_total` | counter | `result` ∈ `hit\|miss` |
//! | `simrank_kernel_solver_iterations_total` | counter | — |
//! | `simrank_kernel_mc_walks_total` | counter | — |
//! | `simrank_kernel_walk_pairs_total` | counter | — |
//!
//! `algo` label values are the wire names of
//! [`AlgorithmKind`]: `exactsim`, `prsim`, `mc`.
//! The connection, request and byte series are [`NetMetrics`], which the
//! TCP listener records into; `stats` reads every counter back from these
//! series, so each event has one increment site.
//! The kernel counters are process-global (they come from
//! [`exactsim::counters`]), so two services in one process report the same
//! kernel series — correct for Prometheus semantics (the scrape describes
//! the process), just worth knowing in embedding scenarios.

use std::sync::Arc;
use std::time::Duration;

use exactsim_obs::metrics::{Counter, Histogram, Registry};
use exactsim_obs::slowlog::SlowLog;
use exactsim_store::{CommitReport, GraphStore};

use crate::net::NetMetrics;
use crate::response::AlgorithmKind;

/// Query outcome labels, indexed by the `OUTCOME_*` constants.
pub(crate) const OUTCOMES: [&str; 4] = ["hit", "miss", "dedup", "error"];
/// Served from the result cache.
pub(crate) const OUTCOME_HIT: usize = 0;
/// Computed by the leader.
pub(crate) const OUTCOME_MISS: usize = 1;
/// Joined an in-flight computation.
pub(crate) const OUTCOME_DEDUP: usize = 2;
/// Finished with an error (no latency series: error latencies are noise).
pub(crate) const OUTCOME_ERROR: usize = 3;

/// Query-path stage labels, indexed by the `STAGE_*` constants.
pub(crate) const QUERY_STAGES: [&str; 6] = [
    "parse",
    "cache",
    "dedup",
    "index_build",
    "kernel",
    "serialize",
];
/// Parsing the request line.
pub(crate) const STAGE_PARSE: usize = 0;
/// Result-cache probe.
pub(crate) const STAGE_CACHE: usize = 1;
/// Waiting on another query's in-flight computation.
pub(crate) const STAGE_DEDUP: usize = 2;
/// Building the algorithm's index for this epoch (first use only).
pub(crate) const STAGE_INDEX_BUILD: usize = 3;
/// The single-source kernel itself.
pub(crate) const STAGE_KERNEL: usize = 4;
/// Rendering the reply JSON.
pub(crate) const STAGE_SERIALIZE: usize = 5;

/// Commit-path stage labels, indexed by the `COMMIT_STAGE_*` constants.
/// The first five mirror [`exactsim_store::CommitTimings`]; `cache_sweep` is
/// the service-side sweep when the next query adopts the new epoch.
pub(crate) const COMMIT_STAGES: [&str; 6] = [
    "stage",
    "wal_append",
    "fsync",
    "csr_merge",
    "publish",
    "cache_sweep",
];
/// Copying the staged delta lists.
pub(crate) const COMMIT_STAGE_STAGE: usize = 0;
/// Buffered WAL write.
pub(crate) const COMMIT_STAGE_WAL_APPEND: usize = 1;
/// WAL fsync — the durability point.
pub(crate) const COMMIT_STAGE_FSYNC: usize = 2;
/// CSR merge of the delta into a new graph.
pub(crate) const COMMIT_STAGE_CSR_MERGE: usize = 3;
/// Publishing the new `(graph, epoch)` pair.
pub(crate) const COMMIT_STAGE_PUBLISH: usize = 4;
/// Service-side cache sweep on epoch adoption.
pub(crate) const COMMIT_STAGE_CACHE_SWEEP: usize = 5;

/// All labeled metric families of one service, plus the registry that
/// renders them. The counters `stats` reports are `pub(crate)` so each
/// event's one increment site records straight into its series.
pub(crate) struct ServiceMetrics {
    registry: Registry,
    /// `simrank_queries_total{algo, outcome}`, `[algo][outcome]`.
    query_outcomes: [[Arc<Counter>; 4]; 3],
    /// `simrank_query_latency_us{algo, outcome}`, `[algo][hit|miss|dedup]`.
    query_latency: [[Arc<Histogram>; 3]; 3],
    /// `simrank_query_stage_us{stage}`.
    query_stage: [Arc<Histogram>; 6],
    /// `simrank_commit_stage_us{stage}`.
    commit_stage: [Arc<Histogram>; 6],
    /// `simrank_commits_total`.
    commits: Arc<Counter>,
    /// `simrank_serve_latency_us`: every query, all algorithms and outcomes.
    pub(crate) serve_latency: Arc<Histogram>,
    /// `simrank_index_builds_total`.
    pub(crate) index_builds: Arc<Counter>,
    /// `simrank_epoch_refreshes_total`.
    pub(crate) epoch_refreshes: Arc<Counter>,
    /// `simrank_cache_evictions_total`, shared by every epoch's table.
    pub(crate) cache_evictions: Arc<Counter>,
    /// `simrank_cache_invalidations_total`, shared by every epoch's table.
    pub(crate) cache_invalidations: Arc<Counter>,
    /// `simrank_updates_staged_total`.
    pub(crate) updates_staged: Arc<Counter>,
    /// `simrank_commit_requests_total`.
    pub(crate) commit_requests: Arc<Counter>,
    /// The TCP listener's connection, request and byte series.
    pub(crate) net: NetMetrics,
}

impl ServiceMetrics {
    /// Builds the registry and eagerly registers every series.
    pub(crate) fn new(store: &Arc<GraphStore>, slowlog: &Arc<SlowLog>) -> Self {
        let registry = Registry::new();

        let query_outcomes = std::array::from_fn(|algo_idx| {
            let algo = AlgorithmKind::ALL[algo_idx].wire_name();
            std::array::from_fn(|outcome_idx| {
                registry.counter(
                    "simrank_queries_total",
                    "Queries served, by algorithm and outcome",
                    &[("algo", algo), ("outcome", OUTCOMES[outcome_idx])],
                )
            })
        });
        let query_latency = std::array::from_fn(|algo_idx| {
            let algo = AlgorithmKind::ALL[algo_idx].wire_name();
            std::array::from_fn(|outcome_idx| {
                registry.histogram(
                    "simrank_query_latency_us",
                    "End-to-end query latency in microseconds, by algorithm and outcome",
                    &[("algo", algo), ("outcome", OUTCOMES[outcome_idx])],
                )
            })
        });
        let query_stage = std::array::from_fn(|stage_idx| {
            registry.histogram(
                "simrank_query_stage_us",
                "Query-path stage durations in microseconds",
                &[("stage", QUERY_STAGES[stage_idx])],
            )
        });
        let serve_latency = registry.histogram(
            "simrank_serve_latency_us",
            "Aggregate serve latency in microseconds (all algorithms and outcomes)",
            &[],
        );
        let index_builds = registry.counter(
            "simrank_index_builds_total",
            "Algorithm indices built (PrSim and MC, at most once per epoch each)",
            &[],
        );
        let epoch_refreshes = registry.counter(
            "simrank_epoch_refreshes_total",
            "Times the service rebuilt its per-epoch state after a commit",
            &[],
        );
        let cache_evictions = registry.counter(
            "simrank_cache_evictions_total",
            "Cached answers evicted under capacity pressure",
            &[],
        );
        let cache_invalidations = registry.counter(
            "simrank_cache_invalidations_total",
            "Cached answers swept when a newer epoch was adopted",
            &[],
        );
        let updates_staged = registry.counter(
            "simrank_updates_staged_total",
            "Update requests that reached the store's staging area",
            &[],
        );
        let commit_requests = registry.counter(
            "simrank_commit_requests_total",
            "Commit requests accepted, whether or not each advanced the epoch",
            &[],
        );

        let commits = registry.counter(
            "simrank_commits_total",
            "Store commits that published a new epoch",
            &[],
        );
        let commit_stage = std::array::from_fn(|stage_idx| {
            registry.histogram(
                "simrank_commit_stage_us",
                "Commit-path stage durations in microseconds (fsync is the durability point)",
                &[("stage", COMMIT_STAGES[stage_idx])],
            )
        });
        let slowlog = Arc::clone(slowlog);
        registry.counter_fn(
            "simrank_slow_queries_total",
            "Queries recorded by the slow-query log",
            &[],
            move || slowlog.total_recorded(),
        );

        let epoch_store = Arc::clone(store);
        registry.gauge_fn(
            "simrank_epoch",
            "Graph epoch currently published by the backing store",
            &[],
            move || epoch_store.epoch() as f64,
        );

        // Buffer-pool series exist only on paged stores: the backend is
        // fixed at boot, so absence cleanly signals "in-memory" to scrapers
        // (the eager-registration rule covers series that *can* move). The
        // hit/miss/eviction counters are monotonic across epochs because the
        // pool outlives every per-epoch page file.
        if store.is_paged() {
            type PoolReader = fn(&exactsim_store::PoolStats) -> u64;
            let pool_gauges: [(&str, &str, PoolReader); 3] = [
                (
                    "simrank_pool_pages",
                    "Buffer-pool frame capacity in pages",
                    |p| p.capacity,
                ),
                (
                    "simrank_pool_resident_pages",
                    "Buffer-pool frames currently holding a page",
                    |p| p.resident,
                ),
                (
                    "simrank_pool_pinned_pages",
                    "Buffer-pool frames pinned by live neighbor guards",
                    |p| p.pinned,
                ),
            ];
            for (name, help, read) in pool_gauges {
                let pool_store = Arc::clone(store);
                registry.gauge_fn(name, help, &[], move || {
                    pool_store.pool_stats().map_or(0, |p| read(&p)) as f64
                });
            }
            for (result, read) in [
                (
                    "hit",
                    (|p: &exactsim_store::PoolStats| p.hits) as PoolReader,
                ),
                ("miss", |p: &exactsim_store::PoolStats| p.misses),
            ] {
                let pool_store = Arc::clone(store);
                registry.counter_fn(
                    "simrank_pool_fetches_total",
                    "Buffer-pool page fetches, by hit/miss",
                    &[("result", result)],
                    move || pool_store.pool_stats().map_or(0, |p| read(&p)),
                );
            }
            let pool_store = Arc::clone(store);
            registry.counter_fn(
                "simrank_pool_evictions_total",
                "Resident pages evicted by the clock replacer",
                &[],
                move || pool_store.pool_stats().map_or(0, |p| p.evictions),
            );
        }

        let net = NetMetrics::register(&registry);

        // Kernel counters are process-global statics in the core crate.
        for (result, read) in [
            (
                "hit",
                (|| exactsim::counters::snapshot().scratch_pool_hits) as fn() -> u64,
            ),
            ("miss", || {
                exactsim::counters::snapshot().scratch_pool_misses
            }),
        ] {
            registry.counter_fn(
                "simrank_kernel_scratch_checkouts_total",
                "Scratch-workspace checkouts, by pool hit/miss",
                &[("result", result)],
                read,
            );
        }
        registry.counter_fn(
            "simrank_kernel_solver_iterations_total",
            "Solver level/iteration steps executed by the kernels",
            &[],
            || exactsim::counters::snapshot().solver_iterations,
        );
        registry.counter_fn(
            "simrank_kernel_mc_walks_total",
            "Monte-Carlo walks sampled by index builds",
            &[],
            || exactsim::counters::snapshot().mc_walks,
        );
        registry.counter_fn(
            "simrank_kernel_walk_pairs_total",
            "ExactSim diagonal walk pairs simulated",
            &[],
            || exactsim::counters::snapshot().walk_pairs,
        );

        ServiceMetrics {
            registry,
            query_outcomes,
            query_latency,
            query_stage,
            commit_stage,
            commits,
            serve_latency,
            index_builds,
            epoch_refreshes,
            cache_evictions,
            cache_invalidations,
            updates_staged,
            commit_requests,
            net,
        }
    }

    /// Renders the Prometheus text exposition (ends with a `# EOF` line).
    pub(crate) fn render(&self) -> String {
        self.registry.render()
    }

    /// Records one finished query: the aggregate serve latency, the outcome
    /// counter, and (for non-error outcomes) the per-algorithm latency.
    pub(crate) fn record_query(&self, algorithm: AlgorithmKind, outcome: usize, latency: Duration) {
        self.serve_latency.record(latency);
        self.query_outcomes[algorithm.index()][outcome].inc();
        if outcome != OUTCOME_ERROR {
            self.query_latency[algorithm.index()][outcome].record(latency);
        }
    }

    /// `simrank_queries_total` summed over `algo`, indexed by `OUTCOME_*`.
    pub(crate) fn outcome_totals(&self) -> [u64; 4] {
        std::array::from_fn(|outcome| {
            self.query_outcomes
                .iter()
                .map(|by_outcome| by_outcome[outcome].get())
                .sum()
        })
    }

    /// The stage histogram for one query-path stage (`STAGE_*`).
    pub(crate) fn query_stage(&self, stage: usize) -> &Arc<Histogram> {
        &self.query_stage[stage]
    }

    /// The stage histogram for one commit-path stage (`COMMIT_STAGE_*`).
    pub(crate) fn commit_stage(&self, stage: usize) -> &Arc<Histogram> {
        &self.commit_stage[stage]
    }

    /// Records an effective commit's per-stage breakdown. Empty commits are
    /// ignored; the WAL stages are skipped for in-memory stores (their
    /// timings are identically zero, and recording them would fake fsyncs).
    pub(crate) fn record_commit(&self, report: &CommitReport) {
        if !report.advanced() {
            return;
        }
        self.commits.inc();
        let t = &report.timings;
        self.commit_stage[COMMIT_STAGE_STAGE].record(t.staging);
        self.commit_stage[COMMIT_STAGE_CSR_MERGE].record(t.csr_merge);
        self.commit_stage[COMMIT_STAGE_PUBLISH].record(t.publish);
        if t.wal_append != Duration::ZERO || t.fsync != Duration::ZERO {
            self.commit_stage[COMMIT_STAGE_WAL_APPEND].record(t.wal_append);
            self.commit_stage[COMMIT_STAGE_FSYNC].record(t.fsync);
        }
    }
}
