//! The [`ShardRouter`]: one protocol endpoint in front of N
//! [`ShardBackend`] replicas.
//!
//! ## Why replicas, and what the partition decides
//!
//! SimRank single-source needs the whole graph — every node's similarity to
//! the source is a function of global structure — so each shard holds a
//! **full graph replica** and computes complete columns. Any replica can
//! answer any read; the deterministic partition
//! ([`exactsim_graph::partition`]) only decides which one is asked. `query`
//! and `topk` both go to the shard that *owns the source node*: one shard
//! call per read, and each replica's result cache stays warm for a disjoint
//! slice of the source space. The owner's reply is the unsharded answer
//! itself, so routed answers are **bit-identical** to a single server by
//! construction. Updates fan out to every replica.
//!
//! ## Epoch barrier and read fence
//!
//! A read reply is for the router's published epoch, or it is marked. Two
//! mechanisms compose:
//!
//! 1. An `RwLock` barrier: reads and update fan-outs hold it for read, the
//!    commit fan-out holds it for write — so the published epoch cannot move
//!    while a read is in flight.
//! 2. Every read is fenced: a reply whose `epoch` differs from the published
//!    one (an out-of-band commit on a remote shard, a replica that restarted
//!    behind its peers, divergent boot states) is re-asked of the other
//!    replicas. An answer at the published epoch is served marked
//!    `"degraded":true`; when no replica is at the published epoch the read
//!    fails `internal` ("epochs diverge; commit to heal").
//!
//! Commits are two-phase from the router's perspective: `addedge`/`deledge`
//! stage on every replica (compensated on partial failure), `commit` fans
//! out under the write barrier, and the router's published epoch advances
//! only when **every** shard reports the same new epoch. A partially-failed
//! commit leaves shards divergent but heals on retry: an already-committed
//! shard answers the retry with an empty commit (`advanced:false`, epoch
//! unchanged) while the lagging shard catches up.
//!
//! ## Failure handling: breakers, retries, degraded reads
//!
//! Every shard has a [`crate::health::Breaker`]. Requests consult it before
//! touching the backend, so a down shard costs a memory read, not a connect
//! timeout; a background prober ([`ShardRouter::start_health_probes`])
//! `ping`s each shard so breakers open within a probe interval of an outage
//! and close shortly after recovery, independent of client traffic. When a
//! client request is admitted as an open breaker's half-open trial, the
//! router sends that shard a `ping` first (a remote shard bounds it by
//! [`crate::RemoteShard::PING_TIMEOUT`]): only a reply recloses the breaker
//! and lets the request through, and a failed ping re-opens it and the
//! request fails as unavailable (a read fails over), so no client request
//! waits out a wedged shard's read deadline.
//!
//! Retry policy is verb-shaped. **Reads** (`query`, `topk`) are idempotent
//! against a published epoch, and every backend is a full replica whose
//! answer is a pure function of the request line and its epoch — so when
//! the owner is unavailable (or fenced) the router re-asks the next live
//! replica and the answer is bit-identical to the healthy path. Such
//! replies carry `"degraded":true` and count into
//! `simrank_router_degraded_total`. **Writes** (`addedge`,
//! `deledge`, `addnode`, `commit`, `save`) are attempted exactly once per
//! shard and never silently re-sent — a failed fan-out surfaces as a typed
//! `shard_unavailable` reply and staged work is compensated where possible,
//! so at-most-once semantics hold end to end.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use exactsim_graph::partition::PartitionMap;
use exactsim_obs::json::escape_json;
use exactsim_obs::log as oplog;
use exactsim_obs::metrics::{Counter, Histogram, Registry};
use exactsim_service::net::{NetMetrics, ProtocolHost};
use exactsim_service::protocol::{self, codes, Outcome, ProtoError, Request};
use exactsim_service::AlgorithmKind;

use crate::backend::{ShardBackend, ShardError};
use crate::health::{Admission, Breaker, BreakerConfig};
use crate::wire;

/// Per-verb fan-out counters: how many shard requests each verb caused.
struct Fanout {
    query: Arc<Counter>,
    topk: Arc<Counter>,
    update: Arc<Counter>,
    commit: Arc<Counter>,
    epoch: Arc<Counter>,
    save: Arc<Counter>,
}

struct Counters {
    /// Reads routed (query / topk).
    queries: Arc<Counter>,
    /// Requests the router itself failed (shard unreachable, diverged
    /// epochs, malformed shard replies) — shard-side protocol rejections
    /// passed through verbatim do not count.
    errors: Arc<Counter>,
    fanout: Fanout,
    shard_requests: Vec<Arc<Counter>>,
    shard_errors: Vec<Arc<Counter>>,
    shard_latency: Vec<Arc<Histogram>>,
    barrier_wait: Arc<Histogram>,
    /// Reads answered by a replica other than the owner because the owner
    /// was unavailable or off the published epoch (the reply carried
    /// `degraded:true`).
    degraded: Arc<Counter>,
    /// Requests failed fast by an open breaker, per shard (never sent).
    breaker_fastfail: Vec<Arc<Counter>>,
    /// Health `ping`s sent, per shard: background probes and half-open
    /// trials.
    probes: Vec<Arc<Counter>>,
}

struct Inner {
    shards: Vec<Box<dyn ShardBackend>>,
    partition: PartitionMap,
    epoch: Arc<AtomicU64>,
    barrier: RwLock<()>,
    metrics: Registry,
    counters: Counters,
    /// The listener's connection, request and byte series, registered in
    /// `metrics` like every other router series.
    net: NetMetrics,
    /// One circuit breaker per shard (indexes match `shards`). Shared with
    /// the metrics gauges, hence the `Arc`.
    health: Arc<Vec<Breaker>>,
    breaker_config: BreakerConfig,
}

/// The sharded serving tier: implements [`ProtocolHost`], so the same TCP
/// listener (and stdin REPL) that fronts a single [`exactsim_service::SimRankService`]
/// can front N shards instead. Cheap to clone (shared interior).
#[derive(Clone)]
pub struct ShardRouter {
    inner: Arc<Inner>,
}

impl ShardRouter {
    /// Builds a router over `shards` backends. Probes every shard's epoch up
    /// front — a fail-fast connectivity check for remote backends — and
    /// publishes the highest observed epoch (divergence is logged, not
    /// fatal: a retried `commit` heals it).
    pub fn new(shards: Vec<Box<dyn ShardBackend>>) -> Result<ShardRouter, String> {
        if shards.is_empty() {
            return Err("a router needs at least one shard".to_string());
        }
        let mut epochs = Vec::with_capacity(shards.len());
        for (i, shard) in shards.iter().enumerate() {
            let reply = shard.request("epoch").map_err(|e| {
                format!(
                    "cannot reach shard {i} ({}): {}",
                    shard.describe(),
                    e.message()
                )
            })?;
            let epoch = wire::u64_field(&reply, "epoch").ok_or_else(|| {
                format!(
                    "shard {i} ({}) answered a malformed epoch reply: {reply}",
                    shard.describe()
                )
            })?;
            epochs.push(epoch);
        }
        let max_epoch = epochs.iter().copied().max().unwrap_or(0);
        if epochs.iter().any(|&e| e != max_epoch) {
            oplog::warn(
                "simrank-router",
                "shard epochs diverge at boot; a commit will heal them",
                &[("epochs", format!("{epochs:?}").into())],
            );
        }

        let metrics = Registry::new();
        let epoch = Arc::new(AtomicU64::new(max_epoch));
        {
            let epoch = Arc::clone(&epoch);
            metrics.gauge_fn(
                "simrank_router_epoch",
                "Graph epoch the router currently publishes",
                &[],
                move || epoch.load(Ordering::Acquire) as f64,
            );
        }
        let fanout = |verb: &str| {
            metrics.counter(
                "simrank_router_fanout_total",
                "Shard requests issued, by originating verb",
                &[("verb", verb)],
            )
        };
        let breaker_config = BreakerConfig::default();
        let health: Arc<Vec<Breaker>> = Arc::new(
            (0..shards.len())
                .map(|i| Breaker::new(breaker_config, i as u64))
                .collect(),
        );
        let mut shard_requests = Vec::with_capacity(shards.len());
        let mut shard_errors = Vec::with_capacity(shards.len());
        let mut shard_latency = Vec::with_capacity(shards.len());
        let mut breaker_fastfail = Vec::with_capacity(shards.len());
        let mut probes = Vec::with_capacity(shards.len());
        for i in 0..shards.len() {
            let label = i.to_string();
            let labels: &[(&str, &str)] = &[("shard", label.as_str())];
            shard_requests.push(metrics.counter(
                "simrank_router_shard_requests_total",
                "Requests the router sent to each shard",
                labels,
            ));
            shard_errors.push(metrics.counter(
                "simrank_router_shard_errors_total",
                "Shard requests that failed (unreachable or malformed)",
                labels,
            ));
            shard_latency.push(metrics.histogram(
                "simrank_router_shard_latency_us",
                "Per-shard request latency as observed by the router",
                labels,
            ));
            breaker_fastfail.push(metrics.counter(
                "simrank_router_breaker_fastfail_total",
                "Requests failed fast by an open circuit breaker (never sent)",
                labels,
            ));
            probes.push(metrics.counter(
                "simrank_router_probes_total",
                "Health pings sent to each shard (background probes and half-open trials)",
                labels,
            ));
            let gauge_health = Arc::clone(&health);
            metrics.gauge_fn(
                "simrank_router_breaker_state",
                "Circuit breaker state per shard (0 closed, 1 half-open, 2 open)",
                labels,
                move || gauge_health[i].state().gauge(),
            );
        }
        let counters = Counters {
            queries: metrics.counter(
                "simrank_router_requests_total",
                "Reads routed (query/topk)",
                &[],
            ),
            errors: metrics.counter(
                "simrank_router_errors_total",
                "Requests the router failed (shard unreachable, diverged epochs)",
                &[],
            ),
            fanout: Fanout {
                query: fanout("query"),
                topk: fanout("topk"),
                update: fanout("update"),
                commit: fanout("commit"),
                epoch: fanout("epoch"),
                save: fanout("save"),
            },
            shard_requests,
            shard_errors,
            shard_latency,
            degraded: metrics.counter(
                "simrank_router_degraded_total",
                "Reads answered by a failover replica instead of the owner shard",
                &[],
            ),
            breaker_fastfail,
            probes,
            barrier_wait: metrics.histogram(
                "simrank_router_barrier_wait_us",
                "Time spent acquiring the epoch barrier",
                &[],
            ),
        };
        let net = NetMetrics::register(&metrics);
        let partition = PartitionMap::new(shards.len());
        Ok(ShardRouter {
            inner: Arc::new(Inner {
                shards,
                partition,
                epoch,
                barrier: RwLock::new(()),
                metrics,
                counters,
                net,
                health,
                breaker_config,
            }),
        })
    }

    /// Starts the background health prober: one thread that `ping`s every
    /// shard each [`BreakerConfig::probe_interval`]. Probes flow through the
    /// same breakers as client traffic, so an outage opens a shard's breaker
    /// within a probe interval even when the router is idle, and an open
    /// breaker gets its half-open trial (and recloses) from here once the
    /// shard is back — recovery needs no client request to notice it. The
    /// thread holds only a weak reference and exits when the router drops.
    pub fn start_health_probes(&self) {
        let weak = Arc::downgrade(&self.inner);
        let interval = self.inner.breaker_config.probe_interval;
        std::thread::Builder::new()
            .name("shard-health-probe".into())
            .spawn(move || loop {
                std::thread::sleep(interval);
                let Some(inner) = weak.upgrade() else { return };
                ShardRouter { inner }.probe_once();
            })
            .expect("spawning the shard health prober");
    }

    /// One probe round: `ping` every shard whose breaker admits it. Public
    /// so tests (and operators via a debugger) can drive probing
    /// deterministically; the background thread just calls this in a loop.
    /// A remote shard that does not answer within
    /// [`crate::RemoteShard::PING_TIMEOUT`] counts as unavailable, so a
    /// wedged shard holds a round up for at most that long, and its breaker
    /// opens within `failure_threshold` rounds.
    pub fn probe_once(&self) {
        for shard in 0..self.num_shards() {
            if self.inner.health[shard].allow() != Admission::Refused {
                let _ = self.ping(shard);
            }
        }
    }

    /// Sends `shard` a `ping` and reports the outcome to its breaker: a
    /// probe, or the half-open trial ahead of a client request. `Err` iff
    /// the shard is unavailable.
    fn ping(&self, shard: usize) -> Result<(), ShardError> {
        self.inner.counters.probes[shard].inc();
        let breaker = &self.inner.health[shard];
        match self.inner.shards[shard].request("ping") {
            // A malformed reply proves the process is up; health-wise that
            // is a success even though reads would reject it.
            Ok(_) | Err(ShardError::Malformed(_)) => {
                breaker.record_success();
                Ok(())
            }
            Err(e) => {
                breaker.record_failure();
                Err(e)
            }
        }
    }

    /// The breaker state of one shard (for stats and tests).
    pub fn shard_health(&self, shard: usize) -> crate::health::BreakerState {
        self.inner.health[shard].state()
    }

    /// How many shards the router fans out over.
    pub fn num_shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The epoch the router currently publishes (advanced only when every
    /// shard reported the same committed epoch).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Drains every shard (local shards flush their durable snapshot;
    /// remote shards are left to their own operator).
    pub fn drain(&self) {
        for shard in &self.inner.shards {
            shard.drain();
        }
    }

    /// The router's Prometheus exposition (the `metrics` verb payload).
    pub fn metrics_text(&self) -> String {
        self.inner.metrics.render()
    }

    /// The router's `stats` reply: its own epoch/shard topology, fan-out and
    /// barrier counters, the listener's connection counters, and a
    /// `per_shard` breakdown — one JSON line, like every `stats` reply.
    /// Every number is read from a series of the router's own registry, so
    /// `metrics` shows the same values.
    pub fn stats_json(&self) -> String {
        let c = &self.inner.counters;
        let net = &self.inner.net;
        let us = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let per_shard: Vec<String> = self
            .inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                format!(
                    concat!(
                        "{{\"shard\":{},\"backend\":\"{}\",\"requests\":{},",
                        "\"errors\":{},\"health\":\"{}\",\"fastfail\":{},",
                        "\"probes\":{},\"p50_us\":{},\"p99_us\":{}}}"
                    ),
                    i,
                    escape_json(&shard.describe()),
                    c.shard_requests[i].get(),
                    c.shard_errors[i].get(),
                    self.inner.health[i].state().name(),
                    c.breaker_fastfail[i].get(),
                    c.probes[i].get(),
                    us(c.shard_latency[i].quantile_value(0.50)),
                    us(c.shard_latency[i].quantile_value(0.99)),
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"epoch\":{},\"shards\":{},\"queries\":{},\"errors\":{},",
                "\"degraded\":{},",
                "\"fanout\":{{\"query\":{},\"topk\":{},\"update\":{},",
                "\"commit\":{},\"epoch\":{},\"save\":{}}},",
                "\"barrier_wait_p50_us\":{},\"barrier_wait_p99_us\":{},",
                "\"net_requests\":{},\"connections_accepted\":{},",
                "\"connections_closed\":{},\"connections_rejected\":{},",
                "\"bytes_in\":{},\"bytes_out\":{},",
                "\"per_shard\":[{}]}}"
            ),
            self.epoch(),
            self.num_shards(),
            c.queries.get(),
            c.errors.get(),
            c.degraded.get(),
            c.fanout.query.get(),
            c.fanout.topk.get(),
            c.fanout.update.get(),
            c.fanout.commit.get(),
            c.fanout.epoch.get(),
            c.fanout.save.get(),
            us(c.barrier_wait.quantile_value(0.50)),
            us(c.barrier_wait.quantile_value(0.99)),
            net.requests.get(),
            net.connections_accepted.get(),
            net.connections_closed.get(),
            net.connections_rejected.get(),
            net.bytes_in.get(),
            net.bytes_out.get(),
            per_shard.join(","),
        )
    }

    /// Executes one parsed request. Mirrors
    /// [`exactsim_service::protocol::execute`] but over the shard fan-out;
    /// every failure is a typed `{"error","code"}` reply, never a panic and
    /// never a hang.
    pub fn execute(&self, default_algo: AlgorithmKind, request: &Request) -> Outcome {
        match request {
            Request::Help => Outcome::Help(protocol::PROTOCOL_HELP),
            Request::Quit => Outcome::Quit,
            Request::Shutdown => {
                Outcome::Shutdown("{\"op\":\"shutdown\",\"draining\":true}".into())
            }
            Request::Stats => Outcome::Reply(self.stats_json()),
            Request::Metrics => Outcome::Text(self.metrics_text()),
            // Shard-local diagnostics have no meaningful cross-shard merge;
            // a clean rejection beats a misleading partial answer.
            Request::SlowLog { .. } | Request::Trace { .. } => Outcome::Reply(
                ProtoError::bad_request(
                    "the router does not serve this verb; ask a shard directly",
                )
                .to_json(),
            ),
            // Reads are canonicalized with an explicit algorithm, so every
            // replica answers the same line whatever its own default.
            Request::Query { node, algo } => {
                let line = Request::Query {
                    node: *node,
                    algo: Some(algo.unwrap_or(default_algo)),
                }
                .to_line();
                self.route_read(*node, &line, &self.inner.counters.fanout.query)
            }
            Request::TopK { node, k, algo } => {
                let line = Request::TopK {
                    node: *node,
                    k: *k,
                    algo: Some(algo.unwrap_or(default_algo)),
                }
                .to_line();
                self.route_read(*node, &line, &self.inner.counters.fanout.topk)
            }
            Request::AddEdge { u, v } => self.fan_update(true, *u, *v),
            Request::DelEdge { u, v } => self.fan_update(false, *u, *v),
            // Node-id-space growth must land on every replica, or the next
            // commit publishes divergent graphs. There is no inverse verb to
            // compensate a partial stage with: the error is surfaced, and the
            // divergence stays visible in each shard's own `epoch` reply
            // (`pending_nodes`) until the lagging replicas are reconciled
            // directly (or roll back by restart).
            Request::AddNode { .. } => {
                self.fan_out(&request.to_line(), &self.inner.counters.fanout.update)
            }
            Request::Commit => self.commit(),
            // `ping` answers from the router's own published state — no
            // fan-out, no barrier — so it stays a pure liveness probe even
            // when every shard is down or a commit is in flight.
            Request::Ping => {
                Outcome::Reply(format!("{{\"op\":\"ping\",\"epoch\":{}}}", self.epoch()))
            }
            Request::Epoch => self.gather_epoch(),
            // In-memory shards answer `not_durable`, passed through: the
            // deployment either is durable everywhere or the operator learns
            // it is not.
            Request::Save => self.fan_out("save", &self.inner.counters.fanout.save),
        }
    }

    // ---- internals -------------------------------------------------------

    fn read_barrier(&self) -> RwLockReadGuard<'_, ()> {
        let started = Instant::now();
        let guard = self.inner.barrier.read().expect("epoch barrier poisoned");
        self.inner.counters.barrier_wait.record(started.elapsed());
        guard
    }

    fn write_barrier(&self) -> RwLockWriteGuard<'_, ()> {
        let started = Instant::now();
        let guard = self.inner.barrier.write().expect("epoch barrier poisoned");
        self.inner.counters.barrier_wait.record(started.elapsed());
        guard
    }

    fn timed_request(&self, shard: usize, line: &str) -> Result<String, ShardError> {
        let c = &self.inner.counters;
        let breaker = &self.inner.health[shard];
        match breaker.allow() {
            Admission::Pass => {}
            Admission::Refused => {
                c.breaker_fastfail[shard].inc();
                return Err(ShardError::Unavailable(format!(
                    "shard {shard} ({}): circuit open",
                    self.inner.shards[shard].describe()
                )));
            }
            // The trial is a `ping`, bounded by the ping deadline, so the
            // request never waits out a wedged shard's read deadline.
            Admission::Trial => self.ping(shard)?,
        }
        c.shard_requests[shard].inc();
        let started = Instant::now();
        let result = self.inner.shards[shard].request(line);
        c.shard_latency[shard].record(started.elapsed());
        match &result {
            // Any reply — even a protocol error reply — proves the shard is
            // alive and serving.
            Ok(_) => breaker.record_success(),
            Err(ShardError::Unavailable(_)) => {
                c.shard_errors[shard].inc();
                breaker.record_failure();
            }
            // A malformed reply is a bug to surface, not an outage to trip
            // the breaker over.
            Err(ShardError::Malformed(_)) => c.shard_errors[shard].inc(),
        }
        result
    }

    /// Appends `"degraded":true` to a flat JSON object reply, marking an
    /// answer that a failover replica produced.
    fn mark_degraded(reply: &str) -> String {
        match reply.trim_end().strip_suffix('}') {
            Some(body) => format!("{body},\"degraded\":true}}"),
            None => reply.to_string(),
        }
    }

    /// `line` to every shard, concurrently (scoped threads — the scatter
    /// width is the shard count, not a pool): one result per shard, in shard
    /// order.
    fn scatter(&self, line: &str) -> Vec<Result<String, ShardError>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.num_shards())
                .map(|i| scope.spawn(move || self.timed_request(i, line)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(ShardError::Malformed("scatter thread panicked".into()))
                    })
                })
                .collect()
        })
    }

    fn shard_error_reply(&self, e: &ShardError) -> Outcome {
        self.inner.counters.errors.inc();
        let proto = ProtoError {
            code: match e {
                ShardError::Unavailable(_) => codes::SHARD_UNAVAILABLE,
                ShardError::Malformed(_) => codes::INTERNAL,
            },
            message: e.message().to_string(),
        };
        Outcome::Reply(proto.to_json())
    }

    fn internal_reply(&self, message: String) -> Outcome {
        self.inner.counters.errors.inc();
        Outcome::Reply(
            ProtoError {
                code: codes::INTERNAL,
                message,
            }
            .to_json(),
        )
    }

    /// A read (`query` or `topk`) goes to the shard that owns the source
    /// node: one shard call, and each replica's cache stays warm for its
    /// slice of the source space.
    ///
    /// The reply is fenced to the published epoch. When the owner is
    /// unavailable or answers at another epoch, the other replicas are asked
    /// in turn, and an answer at the published epoch is marked
    /// `"degraded":true`. Re-asking is safe because reads are idempotent;
    /// writes never take this path.
    fn route_read(&self, node: u32, line: &str, fanout: &Counter) -> Outcome {
        let c = &self.inner.counters;
        c.queries.inc();
        let width = self.num_shards();
        let owner = self.inner.partition.owner(node);
        let _epoch_stable = self.read_barrier();
        let published = self.epoch();
        let mut unavailable: Option<ShardError> = None;
        let mut off_epoch: Vec<String> = Vec::new();
        for offset in 0..width {
            let shard = (owner + offset) % width;
            fanout.inc();
            let reply = match self.timed_request(shard, line) {
                Ok(reply) => reply,
                Err(e @ ShardError::Unavailable(_)) => {
                    unavailable.get_or_insert(e);
                    continue;
                }
                // Don't mask a malformed-reply bug by trying elsewhere.
                Err(e) => return self.shard_error_reply(&e),
            };
            // A shard-side rejection (out_of_range, ...) is deterministic
            // across replicas; pass it through.
            if wire::error_code(&reply).is_some() {
                return Outcome::Reply(reply);
            }
            match wire::u64_field(&reply, "epoch") {
                Some(epoch) if epoch == published => {
                    if offset == 0 {
                        return Outcome::Reply(reply);
                    }
                    c.degraded.inc();
                    return Outcome::Reply(Self::mark_degraded(&reply));
                }
                Some(epoch) => off_epoch.push(format!("shard {shard} at {epoch}")),
                None => {
                    return self
                        .internal_reply(format!("shard {shard} answered a read without an epoch"))
                }
            }
        }
        if !off_epoch.is_empty() {
            return self.internal_reply(format!(
                "shard epochs diverge (router at {published}, {}); commit to heal",
                off_epoch.join(", ")
            ));
        }
        self.shard_error_reply(
            &unavailable.unwrap_or_else(|| {
                ShardError::Unavailable("no replica available for the read".into())
            }),
        )
    }

    /// `addedge`/`deledge` stage on every replica. On partial failure every
    /// stage that changed a replica's delta is compensated with the opposite
    /// op (staging is cancellative: the opposite op restores the delta), so
    /// no replica is left ahead of the others.
    fn fan_update(&self, insert: bool, u: u32, v: u32) -> Outcome {
        let request = if insert {
            Request::AddEdge { u, v }
        } else {
            Request::DelEdge { u, v }
        };
        let line = request.to_line();
        let _epoch_stable = self.read_barrier();
        self.inner
            .counters
            .fanout
            .update
            .add(self.num_shards() as u64);
        let replies = self.scatter(&line);
        let failed = replies.iter().any(|r| match r {
            Ok(reply) => wire::error_code(reply).is_some(),
            Err(_) => true,
        });
        if !failed {
            // Replicas answer identically; the first reply speaks for all.
            let first = replies.into_iter().flatten().next();
            return Outcome::Reply(first.expect("a scatter answers for every shard"));
        }
        // Compensation: undo every stage that changed the delta — `pending`
        // staged the op, `cancelled` dropped a staged opposite op. Only a
        // `noop` stage changed nothing.
        let undo = if insert {
            Request::DelEdge { u, v }
        } else {
            Request::AddEdge { u, v }
        }
        .to_line();
        let mut first_unavailable: Option<ShardError> = None;
        let mut first_rejection: Option<String> = None;
        for (shard, reply) in replies.into_iter().enumerate() {
            match reply {
                Ok(reply) => {
                    if let Some(_code) = wire::error_code(&reply) {
                        first_rejection.get_or_insert(reply);
                    } else if matches!(
                        wire::str_field(&reply, "staged"),
                        Some("pending" | "cancelled")
                    ) {
                        let _ = self.timed_request(shard, &undo);
                    }
                }
                Err(e) => {
                    first_unavailable.get_or_insert(e);
                }
            }
        }
        match (first_unavailable, first_rejection) {
            (Some(e), _) => self.shard_error_reply(&e),
            // Every replica rejected the same way (e.g. out_of_range):
            // that is the answer, not a router failure.
            (None, Some(reply)) => Outcome::Reply(reply),
            (None, None) => self.internal_reply("update fan-out failed without a cause".into()),
        }
    }

    /// Sends `line` to every shard (the caller holds the barrier), counting
    /// one request per shard into `fanout`, and returns the replies in shard
    /// order — or, counted as a router error, the outcome of the first shard
    /// that refused (its error reply, verbatim: replicas share one state) or
    /// could not be asked (`shard_unavailable`).
    fn broadcast(&self, line: &str, fanout: &Counter) -> Result<Vec<String>, Outcome> {
        fanout.add(self.num_shards() as u64);
        self.scatter(line)
            .into_iter()
            .map(|reply| match reply {
                Ok(reply) if wire::error_code(&reply).is_some() => {
                    self.inner.counters.errors.inc();
                    Err(Outcome::Reply(reply))
                }
                Ok(reply) => Ok(reply),
                Err(e) => Err(self.shard_error_reply(&e)),
            })
            .collect()
    }

    /// A write every replica must apply (`addnode`, `save`): under the read
    /// barrier, [`Self::broadcast`] it and answer with the first reply.
    fn fan_out(&self, line: &str, fanout: &Counter) -> Outcome {
        let _epoch_stable = self.read_barrier();
        match self.broadcast(line, fanout) {
            Ok(mut replies) => Outcome::Reply(replies.swap_remove(0)),
            Err(refused) => refused,
        }
    }

    /// [`Self::broadcast`] of `verb`, then the epoch every reply carries.
    /// A reply without one fails `internal` with `missing`, and replies that
    /// disagree fail `internal` with `diverged` of their epochs.
    fn broadcast_agreed(
        &self,
        verb: &str,
        fanout: &Counter,
        missing: &str,
        diverged: impl FnOnce(&[u64]) -> String,
    ) -> Result<(u64, Vec<String>), Outcome> {
        let replies = self.broadcast(verb, fanout)?;
        let epochs = replies
            .iter()
            .map(|r| wire::u64_field(r, "epoch"))
            .collect::<Option<Vec<u64>>>()
            .ok_or_else(|| self.internal_reply(missing.into()))?;
        if epochs.windows(2).any(|w| w[0] != w[1]) {
            return Err(self.internal_reply(diverged(&epochs)));
        }
        Ok((epochs[0], replies))
    }

    /// The commit fan-out: write barrier (no read straddles it), commit on
    /// every shard, publish the router epoch only on unanimous agreement. A
    /// shard that refused leaves the shards that accepted ahead, which the
    /// next commit heals (their empty commit does not advance further).
    fn commit(&self) -> Outcome {
        let _epoch_frozen = self.write_barrier();
        let agreed = self.broadcast_agreed(
            "commit",
            &self.inner.counters.fanout.commit,
            "a shard answered commit without an epoch",
            |epochs| {
                format!("shard epochs diverge after commit ({epochs:?}); retry commit to heal")
            },
        );
        match agreed {
            Ok((epoch, mut replies)) => {
                self.inner.epoch.store(epoch, Ordering::Release);
                // Prefer a reply that actually advanced: after a heal, the
                // lagging shard's reply describes the edges applied, while
                // an already-committed replica reports an empty commit.
                let advanced = replies.iter().position(|r| r.contains("\"advanced\":true"));
                Outcome::Reply(replies.swap_remove(advanced.unwrap_or(0)))
            }
            Err(refused) => refused,
        }
    }

    /// `epoch` gathers every shard's view and verifies agreement — the
    /// operator-facing probe for the consistency the barrier maintains.
    fn gather_epoch(&self) -> Outcome {
        let _epoch_stable = self.read_barrier();
        let agreed = self.broadcast_agreed(
            "epoch",
            &self.inner.counters.fanout.epoch,
            "a shard answered epoch unparsably",
            |epochs| format!("shard epochs diverge ({epochs:?}); commit to heal"),
        );
        match agreed {
            Ok((_, mut replies)) => Outcome::Reply(replies.swap_remove(0)),
            Err(refused) => refused,
        }
    }
}

impl ProtocolHost for ShardRouter {
    fn serve_line(&self, default_algo: AlgorithmKind, line: &str) -> Option<Outcome> {
        match protocol::parse_line(line) {
            Ok(None) => None,
            Ok(Some(request)) => Some(self.execute(default_algo, &request)),
            Err(e) => Some(Outcome::Reply(e.to_json())),
        }
    }

    fn net_metrics(&self) -> &NetMetrics {
        &self.inner.net
    }

    fn on_drain(&self) {
        self.drain();
    }
}
