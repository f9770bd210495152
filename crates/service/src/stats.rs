//! The `stats` reply: a typed, point-in-time read of the registry.
//!
//! [`StatsSnapshot`] owns no counters. [`crate::SimRankService::stats`]
//! fills it from the same registry series that the `metrics` verb renders
//! (query outcomes, index builds, epoch refreshes, writes, serve latency,
//! and the listener's [`crate::net::NetMetrics`]), plus the live cache,
//! store and config state. Each event is counted once, in one series, so
//! `stats` and `metrics` cannot drift apart.
//!
//! Quantiles come from the power-of-two-bucketed
//! [`exactsim_obs::metrics::Histogram`] over microseconds: p50/p99 are the
//! upper bound of the containing bucket, i.e. within a factor of two.

use std::time::Duration;

use exactsim_obs::json::escape_json;
use exactsim_store::PoolStats;

/// The serving topology, reported explicitly by the `stats` verb so
/// operators never have to re-derive it from boot flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServingShape {
    /// TCP connection handlers serving right now (`connections_accepted -
    /// connections_closed`): each runs its requests on its own thread.
    /// Always 0 on the stdin REPL.
    pub workers: usize,
    /// ExactSim kernel threads per query (`SimRankConfig::threads`).
    pub kernel_threads: usize,
    /// Shards behind this endpoint (1 unless answered by a router).
    pub shards: usize,
}

impl Default for ServingShape {
    fn default() -> Self {
        ServingShape {
            workers: 0,
            kernel_threads: 1,
            shards: 1,
        }
    }
}

/// A point-in-time copy of the service counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// The graph epoch the service is currently serving.
    pub epoch: u64,
    /// The serving topology (live connection handlers, kernel threads,
    /// shard count) — explicit so operators read it instead of inferring it
    /// from the boot flags.
    pub shape: ServingShape,
    /// Buffer-pool counters of the paged storage backend (`None` when the
    /// store serves from the in-memory CSR). `hits`/`misses`/`evictions` are
    /// monotonic across epochs — the pool outlives page files.
    pub pool: Option<PoolStats>,
    /// Data directory of the backing store (`None` for in-memory stores).
    pub data_dir: Option<String>,
    /// Delta records currently in the write-ahead log (`None` when not
    /// durable). Together with `last_snapshot_epoch` this tells an operator
    /// how much replay a restart would do.
    pub wal_len: Option<u64>,
    /// Epoch of the newest on-disk snapshot file (`None` when not durable).
    pub last_snapshot_epoch: Option<u64>,
    /// Queries served (hits + joins + computations + errors).
    pub queries: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that joined an in-flight computation instead of recomputing.
    pub dedup_joins: u64,
    /// Underlying single-source computations actually performed.
    pub computations: u64,
    /// Algorithm indices built (lazily, at most one per algorithm).
    pub index_builds: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Times the service rebuilt its per-epoch state after a store commit.
    pub epoch_refreshes: u64,
    /// `addedge`/`deledge` requests that reached the store's staging area
    /// (including cancels and no-ops) — the write half of a workload mix.
    pub updates_staged: u64,
    /// `commit` requests accepted, whether or not each advanced the epoch.
    pub commit_requests: u64,
    /// Cache entries evicted under capacity pressure.
    pub evictions: u64,
    /// Cache entries swept by epoch-generation invalidations.
    pub invalidations: u64,
    /// Entries currently resident in the cache.
    pub cached_entries: usize,
    /// Per-algorithm index heap footprint for the serving epoch, in
    /// `[exactsim, prsim, mc]` order ([`AlgorithmKind::ALL`] of the response
    /// module). `None` until that algorithm's index has been built this
    /// epoch; ExactSim is index-free and reports `Some(0)` once constructed.
    ///
    /// [`AlgorithmKind::ALL`]: crate::response::AlgorithmKind::ALL
    pub index_memory_bytes: [Option<u64>; 3],
    /// Median serve latency (bucket upper bound), if any query was served.
    pub p50: Option<Duration>,
    /// 99th-percentile serve latency (bucket upper bound).
    pub p99: Option<Duration>,
    /// Observations past the histogram's top bucket (`≥ 2^39 µs`). When this
    /// is nonzero, a reported quantile of `2^39 µs` is a *lower* bound.
    pub latency_saturated: u64,
    /// TCP connections accepted by the network listener (0 without one).
    pub connections_accepted: u64,
    /// TCP connections that have finished (EOF, `quit`, error, or drain);
    /// `connections_accepted - connections_closed` is the live gauge.
    pub connections_closed: u64,
    /// TCP connections turned away because `--max-conns` handlers were busy.
    pub connections_rejected: u64,
    /// Protocol requests served over TCP connections (a subset of the
    /// activity in `queries`: updates/stats/etc. count here too).
    pub net_requests: u64,
    /// Payload bytes read from TCP connections (request lines, newlines
    /// included). Zero without a network listener.
    pub bytes_in: u64,
    /// Payload bytes written to TCP connections (reply lines, newlines
    /// included).
    pub bytes_out: u64,
    /// Median requests served per finished TCP connection (bucket upper
    /// bound, like every quantile here), `None` before any connection
    /// closed. A median of 1 means clients are not reusing connections.
    pub requests_per_conn_p50: Option<u64>,
}

impl StatsSnapshot {
    /// `(cache_hits + dedup_joins) / queries` — the fraction of queries that
    /// did *not* pay for a computation. Zero before the first query.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.cache_hits + self.dedup_joins, self.queries)
    }

    /// `connections_rejected / (connections_accepted + connections_rejected)`
    /// — the fraction of offered connections the listener load-shed. Zero
    /// before any connection attempt (and always zero without a listener).
    pub fn shed_rate(&self) -> f64 {
        ratio(
            self.connections_rejected,
            self.connections_accepted + self.connections_rejected,
        )
    }

    /// Serializes to one line of JSON for the `stats` protocol command
    /// (hand-rolled like [`crate::response`]; the offline build has no
    /// serde). Latencies are microsecond bucket upper bounds, `null` before
    /// the first served query.
    pub fn to_json(&self) -> String {
        let us = |d: Option<Duration>| match d {
            Some(d) => d.as_micros().to_string(),
            None => "null".to_string(),
        };
        let opt_u64 = |v: Option<u64>| match v {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        };
        let data_dir = match &self.data_dir {
            Some(dir) => format!("\"{}\"", escape_json(dir)),
            None => "null".to_string(),
        };
        let pool = match &self.pool {
            Some(p) => format!(
                concat!(
                    "{{\"pages\":{},\"resident\":{},\"pinned\":{},",
                    "\"hits\":{},\"misses\":{},\"evictions\":{},",
                    "\"pool_hit_rate\":{:.4}}}"
                ),
                p.capacity,
                p.resident,
                p.pinned,
                p.hits,
                p.misses,
                p.evictions,
                p.hit_rate(),
            ),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"epoch\":{},\"shards\":{},\"workers\":{},\"kernel_threads\":{},",
                "\"queries\":{},\"cache_hits\":{},\"dedup_joins\":{},",
                "\"computations\":{},\"index_builds\":{},\"errors\":{},",
                "\"epoch_refreshes\":{},\"updates_staged\":{},\"commit_requests\":{},",
                "\"evictions\":{},\"invalidations\":{},",
                "\"cached_entries\":{},\"hit_rate\":{:.4},",
                "\"memory_bytes\":{{\"exactsim\":{},\"prsim\":{},\"mc\":{}}},",
                "\"p50_us\":{},\"p99_us\":{},",
                "\"latency_saturated\":{},",
                "\"connections_accepted\":{},\"connections_closed\":{},",
                "\"connections_rejected\":{},\"shed_rate\":{:.4},\"net_requests\":{},",
                "\"bytes_in\":{},\"bytes_out\":{},\"requests_per_conn_p50\":{},",
                "\"pool\":{},",
                "\"data_dir\":{},\"wal_len\":{},\"last_snapshot_epoch\":{}}}"
            ),
            self.epoch,
            self.shape.shards,
            self.shape.workers,
            self.shape.kernel_threads,
            self.queries,
            self.cache_hits,
            self.dedup_joins,
            self.computations,
            self.index_builds,
            self.errors,
            self.epoch_refreshes,
            self.updates_staged,
            self.commit_requests,
            self.evictions,
            self.invalidations,
            self.cached_entries,
            self.hit_rate(),
            opt_u64(self.index_memory_bytes[0]),
            opt_u64(self.index_memory_bytes[1]),
            opt_u64(self.index_memory_bytes[2]),
            us(self.p50),
            us(self.p99),
            self.latency_saturated,
            self.connections_accepted,
            self.connections_closed,
            self.connections_rejected,
            self.shed_rate(),
            self.net_requests,
            self.bytes_in,
            self.bytes_out,
            opt_u64(self.requests_per_conn_p50),
            pool,
            data_dir,
            opt_u64(self.wal_len),
            opt_u64(self.last_snapshot_epoch),
        )
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exactsim_obs::metrics::{Histogram, SATURATION_BOUND_US};

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        for us in [0u64, 1, 2, 3, 100, 1000, 100_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 7);
        // Median of {0,1,2,3,100,1000,100000} µs is 3 µs → bucket [2,4) → 4.
        assert_eq!(h.quantile(0.5), Some(Duration::from_micros(4)));
        // Max quantile lands in the 100ms-ish bucket containing 100000 µs.
        let p100 = h.quantile(1.0).unwrap();
        assert!(p100 >= Duration::from_micros(100_000));
        assert!(p100 <= Duration::from_micros(262_144));
    }

    #[test]
    fn latencies_past_the_top_bucket_saturate_instead_of_clamping() {
        let h = Histogram::default();
        // One bucketable observation and two past the nominal 2^39 µs bound.
        h.record(Duration::from_micros(10));
        h.record(Duration::from_micros(SATURATION_BOUND_US));
        h.record(Duration::from_micros(u64::MAX));
        assert_eq!(h.count(), 3);
        assert_eq!(h.saturated(), 2);
        // The median is the bucketable observation; the max quantile lands in
        // the saturated tail and reports the saturation bound (a lower
        // bound, flagged by saturated() > 0 — not a fake upper bound).
        assert_eq!(h.quantile(0.0), Some(Duration::from_micros(16)));
        assert_eq!(
            h.quantile(1.0),
            Some(Duration::from_micros(SATURATION_BOUND_US))
        );

        let snap = StatsSnapshot {
            latency_saturated: 1,
            ..Default::default()
        };
        assert!(snap.to_json().contains("\"latency_saturated\":1"));
    }

    #[test]
    fn connection_counters_surface_in_json_and_display() {
        let snap = StatsSnapshot {
            connections_accepted: 5,
            connections_closed: 3,
            connections_rejected: 2,
            net_requests: 40,
            ..Default::default()
        };
        let json = snap.to_json();
        assert!(json.contains("\"connections_accepted\":5"), "{json}");
        assert!(json.contains("\"connections_closed\":3"), "{json}");
        assert!(json.contains("\"connections_rejected\":2"), "{json}");
        assert!(json.contains("\"net_requests\":40"), "{json}");
        // 2 of 7 offered connections were shed.
        assert!((snap.shed_rate() - 2.0 / 7.0).abs() < 1e-12);
        assert!(json.contains("\"shed_rate\":0.2857"), "{json}");
    }

    #[test]
    fn byte_and_per_connection_counters_surface_in_json_and_display() {
        // Two finished connections: 3 requests and 5 requests. The p50 of
        // {3, 5} resolves to the upper bound of 3's bucket [2, 4).
        let per_conn = Histogram::default();
        per_conn.record_value(3);
        per_conn.record_value(5);
        let snap = StatsSnapshot {
            connections_accepted: 2,
            connections_closed: 2,
            bytes_in: 120,
            bytes_out: 4096,
            requests_per_conn_p50: per_conn.quantile_value(0.50),
            ..Default::default()
        };
        assert_eq!(snap.requests_per_conn_p50, Some(4));
        let json = snap.to_json();
        assert!(json.contains("\"bytes_in\":120"), "{json}");
        assert!(json.contains("\"bytes_out\":4096"), "{json}");
        assert!(json.contains("\"requests_per_conn_p50\":4"), "{json}");
        // Before any connection finishes, the quantile serializes as null.
        let early = StatsSnapshot {
            connections_accepted: 1,
            ..Default::default()
        };
        assert!(early.to_json().contains("\"requests_per_conn_p50\":null"));
    }

    #[test]
    fn write_counters_and_shed_rate_surface_in_json_and_display() {
        let snap = StatsSnapshot {
            updates_staged: 12,
            commit_requests: 3,
            ..Default::default()
        };
        let json = snap.to_json();
        assert!(json.contains("\"updates_staged\":12"), "{json}");
        assert!(json.contains("\"commit_requests\":3"), "{json}");
        // A server with no listener sheds nothing.
        let quiet = StatsSnapshot::default();
        assert_eq!(quiet.shed_rate(), 0.0);
        assert!(quiet.to_json().contains("\"shed_rate\":0.0000"));
    }

    #[test]
    fn index_memory_surfaces_in_json_and_display() {
        let snap = StatsSnapshot {
            index_memory_bytes: [Some(0), Some(4096), None],
            ..Default::default()
        };
        let json = snap.to_json();
        assert!(
            json.contains("\"memory_bytes\":{\"exactsim\":0,\"prsim\":4096,\"mc\":null}"),
            "{json}"
        );
    }

    #[test]
    fn snapshot_hit_rate_counts_hits_and_joins() {
        let snap = StatsSnapshot {
            epoch: 7,
            queries: 10,
            cache_hits: 6,
            dedup_joins: 3,
            computations: 1,
            epoch_refreshes: 2,
            invalidations: 4,
            cached_entries: 5,
            index_memory_bytes: [Some(0), Some(1024), None],
            ..Default::default()
        };
        assert!((snap.hit_rate() - 0.9).abs() < 1e-12);
        let json = snap.to_json();
        for field in [
            "\"epoch\":7,",
            "\"hit_rate\":0.9000,",
            "\"computations\":1,",
            "\"epoch_refreshes\":2,",
            "\"evictions\":0,\"invalidations\":4,\"cached_entries\":5,",
            "\"data_dir\":null,",
        ] {
            assert!(json.contains(field), "{field} in {json}");
        }
    }

    #[test]
    fn zero_queries_mean_zero_hit_rate() {
        let snap = StatsSnapshot::default();
        assert_eq!(snap.hit_rate(), 0.0);
        assert_eq!(snap.p50, None);
    }

    #[test]
    fn json_snapshot_is_wire_shaped() {
        let latency = Histogram::default();
        latency.record(Duration::from_micros(100));
        let json = StatsSnapshot {
            epoch: 3,
            queries: 4,
            cache_hits: 2,
            evictions: 1,
            cached_entries: 2,
            p50: latency.quantile(0.50),
            ..Default::default()
        }
        .to_json();
        assert!(json.starts_with("{\"epoch\":3,"));
        assert!(json.contains("\"queries\":4"));
        assert!(json.contains("\"hit_rate\":0.5000"));
        assert!(json.contains("\"p50_us\":128"));
        assert!(json.ends_with('}'));
        // Not durable: the operator fields serialize as null.
        assert!(json.contains("\"data_dir\":null"));
        assert!(json.contains("\"wal_len\":null"));
        assert!(json.contains("\"last_snapshot_epoch\":null"));
        // Before any query, quantiles serialize as null.
        let empty = StatsSnapshot::default().to_json();
        assert!(empty.contains("\"p99_us\":null"));
    }

    #[test]
    fn serving_shape_surfaces_in_json_and_display() {
        let snap = StatsSnapshot {
            shape: ServingShape {
                workers: 4,
                kernel_threads: 2,
                shards: 3,
            },
            ..Default::default()
        };
        let json = snap.to_json();
        // Shape rides immediately after the epoch so scrapers that read a
        // prefix still see it.
        assert!(
            json.starts_with("{\"epoch\":0,\"shards\":3,\"workers\":4,\"kernel_threads\":2,"),
            "{json}"
        );
        // The single-process default reports one shard.
        let plain = StatsSnapshot::default().to_json();
        assert!(plain.contains("\"shards\":1"), "{plain}");
    }

    #[test]
    fn pool_stats_surface_in_json_and_display() {
        let snap = StatsSnapshot {
            pool: Some(PoolStats {
                capacity: 64,
                resident: 64,
                pinned: 2,
                hits: 900,
                misses: 100,
                evictions: 36,
            }),
            ..Default::default()
        };
        let json = snap.to_json();
        assert!(
            json.contains(concat!(
                "\"pool\":{\"pages\":64,\"resident\":64,\"pinned\":2,",
                "\"hits\":900,\"misses\":100,\"evictions\":36,",
                "\"pool_hit_rate\":0.9000}"
            )),
            "{json}"
        );
        // An in-memory (unpaged) store reports no pool at all — scrapers can
        // key backend detection on the null.
        let unpaged = StatsSnapshot::default();
        assert!(unpaged.to_json().contains("\"pool\":null"));
    }

    #[test]
    fn durable_stats_surface_the_data_dir_wal_and_snapshot_epoch() {
        let snap = StatsSnapshot {
            epoch: 5,
            data_dir: Some("/var/lib/simrank \"x\"".to_string()),
            wal_len: Some(12),
            last_snapshot_epoch: Some(3),
            ..Default::default()
        };
        let json = snap.to_json();
        assert!(json.contains("\"wal_len\":12"), "{json}");
        assert!(json.contains("\"last_snapshot_epoch\":3"), "{json}");
        // Path quotes are escaped so the reply stays valid JSON.
        assert!(
            json.contains("\"data_dir\":\"/var/lib/simrank \\\"x\\\"\""),
            "{json}"
        );
    }
}
