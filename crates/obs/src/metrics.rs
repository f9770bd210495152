//! Labeled metrics registry with Prometheus text-format exposition.
//!
//! Three primitives, all lock-free on the hot path:
//!
//! * [`Counter`] — a monotonically increasing `AtomicU64`.
//! * [`Histogram`] — the power-of-two bucketed latency histogram that the
//!   serving layer has used since its first stats snapshot, relocated here so
//!   every crate can record into it. Buckets are fixed at compile time, so
//!   recording is two relaxed atomic adds and no allocation.
//! * function-backed series — a counter or gauge whose value is read from a
//!   closure at scrape time, used to expose counters that already live
//!   elsewhere (the slow-query ring's count, kernel statics) without double
//!   bookkeeping.
//!
//! A [`Registry`] groups series into *families* (one metric name, one help
//! string, one type, many label sets) and renders the whole collection in the
//! Prometheus text exposition format. The rendered payload always ends with a
//! `# EOF` line, which the line-oriented TCP protocol uses as the framing
//! sentinel for its one multi-line reply (`metrics`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of histogram buckets: bucket 0 plus one per power of two up to
/// 2^39 µs (~6.4 days), after which observations saturate.
pub const BUCKETS: usize = 40;

/// Values at or above this saturate into the overflow bucket.
///
/// 2^39 µs is a bit over six days — any observation that large is a bug
/// somewhere else, but it must not corrupt the histogram.
pub const SATURATION_BOUND_US: u64 = 1 << (BUCKETS - 1);

/// Highest bucket rendered with an explicit `le` bound in the Prometheus
/// exposition; everything above folds into `+Inf`. 2^30 µs (~18 minutes)
/// keeps scrapes compact without losing any realistic latency resolution.
const RENDER_BUCKETS: usize = 31;

/// A monotonically increasing counter.
///
/// Plain newtype over `AtomicU64` with relaxed ordering — counters are
/// statistics, not synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero. `const` so counters can live in statics.
    #[must_use]
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Lock-free histogram with power-of-two bucket boundaries.
///
/// Bucket 0 counts observations of 0 µs (sub-microsecond); bucket `i` for
/// `i >= 1` counts observations in `[2^(i-1), 2^i)` µs. Observations at or
/// beyond [`SATURATION_BOUND_US`] land in a dedicated overflow bucket so they
/// can never index out of range. A running sum (saturating) is kept for the
/// Prometheus `_sum` series.
///
/// The unit is microseconds for latency series, but [`Histogram::record_value`]
/// accepts any non-negative integer, so the same primitive also backs
/// unit-less distributions such as requests-per-connection.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    overflow: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration, bucketed by whole microseconds.
    pub fn record(&self, latency: Duration) {
        self.record_value(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records one raw value (microseconds for latency series; any
    /// non-negative integer otherwise).
    pub fn record_value(&self, value: u64) {
        if value >= SATURATION_BOUND_US {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        } else {
            // 0 -> bucket 0; otherwise 1 + floor(log2(value)).
            let bucket = (64 - value.leading_zeros()) as usize;
            self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        }
        // Saturating: one pathological observation must not wrap the sum.
        let mut sum = self.sum.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(value);
            match self
                .sum
                .compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => sum = actual,
            }
        }
    }

    /// Upper bound (exclusive) of bucket `i`, in the histogram's unit.
    #[must_use]
    pub const fn bucket_upper_bound(i: usize) -> u64 {
        1 << i
    }

    /// A point-in-time copy of the per-bucket counts (overflow excluded).
    #[must_use]
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut counts = [0u64; BUCKETS];
        for (slot, bucket) in counts.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        counts
    }

    /// Number of observations that saturated past the top bucket.
    #[must_use]
    pub fn saturated(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Total number of observations, including saturated ones.
    #[must_use]
    pub fn count(&self) -> u64 {
        let mut total = self.overflow.load(Ordering::Relaxed);
        for bucket in &self.buckets {
            total += bucket.load(Ordering::Relaxed);
        }
        total
    }

    /// Sum of all observed values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The value below which a fraction `q` of observations fall, reported
    /// as the upper bound of the containing bucket (conservative).
    ///
    /// `q` is clamped into `[0, 1]` (so `q = 0` reports the smallest
    /// occupied bucket). Returns `None` for an empty histogram. If the
    /// quantile lands among saturated observations, the saturation bound
    /// itself is returned — a *lower* bound, flagged by a nonzero
    /// [`Histogram::saturated`] count rather than silently miscounted.
    #[must_use]
    pub fn quantile_value(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        // Rank of the target observation, 1-based, rounding up.
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(Self::bucket_upper_bound(i));
            }
        }
        Some(SATURATION_BOUND_US)
    }

    /// [`Histogram::quantile_value`] interpreted as microseconds.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        self.quantile_value(q).map(Duration::from_micros)
    }

    /// Folds another histogram's observations into this one.
    ///
    /// Used to merge per-shard or per-snapshot histograms into a registry
    /// total; bucket counts, overflow, and sums all add independently, so a
    /// merge is exactly equivalent to having recorded into one histogram.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.overflow
            .fetch_add(other.overflow.load(Ordering::Relaxed), Ordering::Relaxed);
        let other_sum = other.sum.load(Ordering::Relaxed);
        let mut sum = self.sum.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(other_sum);
            match self
                .sum
                .compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => sum = actual,
            }
        }
    }
}

/// What backs one rendered series.
enum Series {
    Counter(Arc<Counter>),
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    GaugeFn(Box<dyn Fn() -> f64 + Send + Sync>),
    Histogram(Arc<Histogram>),
}

/// One (label set, series) row inside a family.
struct Row {
    labels: Vec<(String, String)>,
    series: Series,
}

/// One metric family: a name, help text, a type, and its label rows.
struct Family {
    name: String,
    help: String,
    type_name: &'static str,
    rows: Vec<Row>,
}

/// A collection of metric families rendered together as one Prometheus
/// text-format payload.
///
/// Registration happens once at startup (series are pre-registered eagerly so
/// every series appears in a scrape from the first request, value zero);
/// recording happens through the returned `Arc`s without touching the
/// registry lock. Registering the same name again with a different label set
/// adds a row to the existing family; help text and type come from the first
/// registration.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn push(
        &self,
        name: &str,
        help: &str,
        type_name: &'static str,
        labels: &[(&str, &str)],
        series: Series,
    ) {
        let row = Row {
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
            series,
        };
        let mut families = self.families.lock().expect("metrics registry poisoned");
        if let Some(family) = families.iter_mut().find(|f| f.name == name) {
            debug_assert_eq!(
                family.type_name, type_name,
                "metric {name} registered with two types"
            );
            family.rows.push(row);
        } else {
            families.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                type_name,
                rows: vec![row],
            });
        }
    }

    /// Registers a counter series and returns its handle.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let counter = Arc::new(Counter::new());
        self.push(
            name,
            help,
            "counter",
            labels,
            Series::Counter(counter.clone()),
        );
        counter
    }

    /// Registers a counter series whose value is read from `f` at scrape
    /// time — for counters that already live elsewhere.
    pub fn counter_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.push(
            name,
            help,
            "counter",
            labels,
            Series::CounterFn(Box::new(f)),
        );
    }

    /// Registers a gauge series whose value is read from `f` at scrape time.
    pub fn gauge_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.push(name, help, "gauge", labels, Series::GaugeFn(Box::new(f)));
    }

    /// Registers a fresh histogram series and returns its handle.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let histogram = Arc::new(Histogram::new());
        self.register_histogram(name, help, labels, histogram.clone());
        histogram
    }

    /// Registers an existing histogram (e.g. one owned by a stats struct) as
    /// a series, so one set of buckets backs both the snapshot and the scrape.
    pub fn register_histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        histogram: Arc<Histogram>,
    ) {
        self.push(
            name,
            help,
            "histogram",
            labels,
            Series::Histogram(histogram),
        );
    }

    /// Renders every family in the Prometheus text exposition format.
    ///
    /// The payload ends with a `# EOF` line; the TCP protocol relies on that
    /// sentinel to frame this one multi-line reply.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        let families = self.families.lock().expect("metrics registry poisoned");
        for family in families.iter() {
            out.push_str("# HELP ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(&family.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(family.type_name);
            out.push('\n');
            for row in &family.rows {
                match &row.series {
                    Series::Counter(c) => {
                        render_simple(&mut out, &family.name, &row.labels, &c.get().to_string());
                    }
                    Series::CounterFn(f) => {
                        render_simple(&mut out, &family.name, &row.labels, &f().to_string());
                    }
                    Series::GaugeFn(f) => {
                        render_simple(&mut out, &family.name, &row.labels, &format_gauge(f()));
                    }
                    Series::Histogram(h) => {
                        render_histogram(&mut out, &family.name, &row.labels, h);
                    }
                }
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

fn format_gauge(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_simple(out: &mut String, name: &str, labels: &[(String, String)], value: &str) {
    out.push_str(name);
    render_labels(out, labels, None);
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn render_histogram(out: &mut String, name: &str, labels: &[(String, String)], h: &Histogram) {
    let counts = h.bucket_counts();
    let mut cumulative = 0u64;
    for (i, count) in counts.iter().enumerate().take(RENDER_BUCKETS) {
        cumulative += count;
        out.push_str(name);
        out.push_str("_bucket");
        let le = Histogram::bucket_upper_bound(i).to_string();
        render_labels(out, labels, Some(("le", &le)));
        out.push(' ');
        out.push_str(&cumulative.to_string());
        out.push('\n');
    }
    out.push_str(name);
    out.push_str("_bucket");
    render_labels(out, labels, Some(("le", "+Inf")));
    out.push(' ');
    out.push_str(&h.count().to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_sum");
    render_labels(out, labels, None);
    out.push(' ');
    out.push_str(&h.sum().to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_count");
    render_labels(out, labels, None);
    out.push(' ');
    out.push_str(&h.count().to_string());
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_read() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let h = Histogram::new();
        h.record(Duration::from_micros(0)); // bucket 0
        h.record(Duration::from_micros(1)); // bucket 1: [1, 2)
        h.record(Duration::from_micros(3)); // bucket 2: [2, 4)
        h.record(Duration::from_micros(1000)); // bucket 10: [512, 1024)
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 1);
        assert_eq!(counts[10], 1);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1004);
    }

    #[test]
    fn quantile_at_exact_power_of_two_boundaries() {
        // A value of exactly 2^k lands in bucket k+1 ([2^k, 2^(k+1))), so the
        // reported (conservative, upper-bound) quantile is 2^(k+1).
        for k in 0..10u32 {
            let h = Histogram::new();
            h.record_value(1 << k);
            assert_eq!(
                h.quantile_value(0.5),
                Some(u64::from(1u32 << (k + 1))),
                "value 2^{k} must report upper bound 2^{}",
                k + 1
            );
        }
        // One tick below the boundary stays in the lower bucket.
        let h = Histogram::new();
        h.record_value((1 << 8) - 1);
        assert_eq!(h.quantile_value(1.0), Some(1 << 8));
    }

    #[test]
    fn quantiles_partition_a_mixed_population() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record_value(3); // bucket 2, upper bound 4
        }
        for _ in 0..10 {
            h.record_value(1000); // bucket 10, upper bound 1024
        }
        assert_eq!(h.quantile_value(0.5), Some(4));
        assert_eq!(h.quantile_value(0.9), Some(4));
        assert_eq!(h.quantile_value(0.99), Some(1024));
        assert_eq!(h.quantile(0.99), Some(Duration::from_micros(1024)));
        // q is clamped: 0 reports the smallest occupied bucket, >1 acts as 1.
        assert_eq!(h.quantile_value(0.0), Some(4));
        assert_eq!(h.quantile_value(1.1), Some(1024));
        assert_eq!(Histogram::new().quantile_value(0.5), None);
    }

    #[test]
    fn saturation_path_counts_without_bucketing() {
        let h = Histogram::new();
        h.record_value(SATURATION_BOUND_US); // exactly at the bound: saturates
        h.record_value(SATURATION_BOUND_US - 1); // one below: top bucket
        h.record_value(u64::MAX); // far past: saturates, sum saturates
        assert_eq!(h.saturated(), 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.bucket_counts()[BUCKETS - 1], 1);
        // The saturated tail pins every quantile at the saturation bound once
        // the rank passes the bucketed observations.
        assert_eq!(h.quantile_value(1.0), Some(SATURATION_BOUND_US));
        assert_eq!(h.sum(), u64::MAX); // saturating add, no wraparound
    }

    #[test]
    fn merge_matches_recording_into_one_histogram() {
        let merged = Histogram::new();
        let single = Histogram::new();
        let parts = [Histogram::new(), Histogram::new(), Histogram::new()];
        let samples: [&[u64]; 3] = [&[0, 1, 7, 1 << 20], &[3, 3, 3], &[SATURATION_BOUND_US, 512]];
        for (part, values) in parts.iter().zip(samples.iter()) {
            for &v in *values {
                part.record_value(v);
                single.record_value(v);
            }
            merged.merge_from(part);
        }
        assert_eq!(merged.bucket_counts(), single.bucket_counts());
        assert_eq!(merged.saturated(), single.saturated());
        assert_eq!(merged.count(), single.count());
        assert_eq!(merged.sum(), single.sum());
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile_value(q), single.quantile_value(q));
        }
    }

    #[test]
    fn registry_renders_prometheus_text_with_eof_sentinel() {
        let registry = Registry::new();
        let hits = registry.counter("demo_total", "Demo counter", &[("outcome", "hit")]);
        let misses = registry.counter("demo_total", "Demo counter", &[("outcome", "miss")]);
        registry.counter_fn("derived_total", "Derived", &[], || 7);
        registry.gauge_fn("level", "Gauge", &[], || 2.5);
        let h = registry.histogram("lat_us", "Latency", &[("algo", "exactsim")]);
        hits.add(3);
        misses.inc();
        h.record(Duration::from_micros(5));
        let text = registry.render();
        assert!(text.contains("# HELP demo_total Demo counter\n"));
        assert!(text.contains("# TYPE demo_total counter\n"));
        assert!(text.contains("demo_total{outcome=\"hit\"} 3\n"));
        assert!(text.contains("demo_total{outcome=\"miss\"} 1\n"));
        assert!(text.contains("derived_total 7\n"));
        assert!(text.contains("level 2.5\n"));
        assert!(text.contains("# TYPE lat_us histogram\n"));
        // 5 µs lands in bucket 3 ([4, 8)): cumulative counts step at le="8".
        assert!(text.contains("lat_us_bucket{algo=\"exactsim\",le=\"4\"} 0\n"));
        assert!(text.contains("lat_us_bucket{algo=\"exactsim\",le=\"8\"} 1\n"));
        assert!(text.contains("lat_us_bucket{algo=\"exactsim\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("lat_us_sum{algo=\"exactsim\"} 5\n"));
        assert!(text.contains("lat_us_count{algo=\"exactsim\"} 1\n"));
        assert!(text.ends_with("# EOF\n"));
        // One HELP line per family, even with several label rows.
        assert_eq!(text.matches("# HELP demo_total").count(), 1);
    }

    #[test]
    fn histogram_exposition_folds_the_deep_tail_into_inf() {
        let registry = Registry::new();
        let h = registry.histogram("deep_us", "Deep", &[]);
        h.record_value(1 << 35); // beyond the rendered le range
        let text = registry.render();
        assert!(!text.contains("le=\"68719476736\"")); // 2^36 never rendered
        assert!(text.contains("deep_us_bucket{le=\"1073741824\"} 0\n")); // 2^30
        assert!(text.contains("deep_us_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("deep_us_count 1\n"));
    }
}
