//! Lightweight per-request tracing: a thread-local span buffer plus
//! monotonic stage timers.
//!
//! Tracing is opt-in per request: a front end calls [`begin`], the layers it
//! calls into record stages with [`stage`] (a drop guard), and [`finish`]
//! collects the spans. When no trace is active the cost of a stage guard is
//! one `Instant::now()` pair, one histogram record, and one thread-local
//! flag check — cheap enough to leave on unconditionally, which is what the
//! serving stack does: stage histograms populate on every request, spans
//! only while a `trace <request>` is being answered.
//!
//! The buffer is thread-local on purpose: the serving stack executes one
//! request per thread end to end (a connection handler or the REPL thread),
//! so no cross-thread propagation is needed, and an
//! abandoned trace (e.g. a panicking request) is simply overwritten by the
//! next [`begin`] on that thread.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use crate::metrics::Histogram;

/// One completed stage inside a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name (static: stage sets are fixed at compile time).
    pub name: &'static str,
    /// Microseconds from the start of the trace to the start of this stage.
    pub start_us: u64,
    /// Stage duration in microseconds.
    pub dur_us: u64,
}

/// A finished trace: total wall time plus the recorded stages in
/// completion order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceReport {
    /// Wall time from [`begin`] to [`finish`], in microseconds.
    pub total_us: u64,
    /// Completed spans, in the order their guards dropped.
    pub spans: Vec<SpanRecord>,
}

struct ActiveTrace {
    started: Instant,
    spans: Vec<SpanRecord>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Starts a trace on this thread, replacing any abandoned one.
pub fn begin() {
    ACTIVE.with(|cell| {
        *cell.borrow_mut() = Some(ActiveTrace {
            started: Instant::now(),
            spans: Vec::with_capacity(8),
        });
    });
}

/// Whether a trace is active on this thread.
#[must_use]
pub fn is_active() -> bool {
    ACTIVE.with(|cell| cell.borrow().is_some())
}

/// Ends the active trace and returns its report, or `None` if no trace was
/// active on this thread.
pub fn finish() -> Option<TraceReport> {
    ACTIVE.with(|cell| {
        cell.borrow_mut().take().map(|active| TraceReport {
            total_us: duration_us(active.started.elapsed()),
            spans: active.spans,
        })
    })
}

/// Records one completed span into the active trace (no-op otherwise).
///
/// `started_at` anchors the span on the trace's own timeline; a span that
/// started before [`begin`] clamps to offset zero.
pub fn record(name: &'static str, started_at: Instant, duration: Duration) {
    ACTIVE.with(|cell| {
        if let Some(active) = cell.borrow_mut().as_mut() {
            active.spans.push(SpanRecord {
                name,
                start_us: duration_us(started_at.saturating_duration_since(active.started)),
                dur_us: duration_us(duration),
            });
        }
    });
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Drop guard timing one stage.
///
/// On drop it records the elapsed time into the optional histogram (always)
/// and into the active trace (only if one is running). Construct with
/// [`stage`].
pub struct StageTimer<'a> {
    name: &'static str,
    histogram: Option<&'a Histogram>,
    started: Instant,
}

/// Starts timing a stage; the returned guard records on drop.
///
/// ```
/// use exactsim_obs::metrics::Histogram;
/// use exactsim_obs::trace;
///
/// let hist = Histogram::new();
/// trace::begin();
/// {
///     let _timer = trace::stage("kernel", Some(&hist));
///     // ... stage work ...
/// }
/// let report = trace::finish().unwrap();
/// assert_eq!(report.spans.len(), 1);
/// assert_eq!(report.spans[0].name, "kernel");
/// assert_eq!(hist.count(), 1);
/// ```
#[must_use]
pub fn stage<'a>(name: &'static str, histogram: Option<&'a Histogram>) -> StageTimer<'a> {
    StageTimer {
        name,
        histogram,
        started: Instant::now(),
    }
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        let elapsed = self.started.elapsed();
        if let Some(histogram) = self.histogram {
            histogram.record(elapsed);
        }
        record(self.name, self.started, elapsed);
    }
}

/// Renders spans as a JSON array (stage names are static identifiers, so no
/// escaping is needed).
#[must_use]
pub fn spans_to_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
            span.name, span.start_us, span.dur_us
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_collect_only_while_a_trace_is_active() {
        assert!(!is_active());
        assert!(finish().is_none());
        // No trace: stage guard still records into the histogram.
        let hist = Histogram::new();
        drop(stage("idle", Some(&hist)));
        assert_eq!(hist.count(), 1);
        assert!(finish().is_none());

        begin();
        assert!(is_active());
        drop(stage("parse", None));
        drop(stage("kernel", Some(&hist)));
        let report = finish().expect("trace was active");
        assert!(!is_active());
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.spans[0].name, "parse");
        assert_eq!(report.spans[1].name, "kernel");
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn begin_replaces_an_abandoned_trace() {
        begin();
        drop(stage("stale", None));
        begin(); // e.g. the previous request panicked mid-trace
        drop(stage("fresh", None));
        let report = finish().unwrap();
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].name, "fresh");
    }

    #[test]
    fn manual_record_anchors_on_the_trace_timeline() {
        begin();
        let start = Instant::now();
        record("manual", start, Duration::from_micros(42));
        let report = finish().unwrap();
        assert_eq!(report.spans[0].dur_us, 42);
    }

    #[test]
    fn spans_render_as_json() {
        let spans = vec![
            SpanRecord {
                name: "cache",
                start_us: 1,
                dur_us: 2,
            },
            SpanRecord {
                name: "kernel",
                start_us: 3,
                dur_us: 400,
            },
        ];
        assert_eq!(
            spans_to_json(&spans),
            "[{\"name\":\"cache\",\"start_us\":1,\"dur_us\":2},\
             {\"name\":\"kernel\",\"start_us\":3,\"dur_us\":400}]"
        );
        assert_eq!(spans_to_json(&[]), "[]");
    }
}
