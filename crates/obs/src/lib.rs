//! # exactsim-obs
//!
//! Zero-dependency observability substrate for the ExactSim serving stack.
//!
//! The build environment is offline, so the usual `tracing` / `prometheus` /
//! `log` crates are unavailable; this crate provides the minimal slice of
//! each that a query-under-update serving system actually needs, shaped so
//! every other crate in the workspace can depend on it without pulling in
//! anything else:
//!
//! | module | role |
//! |---|---|
//! | [`fault`] | deterministic fault-injection registry (named sites, scripted triggers) |
//! | [`metrics`] | labeled counter/gauge/histogram registry + Prometheus text exposition |
//! | [`trace`] | thread-local tracing spans and drop-guard stage timers |
//! | [`log`] | leveled operational logger (text or one-JSON-object-per-line) |
//! | [`slowlog`] | fixed-capacity slow-query ring buffer with a runtime threshold |
//! | [`json`] | the one shared JSON string-escaping helper |
//!
//! Design constraints, in priority order:
//!
//! 1. **Hot-path cost is a few relaxed atomics.** Recording a counter or a
//!    histogram observation never locks, never allocates; the registry lock
//!    is touched only at registration (startup) and scrape time.
//! 2. **Series exist before traffic.** Everything is registered eagerly so a
//!    scrape taken before the first request already shows every series at
//!    zero — monitoring can alert on absence without a warm-up race.
//! 3. **One histogram primitive.** The power-of-two bucketed
//!    [`metrics::Histogram`] backs snapshots, quantiles, and the Prometheus
//!    `_bucket` series alike, so no number is computed two ways.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod fault;
pub mod json;
pub mod log;
pub mod metrics;
pub mod slowlog;
pub mod trace;

pub use json::escape_json;
pub use log::{FieldValue, Level, LogFormat};
pub use metrics::{Counter, Histogram, Registry, SATURATION_BOUND_US};
pub use slowlog::{SlowLog, SlowQueryRecord};
pub use trace::{SpanRecord, TraceReport};
