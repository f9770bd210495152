//! TCP front-end: the [`crate::protocol`] grammar served over real sockets.
//!
//! [`serve`] binds a listener and spawns an acceptor thread; each accepted
//! connection gets its own handler thread (plain `std::net` blocking I/O —
//! the offline build has no async runtime), bounded by a counting semaphore
//! of `max_conns` permits. A connection that arrives while all permits are
//! held is answered with one `{"error", "code": "capacity"}` line and closed
//! (load-shedding at accept time, so a slow client can never wedge the
//! acceptor). Each request runs on its connection's handler thread. All
//! connections multiplex onto the **one shared** [`crate::SimRankService`]:
//! the result cache, in-flight dedup, and epoch refresh are common across
//! every socket and the stdin path alike. Connection, request and byte
//! counts land in the host's [`NetMetrics`] series, which both `metrics`
//! and `stats` read.
//!
//! ## Framing
//!
//! Newline-framed both ways: one request per `\n`-terminated line, one JSON
//! object per reply line (`help` answers `{"help": ...}` over TCP). Request
//! lines are capped at 64 KiB; an over-long line is answered with a
//! `bad_request` error and the connection is closed. The one multi-line
//! reply is `metrics` (Prometheus text exposition): its payload is streamed
//! verbatim and terminated by a `# EOF` line, which
//! [`LineClient::round_trip_multi`] uses as the framing sentinel.
//!
//! ## Shutdown
//!
//! Graceful shutdown is triggered by the `shutdown` protocol command (from
//! any connection) or by [`NetServerHandle::request_shutdown`] (the binary
//! wires SIGTERM/SIGINT to it). The acceptor stops accepting, every handler
//! finishes the request it is processing and closes (handlers poll the
//! shutdown flag between reads on a 100 ms read timeout), and — when the
//! backing store is durable — the WAL is folded into a fresh snapshot before
//! [`NetServerHandle::join`] returns, so a clean stop leaves nothing to
//! replay on the next boot.

mod client;
mod server;
pub mod signal;

pub use client::LineClient;
pub use server::{
    flush_shutdown_snapshot, serve, NetMetrics, NetOptions, NetServerHandle, ProtocolHost,
};
