//! The [`ShardBackend`] abstraction: one shard the router can talk to.
//!
//! A backend answers one canonical protocol line with one JSON reply line —
//! exactly the contract of the wire protocol itself, which is what makes the
//! two implementations interchangeable:
//!
//! * [`LocalShard`] wraps an in-process [`SimRankService`] and executes the
//!   line through [`exactsim_service::protocol`], the same code path a
//!   remote server would run.
//! * [`RemoteShard`] speaks to an **unmodified** `simrank-serve --listen`
//!   process over a stack of idle [`LineClient`] connections: a request
//!   takes one (or opens one) and runs its round trip without holding any
//!   lock, so no request waits for another. Connect and read deadlines bound
//!   every interaction, and `ping` has a short one of its own, so a dead or
//!   wedged shard costs the router a typed [`ShardError::Unavailable`] —
//!   never a hang.

use std::io;
use std::sync::Mutex;
use std::time::Duration;

use exactsim_service::net::{flush_shutdown_snapshot, LineClient};
use exactsim_service::protocol::{self, codes, Outcome};
use exactsim_service::{AlgorithmKind, SimRankService};

use crate::wire;

/// Why a shard could not answer a request.
#[derive(Clone, Debug)]
pub enum ShardError {
    /// The shard cannot be reached (connection refused, timed out, dropped
    /// mid-request). Surfaced to clients as the `shard_unavailable` code.
    Unavailable(String),
    /// The shard answered, but with something the router cannot use (a
    /// non-protocol reply shape). Surfaced as an `internal` error.
    Malformed(String),
}

impl ShardError {
    /// Human-readable detail for the error reply.
    pub fn message(&self) -> &str {
        match self {
            ShardError::Unavailable(m) | ShardError::Malformed(m) => m,
        }
    }
}

/// One shard the router can scatter to. Implementations must be cheap to
/// call concurrently from the router's per-request fan-out threads.
pub trait ShardBackend: Send + Sync + 'static {
    /// Answers one canonical request line with one JSON reply line. Protocol
    /// rejections (`{"error", "code"}`) are `Ok` — they are answers; `Err`
    /// means the shard itself could not be asked.
    fn request(&self, line: &str) -> Result<String, ShardError>;

    /// Where this shard lives, for logs and the router's `stats` reply.
    fn describe(&self) -> String;

    /// Runs when the router drains. Local shards flush their durable
    /// snapshot; remote shards are left running — their own operator (or the
    /// CI harness) decides when each process stops.
    fn drain(&self);
}

/// An in-process shard: a full [`SimRankService`] replica owned by the
/// router process.
pub struct LocalShard {
    service: SimRankService,
}

impl LocalShard {
    /// Wraps a service as a shard backend.
    pub fn new(service: SimRankService) -> Self {
        LocalShard { service }
    }
}

impl ShardBackend for LocalShard {
    fn request(&self, line: &str) -> Result<String, ShardError> {
        // The router canonicalizes every line before sending it (explicit
        // algorithm on read verbs), so the default algorithm below is never
        // consulted — it only keeps the shared entry point total.
        match protocol::serve_line(&self.service, AlgorithmKind::ExactSim, line) {
            Some(Outcome::Reply(reply)) => Ok(reply),
            Some(other) => Err(ShardError::Malformed(format!(
                "local shard answered `{line}` with a non-reply outcome: {other:?}"
            ))),
            None => Err(ShardError::Malformed(format!(
                "local shard ignored the line `{line}`"
            ))),
        }
    }

    fn describe(&self) -> String {
        "local".to_string()
    }

    fn drain(&self) {
        flush_shutdown_snapshot(&self.service);
    }
}

/// A remote shard: one `simrank-serve --listen` process, spoken to over the
/// unmodified TCP line protocol.
///
/// Connections live on a stack of idle ones whose lock is held only to pop
/// and push. A request pops a connection, or opens one when none is idle,
/// runs its round trip unlocked, and pushes the connection back only after
/// a clean reply, so the stack never holds more connections than the
/// shard's peak number of concurrent requests, and a connection with a
/// reply still owed on it is never reused.
pub struct RemoteShard {
    addr: String,
    connect_timeout: Duration,
    read_timeout: Duration,
    idle: Mutex<Vec<LineClient>>,
}

impl RemoteShard {
    /// Default connect deadline.
    pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
    /// Default per-reply read deadline. Generous: a shard computing a cold
    /// column is slow but alive; only a genuinely wedged shard trips it.
    pub const READ_TIMEOUT: Duration = Duration::from_secs(60);
    /// Read deadline of a `ping`, the health prober's verb, when it is
    /// shorter than the read deadline. A `ping` computes nothing, so a
    /// shard that cannot answer one within this is wedged, and the breaker
    /// learns it within a few probe rounds instead of read deadlines.
    pub const PING_TIMEOUT: Duration = Duration::from_secs(1);

    /// A backend for the server at `addr` (e.g. `127.0.0.1:7878`) with the
    /// default deadlines. No connection is attempted until the first
    /// request.
    pub fn new(addr: impl Into<String>) -> Self {
        RemoteShard {
            addr: addr.into(),
            connect_timeout: Self::CONNECT_TIMEOUT,
            read_timeout: Self::READ_TIMEOUT,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Overrides both deadlines (tests use tight ones).
    pub fn with_timeouts(mut self, connect: Duration, read: Duration) -> Self {
        self.connect_timeout = connect;
        self.read_timeout = read;
        self
    }

    fn connect(&self) -> Result<LineClient, ShardError> {
        LineClient::connect_with_timeout(
            self.addr.as_str(),
            self.connect_timeout,
            Some(self.read_timeout),
        )
        .map_err(|e| self.unavailable(e))
    }

    fn unavailable(&self, e: impl std::fmt::Display) -> ShardError {
        ShardError::Unavailable(format!("shard {}: {e}", self.addr))
    }

    /// The idle stack. Every update under the lock is one push, pop or take,
    /// so a stack poisoned by a panicking holder is still valid.
    fn idle(&self) -> std::sync::MutexGuard<'_, Vec<LineClient>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drops every idle connection (they close outside the lock).
    fn drop_idle(&self) {
        let stale = std::mem::take(&mut *self.idle());
        drop(stale);
    }

    /// Verbs that mutate shard state. A failed round trip is ambiguous —
    /// the request may have been delivered and applied with only the reply
    /// lost — so these are attempted at most once per
    /// [`ShardBackend::request`] call: a silent re-send could double-apply
    /// (a `commit` whose reply was lost would run again as a second
    /// commit). Reads are idempotent against a published epoch and safe to
    /// re-ask; any retry policy beyond the single stale-socket reconnect
    /// lives in the router's breaker/failover layer, where it is
    /// observable.
    fn is_write(verb: &str) -> bool {
        matches!(
            verb,
            "addedge" | "deledge" | "addnode" | "commit" | "save" | "snapshot" | "shutdown"
        )
    }

    /// One round trip on `conn` under the read deadline `deadline`, which
    /// is restored to the connection's own afterwards.
    fn exchange(
        &self,
        conn: &mut LineClient,
        line: &str,
        deadline: Duration,
    ) -> io::Result<String> {
        if deadline == self.read_timeout {
            return conn.round_trip(line);
        }
        conn.set_read_timeout(Some(deadline))?;
        let reply = conn.round_trip(line)?;
        conn.set_read_timeout(Some(self.read_timeout))?;
        Ok(reply)
    }

    /// The reply of a round trip on a connection this request opened. A
    /// listener past its `max_conns` answers a new connection with one
    /// `capacity` error line and closes it: that line is a refusal, not the
    /// shard's answer, so the connection is not pooled and the request
    /// fails as unavailable (a read then fails over).
    fn fresh_reply(&self, conn: LineClient, reply: String) -> Result<String, ShardError> {
        if wire::error_code(&reply) == Some(codes::CAPACITY) {
            return Err(self.unavailable(format!("refused the connection: {reply}")));
        }
        self.idle().push(conn);
        Ok(reply)
    }
}

/// A read deadline that expired: the shard is slow or wedged, not gone, so
/// a fresh socket would only wait as long again.
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

impl ShardBackend for RemoteShard {
    fn request(&self, line: &str) -> Result<String, ShardError> {
        let verb = line.split_whitespace().next().unwrap_or("");
        let deadline = if verb == "ping" {
            Self::PING_TIMEOUT.min(self.read_timeout)
        } else {
            self.read_timeout
        };
        let pooled = self.idle().pop();
        let reused = pooled.is_some();
        let mut conn = match pooled {
            Some(conn) => conn,
            None => self.connect()?,
        };
        let first = match self.exchange(&mut conn, line, deadline) {
            Ok(reply) if reused => {
                self.idle().push(conn);
                return Ok(reply);
            }
            Ok(reply) => return self.fresh_reply(conn, reply),
            Err(e) => e,
        };
        // The failed connection is dropped here, and with it every idle
        // one: if the shard restarted they are all stale, and dropping them
        // makes the restart cost one failed round trip, not one per pooled
        // socket. A reused connection may have gone stale between requests
        // while the shard stayed up, so a read retries once on a fresh
        // connection; a fresh connection failing means the shard is down.
        // A timed-out read is not retried: the shard is slow or wedged, and
        // would keep a fresh socket waiting as long. Writes are never
        // re-sent at all: after a failed round trip there is no telling
        // whether the shard received (and applied) the request before the
        // connection died, and a silent re-send could double-apply it — see
        // [`RemoteShard::is_write`].
        drop(conn);
        self.drop_idle();
        if !reused || Self::is_write(verb) || timed_out(&first) {
            return Err(self.unavailable(first));
        }
        let mut fresh = self.connect()?;
        match self.exchange(&mut fresh, line, deadline) {
            Ok(reply) => self.fresh_reply(fresh, reply),
            Err(second) => Err(self.unavailable(second)),
        }
    }

    fn describe(&self) -> String {
        self.addr.clone()
    }

    fn drain(&self) {
        // Drop the idle connections; the remote process outlives us.
        self.drop_idle();
    }
}
