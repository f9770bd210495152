//! The [`ShardBackend`] abstraction: one shard the router can talk to.
//!
//! A backend answers one canonical protocol line with one JSON reply line —
//! exactly the contract of the wire protocol itself, which is what makes the
//! two implementations interchangeable:
//!
//! * [`LocalShard`] wraps an in-process [`SimRankService`] and executes the
//!   line through [`exactsim_service::protocol`], the same code path a
//!   remote server would run.
//! * [`RemoteShard`] holds one lazily-(re)connected [`LineClient`] to an
//!   **unmodified** `simrank-serve --listen` process. Connect and read
//!   deadlines bound every interaction, so a dead shard costs the router a
//!   typed [`ShardError::Unavailable`] — never a hang.

use std::sync::Mutex;
use std::time::Duration;

use exactsim_service::net::{flush_shutdown_snapshot, LineClient};
use exactsim_service::protocol::{self, Outcome};
use exactsim_service::{AlgorithmKind, SimRankService};

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
pub struct RemoteShard {
    addr: String,
    connect_timeout: Duration,
    read_timeout: Duration,
    conn: Mutex<Option<LineClient>>,
}

impl RemoteShard {
    /// Default connect deadline.
    pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
    /// Default per-reply read deadline. Generous: a shard computing a cold
    /// column is slow but alive; only a genuinely wedged shard trips it.
    pub const READ_TIMEOUT: Duration = Duration::from_secs(60);

    /// A backend for the server at `addr` (e.g. `127.0.0.1:7878`) with the
    /// default deadlines. No connection is attempted until the first
    /// request.
    pub fn new(addr: impl Into<String>) -> Self {
        RemoteShard {
            addr: addr.into(),
            connect_timeout: Self::CONNECT_TIMEOUT,
            read_timeout: Self::READ_TIMEOUT,
            conn: Mutex::new(None),
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
        .map_err(|e| ShardError::Unavailable(format!("shard {}: {e}", self.addr)))
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
    fn is_write(line: &str) -> bool {
        matches!(
            line.split_whitespace().next().unwrap_or(""),
            "addedge" | "deledge" | "addnode" | "commit" | "save" | "snapshot" | "shutdown"
        )
    }
}

impl ShardBackend for RemoteShard {
    fn request(&self, line: &str) -> Result<String, ShardError> {
        let mut guard = self.conn.lock().expect("remote shard lock poisoned");
        // A cached connection may be stale (the shard restarted between
        // requests); for idempotent reads, one reconnect-and-retry heals
        // that. A *fresh* connection failing is the shard being down — fail
        // typed, fast, and without retrying. Writes are never re-sent at
        // all: after a failed round trip on the stale socket there is no
        // telling whether the shard received (and applied) the request
        // before the connection died, and a silent re-send could
        // double-apply it — see [`RemoteShard::is_write`].
        let had_conn = guard.is_some();
        if guard.is_none() {
            *guard = Some(self.connect()?);
        }
        let attempt = guard
            .as_mut()
            .expect("connection just established")
            .round_trip(line);
        match attempt {
            Ok(reply) => Ok(reply),
            Err(first) => {
                *guard = None;
                if !had_conn || Self::is_write(line) {
                    return Err(ShardError::Unavailable(format!(
                        "shard {}: {first}",
                        self.addr
                    )));
                }
                let mut fresh = self.connect()?;
                match fresh.round_trip(line) {
                    Ok(reply) => {
                        *guard = Some(fresh);
                        Ok(reply)
                    }
                    Err(second) => Err(ShardError::Unavailable(format!(
                        "shard {}: {second}",
                        self.addr
                    ))),
                }
            }
        }
    }

    fn describe(&self) -> String {
        self.addr.clone()
    }

    fn drain(&self) {
        // Drop the cached connection; the remote process outlives us.
        *self.conn.lock().expect("remote shard lock poisoned") = None;
    }
}
