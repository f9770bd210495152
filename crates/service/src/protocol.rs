//! The `simrank-serve` wire protocol, shared by every front-end.
//!
//! One request per newline-terminated line; every request is answered with
//! exactly one JSON object on one line (the only exceptions: `help`, whose
//! rendering is front-end specific, and `quit`, which just closes). The same
//! grammar is spoken on stdin (the original REPL), over TCP
//! ([`crate::net`]), and by `simrank-client` — extracting it here is what
//! lets all of them share one parser and one error-code vocabulary.
//!
//! ```text
//! request   = query | topk | addedge | deledge | addnode
//!           | commit | epoch | ping | save | stats | metrics | slowlog
//!           | trace | help | quit | shutdown
//! query     = "query" node [algo]
//! topk      = "topk" node k [algo]
//! addedge   = "addedge" node node
//! deledge   = "deledge" node node
//! addnode   = "addnode" [count]       count = u64 (>= 1, default 1)
//! slowlog   = "slowlog" [n]
//! trace     = "trace" (query | topk | commit)
//! node      = u32        k = usize      algo = "exactsim" | "prsim" | "mc"
//! ```
//!
//! A router speaks the same grammar to its shards, so an unmodified
//! `simrank-serve` process can act as a remote shard.
//!
//! `metrics` is the one reply that spans multiple lines (Prometheus text
//! exposition is inherently line-oriented): its payload is terminated by a
//! `# EOF` line so stream clients can frame it.
//!
//! Rejected requests never panic and never close the connection; they answer
//! `{"error": "<message>", "code": "<code>"}` with a stable machine-readable
//! code from the table below.
//!
//! | code | meaning |
//! |---|---|
//! | [`codes::BAD_REQUEST`] | malformed request line (usage errors, bad numbers) |
//! | [`codes::UNKNOWN_COMMAND`] | first word is not a command |
//! | [`codes::UNKNOWN_ALGORITHM`] | an algorithm name the service does not know |
//! | [`codes::OUT_OF_RANGE`] | node id outside the graph's id space |
//! | [`codes::ALGORITHM`] | the algorithm rejected the request for another reason |
//! | [`codes::NOT_DURABLE`] | `save` on a store without a `--data-dir` |
//! | [`codes::IO`] | persistence I/O failure |
//! | [`codes::STORAGE`] | store-level failure (corruption classes, lock) |
//! | [`codes::INTERNAL`] | the serving machinery itself failed |
//! | [`codes::CAPACITY`] | TCP listener at `--max-conns`, connection refused |
//! | [`codes::SHARD_UNAVAILABLE`] | a router could not reach a shard backend |

use std::fmt;

use exactsim::SimRankError;

use crate::error::ServiceError;
use crate::metrics::{STAGE_PARSE, STAGE_SERIALIZE};
use crate::response::AlgorithmKind;
use crate::service::SimRankService;
use exactsim_obs::json::escape_json;
use exactsim_obs::trace;
use exactsim_store::StoreError;

/// The stable machine-readable error codes of `{"error","code"}` replies.
pub mod codes {
    /// Malformed request line: usage errors, unparsable numbers.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The first word of the line is not a protocol command.
    pub const UNKNOWN_COMMAND: &str = "unknown_command";
    /// An algorithm name the service does not serve.
    pub const UNKNOWN_ALGORITHM: &str = "unknown_algorithm";
    /// A node id outside the graph's id space.
    pub const OUT_OF_RANGE: &str = "out_of_range";
    /// The algorithm rejected the request for a non-range reason.
    pub const ALGORITHM: &str = "algorithm";
    /// `save` was asked of an in-memory (no `--data-dir`) store.
    pub const NOT_DURABLE: &str = "not_durable";
    /// Persistence I/O failure underneath a durable store.
    pub const IO: &str = "io";
    /// Store-level failure: recovery-time corruption classes, WAL lock, …
    pub const STORAGE: &str = "storage";
    /// The serving machinery itself failed (a panicked computation) —
    /// never caused by request contents.
    pub const INTERNAL: &str = "internal";
    /// The TCP listener is at its `--max-conns` bound; the connection is
    /// answered with this error and closed without serving requests.
    pub const CAPACITY: &str = "capacity";
    /// A sharded router could not reach a shard backend (connection refused,
    /// timed out, or dropped mid-request). Always a *typed, prompt* reply —
    /// a down shard must never turn into a hang. Only routers emit it; a
    /// plain single-process server never does.
    pub const SHARD_UNAVAILABLE: &str = "shard_unavailable";
}

/// One parsed protocol request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `query <node> [algo]` — full single-source column.
    Query {
        /// Query source node.
        node: u32,
        /// Explicit algorithm, or `None` for the server default.
        algo: Option<AlgorithmKind>,
    },
    /// `topk <node> <k> [algo]` — the k most similar nodes.
    TopK {
        /// Query source node.
        node: u32,
        /// How many results.
        k: usize,
        /// Explicit algorithm, or `None` for the server default.
        algo: Option<AlgorithmKind>,
    },
    /// `addedge <u> <v>` — stage the insertion of edge `u -> v`.
    AddEdge {
        /// Edge tail.
        u: u32,
        /// Edge head.
        v: u32,
    },
    /// `deledge <u> <v>` — stage the deletion of edge `u -> v`.
    DelEdge {
        /// Edge tail.
        u: u32,
        /// Edge head.
        v: u32,
    },
    /// `addnode [count]` — stage the growth of the node-id space by `count`
    /// (default 1) fresh, initially isolated nodes at the top of the id
    /// space. Staged edges may reference the new ids immediately; the growth
    /// publishes with the next `commit`.
    AddNode {
        /// How many node ids to add (>= 1).
        count: u64,
    },
    /// `commit` — publish staged updates as a new graph epoch.
    Commit,
    /// `epoch` — current epoch plus pending update counts.
    Epoch,
    /// `ping` — liveness probe. Answers from already-published state (one
    /// atomic epoch read), never touches the store or the commit barrier, so
    /// it stays cheap and non-blocking even mid-commit — which is exactly
    /// what a health checker needs: a hung `ping` means the process is sick,
    /// not that a commit is in flight.
    Ping,
    /// `save` (alias `snapshot`) — fold the WAL into a fresh snapshot.
    Save,
    /// `stats` — serving counters as one JSON line.
    Stats,
    /// `metrics` — every registered series in Prometheus text exposition
    /// format. The only multi-line reply; terminated by a `# EOF` line.
    Metrics,
    /// `slowlog [n]` — the newest `n` (default: all retained) slow-query
    /// records, newest first.
    SlowLog {
        /// How many records to return (`None` = all retained).
        n: Option<usize>,
    },
    /// `trace <request>` — execute the inner request with per-stage tracing
    /// enabled and reply with the stage breakdown plus the inner reply. Only
    /// `query`, `topk`, and `commit` run instrumented paths worth tracing.
    Trace {
        /// The canonical wire line of the inner request.
        line: String,
    },
    /// `help` — the protocol summary (rendering is front-end specific).
    Help,
    /// `quit` (alias `exit`) — close this session; the server keeps running.
    Quit,
    /// `shutdown` — gracefully stop the *whole server*: stop accepting,
    /// drain in-flight work, flush a snapshot when the store is durable.
    Shutdown,
}

impl Request {
    /// The canonical wire line for this request (no trailing newline).
    /// Parsing the result always round-trips: `parse_line(&r.to_line())`
    /// yields `r` again.
    pub fn to_line(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Query { node, algo: None } => write!(f, "query {node}"),
            Request::Query {
                node,
                algo: Some(a),
            } => write!(f, "query {node} {a}"),
            Request::TopK {
                node,
                k,
                algo: None,
            } => write!(f, "topk {node} {k}"),
            Request::TopK {
                node,
                k,
                algo: Some(a),
            } => write!(f, "topk {node} {k} {a}"),
            Request::AddEdge { u, v } => write!(f, "addedge {u} {v}"),
            Request::DelEdge { u, v } => write!(f, "deledge {u} {v}"),
            Request::AddNode { count } => write!(f, "addnode {count}"),
            Request::Commit => f.write_str("commit"),
            Request::Epoch => f.write_str("epoch"),
            Request::Ping => f.write_str("ping"),
            Request::Save => f.write_str("save"),
            Request::Stats => f.write_str("stats"),
            Request::Metrics => f.write_str("metrics"),
            Request::SlowLog { n: None } => f.write_str("slowlog"),
            Request::SlowLog { n: Some(n) } => write!(f, "slowlog {n}"),
            Request::Trace { line } => write!(f, "trace {line}"),
            Request::Help => f.write_str("help"),
            Request::Quit => f.write_str("quit"),
            Request::Shutdown => f.write_str("shutdown"),
        }
    }
}

/// A protocol-level failure: a stable machine-readable code (see [`codes`])
/// plus a human message. Every rejected request becomes one
/// `{"error": ..., "code": ...}` reply line; a server never panics on
/// request contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable description (JSON-escaped on the wire).
    pub message: String,
}

impl ProtoError {
    /// A [`codes::BAD_REQUEST`] error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ProtoError {
            code: codes::BAD_REQUEST,
            message: message.into(),
        }
    }

    /// The one-line `{"error","code"}` JSON reply for this failure.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"error\":\"{}\",\"code\":\"{}\"}}",
            escape_json(&self.message),
            self.code
        )
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.message, self.code)
    }
}

impl From<ServiceError> for ProtoError {
    fn from(e: ServiceError) -> Self {
        let code = match &e {
            ServiceError::Algorithm(SimRankError::SourceOutOfRange { .. }) => codes::OUT_OF_RANGE,
            ServiceError::Algorithm(_) => codes::ALGORITHM,
            ServiceError::UnknownAlgorithm(_) => codes::UNKNOWN_ALGORITHM,
            ServiceError::InvalidRequest(_) => codes::BAD_REQUEST,
            ServiceError::Internal(_) => codes::INTERNAL,
        };
        ProtoError {
            code,
            message: e.to_string(),
        }
    }
}

impl From<StoreError> for ProtoError {
    fn from(e: StoreError) -> Self {
        let code = match &e {
            StoreError::NodeOutOfRange { .. } => codes::OUT_OF_RANGE,
            StoreError::SelfLoop(_) => codes::BAD_REQUEST,
            StoreError::NodeSpaceExhausted { .. } => codes::BAD_REQUEST,
            StoreError::NotDurable => codes::NOT_DURABLE,
            StoreError::Io { .. } => codes::IO,
            // Recovery-time corruption classes; a running server only sees
            // these if the disk goes bad underneath it.
            StoreError::SnapshotCorrupt { .. }
            | StoreError::WalCorrupt { .. }
            | StoreError::PageCorrupt { .. }
            | StoreError::PoolExhausted { .. }
            | StoreError::UnsupportedVersion { .. }
            | StoreError::NoSnapshot { .. }
            | StoreError::StoreExists { .. }
            | StoreError::Locked { .. }
            | StoreError::InitFailed(_) => codes::STORAGE,
        };
        ProtoError {
            code,
            message: e.to_string(),
        }
    }
}

/// The protocol command summary, shown by `help` (front-ends decide where:
/// the stdin REPL prints it to stderr, the TCP path replies `{"help": ...}`).
pub const PROTOCOL_HELP: &str = "\
query <node> [algo]      full single-source column (scores truncated to 32)
topk <node> <k> [algo]   top-k most similar nodes
addedge <u> <v>          stage the insertion of edge u -> v
deledge <u> <v>          stage the deletion of edge u -> v
addnode [count]          stage count (default 1) new isolated node ids
commit                   publish staged updates as a new graph epoch
epoch                    current epoch + pending update counts
ping                     liveness probe; replies from published state only
                         (no store access, no commit barrier)
save | snapshot          fold the WAL into a fresh snapshot file
stats                    serving counters (hit rate, p50/p99, epoch,
                         connections, durability state) as JSON
metrics                  all series in Prometheus text format (multi-line,
                         terminated by a `# EOF` line)
slowlog [n]              newest n slow-query records (default all retained)
trace <request>          run a query/topk/commit with per-stage tracing and
                         reply with the stage breakdown
help                     this summary
quit                     close this session (EOF too); server keeps running
shutdown                 gracefully stop the server: drain in-flight work,
                         flush a snapshot when durable";

/// Parses one request line. Returns `Ok(None)` for lines the protocol
/// ignores (empty lines and `#` comments), `Err` for malformed input.
pub fn parse_line(line: &str) -> Result<Option<Request>, ProtoError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let parts: Vec<&str> = line.split_whitespace().collect();
    let node_arg = |s: &&str| -> Result<u32, ProtoError> {
        s.parse::<u32>()
            .map_err(|_| ProtoError::bad_request(format!("bad node id `{s}`")))
    };
    let algo_arg = |idx: usize| -> Result<Option<AlgorithmKind>, ProtoError> {
        match parts.get(idx) {
            Some(name) => name.parse().map(Some).map_err(ProtoError::from),
            None => Ok(None),
        }
    };
    let arity = |max: usize, usage: &str| -> Result<(), ProtoError> {
        if parts.len() > max {
            Err(ProtoError::bad_request(format!("usage: {usage}")))
        } else {
            Ok(())
        }
    };
    let request = match parts[0] {
        "query" => {
            arity(3, "query <node> [algo]")?;
            let node = parts
                .get(1)
                .ok_or_else(|| ProtoError::bad_request("usage: query <node> [algo]"))
                .and_then(node_arg)?;
            Request::Query {
                node,
                algo: algo_arg(2)?,
            }
        }
        "topk" => {
            arity(4, "topk <node> <k> [algo]")?;
            let (node, k) = match (parts.get(1), parts.get(2)) {
                (Some(node), Some(k)) => {
                    let node = node_arg(node)?;
                    let k = k
                        .parse::<usize>()
                        .map_err(|_| ProtoError::bad_request(format!("bad k `{k}`")))?;
                    (node, k)
                }
                _ => return Err(ProtoError::bad_request("usage: topk <node> <k> [algo]")),
            };
            Request::TopK {
                node,
                k,
                algo: algo_arg(3)?,
            }
        }
        "addedge" | "deledge" => {
            arity(3, "addedge|deledge <u> <v>")?;
            let (u, v) = match (parts.get(1), parts.get(2)) {
                (Some(u), Some(v)) => (node_arg(u)?, node_arg(v)?),
                _ => {
                    return Err(ProtoError::bad_request(format!(
                        "usage: {} <u> <v>",
                        parts[0]
                    )))
                }
            };
            if parts[0] == "addedge" {
                Request::AddEdge { u, v }
            } else {
                Request::DelEdge { u, v }
            }
        }
        "addnode" => {
            arity(2, "addnode [count]")?;
            let count = match parts.get(1) {
                Some(count) => count
                    .parse::<u64>()
                    .map_err(|_| ProtoError::bad_request(format!("bad count `{count}`")))?,
                None => 1,
            };
            if count == 0 {
                return Err(ProtoError::bad_request("count must be >= 1"));
            }
            Request::AddNode { count }
        }
        // Bare commands are as strict as the argument-taking ones: `commit 5`
        // or `shutdown now` is a typo to reject, not a request to execute.
        "commit" => {
            arity(1, "commit")?;
            Request::Commit
        }
        "epoch" => {
            arity(1, "epoch")?;
            Request::Epoch
        }
        "ping" => {
            arity(1, "ping")?;
            Request::Ping
        }
        "save" | "snapshot" => {
            arity(1, "save")?;
            Request::Save
        }
        "stats" => {
            arity(1, "stats")?;
            Request::Stats
        }
        "metrics" => {
            arity(1, "metrics")?;
            Request::Metrics
        }
        "slowlog" => {
            arity(2, "slowlog [n]")?;
            let n = match parts.get(1) {
                Some(n) => Some(
                    n.parse::<usize>()
                        .map_err(|_| ProtoError::bad_request(format!("bad count `{n}`")))?,
                ),
                None => None,
            };
            Request::SlowLog { n }
        }
        "trace" => {
            if parts.len() < 2 {
                return Err(ProtoError::bad_request("usage: trace <request>"));
            }
            // Parse the inner request now so malformed lines fail at parse
            // time with the inner error, and store its *canonical* form —
            // `Display`/`to_line` round-trips stay exact even if the operator
            // typed extra whitespace.
            let inner = parse_line(&parts[1..].join(" "))?
                .ok_or_else(|| ProtoError::bad_request("usage: trace <request>"))?;
            match inner {
                Request::Query { .. } | Request::TopK { .. } | Request::Commit => (),
                _ => {
                    return Err(ProtoError::bad_request(
                        "only query, topk, and commit can be traced",
                    ))
                }
            }
            Request::Trace {
                line: inner.to_line(),
            }
        }
        "help" => {
            arity(1, "help")?;
            Request::Help
        }
        "quit" | "exit" => {
            arity(1, "quit")?;
            Request::Quit
        }
        "shutdown" => {
            arity(1, "shutdown")?;
            Request::Shutdown
        }
        other => {
            return Err(ProtoError {
                code: codes::UNKNOWN_COMMAND,
                message: format!("unknown command `{other}` (try help)"),
            })
        }
    };
    Ok(Some(request))
}

/// What a front-end should do after executing one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Send this one-line reply and keep serving.
    Reply(String),
    /// Send this multi-line text payload verbatim and keep serving. Only the
    /// `metrics` verb produces this; the payload's final line is `# EOF`, so
    /// line-oriented clients know where the reply ends.
    Text(String),
    /// Render the protocol help (payload = [`PROTOCOL_HELP`]); the stdin
    /// REPL prints it to stderr, the TCP path replies `{"help": ...}`.
    Help(&'static str),
    /// Close this session; the server keeps running.
    Quit,
    /// Send this one-line acknowledgment, then gracefully stop the whole
    /// server (drain handlers, flush a snapshot when durable).
    Shutdown(String),
}

/// Executes one parsed request against a service. Every failure becomes a
/// `{"error","code"}` [`Outcome::Reply`]; this function never panics on
/// request contents.
pub fn execute(
    service: &SimRankService,
    default_algo: AlgorithmKind,
    request: &Request,
) -> Outcome {
    match request {
        Request::Help => Outcome::Help(PROTOCOL_HELP),
        Request::Quit => Outcome::Quit,
        Request::Shutdown => Outcome::Shutdown("{\"op\":\"shutdown\",\"draining\":true}".into()),
        Request::Stats => Outcome::Reply(service.stats().to_json()),
        Request::Metrics => Outcome::Text(service.metrics_text()),
        Request::SlowLog { n } => {
            let slowlog = service.slowlog();
            let entries = slowlog.recent(n.unwrap_or(usize::MAX));
            let rendered: Vec<String> = entries.iter().map(|r| r.to_json()).collect();
            Outcome::Reply(format!(
                "{{\"op\":\"slowlog\",\"threshold_us\":{},\"total_recorded\":{},\"entries\":[{}]}}",
                slowlog.threshold().as_micros(),
                slowlog.total_recorded(),
                rendered.join(","),
            ))
        }
        Request::Trace { line } => {
            trace::begin();
            let outcome = {
                let inner = {
                    let _parse =
                        trace::stage("parse", Some(service.metrics().query_stage(STAGE_PARSE)));
                    parse_line(line)
                };
                match inner {
                    Ok(Some(request)) => execute(service, default_algo, &request),
                    // Canonical lines always re-parse; keep the error paths
                    // total anyway.
                    Ok(None) => {
                        Outcome::Reply(ProtoError::bad_request("usage: trace <request>").to_json())
                    }
                    Err(e) => Outcome::Reply(e.to_json()),
                }
            };
            let report = trace::finish();
            match outcome {
                Outcome::Reply(reply) => {
                    let (total_us, spans) = match report {
                        Some(report) => (report.total_us, trace::spans_to_json(&report.spans)),
                        None => (0, "[]".to_string()),
                    };
                    Outcome::Reply(format!(
                        "{{\"op\":\"trace\",\"request\":\"{}\",\"total_us\":{total_us},\"spans\":{spans},\"reply\":{reply}}}",
                        escape_json(line),
                    ))
                }
                // Traceable requests (query/topk/commit) always produce a
                // Reply; anything else passes through untouched.
                other => other,
            }
        }
        Request::Ping => {
            Outcome::Reply(format!("{{\"op\":\"ping\",\"epoch\":{}}}", service.epoch(),))
        }
        Request::Epoch => {
            let (ins, del) = service.store().pending_counts();
            let nodes = service.store().pending_nodes();
            Outcome::Reply(format!(
                "{{\"epoch\":{},\"pending_insertions\":{ins},\"pending_deletions\":{del},\"pending_nodes\":{nodes}}}",
                service.epoch(),
            ))
        }
        Request::AddEdge { u, v } | Request::DelEdge { u, v } => {
            let (op, result) = if matches!(request, Request::AddEdge { .. }) {
                ("addedge", service.store().stage_insert(*u, *v))
            } else {
                ("deledge", service.store().stage_delete(*u, *v))
            };
            match result {
                Ok(staged) => {
                    service.metrics().updates_staged.inc();
                    let staged = match staged {
                        exactsim_store::Staged::Pending => "pending",
                        exactsim_store::Staged::Cancelled => "cancelled",
                        exactsim_store::Staged::NoOp => "noop",
                    };
                    let (ins, del) = service.store().pending_counts();
                    Outcome::Reply(format!(
                        "{{\"op\":\"{op}\",\"staged\":\"{staged}\",\"pending_insertions\":{ins},\"pending_deletions\":{del}}}",
                    ))
                }
                Err(e) => Outcome::Reply(ProtoError::from(e).to_json()),
            }
        }
        Request::AddNode { count } => match service.store().stage_add_nodes(*count) {
            Ok(pending_nodes) => {
                service.metrics().updates_staged.inc();
                Outcome::Reply(format!(
                    "{{\"op\":\"addnode\",\"staged\":\"pending\",\"added\":{count},\"pending_nodes\":{pending_nodes}}}"
                ))
            }
            Err(e) => Outcome::Reply(ProtoError::from(e).to_json()),
        },
        Request::Commit => match service.commit() {
            Ok(report) => {
                service.metrics().commit_requests.inc();
                Outcome::Reply(format!(
                "{{\"op\":\"commit\",\"epoch\":{},\"advanced\":{},\"edges_inserted\":{},\"edges_deleted\":{},\"nodes_added\":{},\"num_edges\":{},\"build_us\":{}}}",
                report.epoch,
                report.advanced(),
                report.edges_inserted,
                report.edges_deleted,
                report.nodes_added,
                report.num_edges,
                report.build_time.as_micros(),
                ))
            }
            Err(e) => Outcome::Reply(ProtoError::from(e).to_json()),
        },
        Request::Save => match service.store().save() {
            Ok(epoch) => {
                let wal_len = service
                    .store()
                    .durability()
                    .map_or(0, |info| info.wal_records);
                Outcome::Reply(format!(
                    "{{\"op\":\"save\",\"last_snapshot_epoch\":{epoch},\"wal_len\":{wal_len}}}"
                ))
            }
            Err(e) => Outcome::Reply(ProtoError::from(e).to_json()),
        },
        Request::Query { node, algo } => match service.query(algo.unwrap_or(default_algo), *node) {
            Ok(response) => {
                let _ser = trace::stage(
                    "serialize",
                    Some(service.metrics().query_stage(STAGE_SERIALIZE)),
                );
                Outcome::Reply(response.to_json(Some(32)))
            }
            Err(e) => Outcome::Reply(ProtoError::from(e).to_json()),
        },
        Request::TopK { node, k, algo } => {
            match service.top_k(algo.unwrap_or(default_algo), *node, *k) {
                Ok(response) => {
                    let _ser = trace::stage(
                        "serialize",
                        Some(service.metrics().query_stage(STAGE_SERIALIZE)),
                    );
                    Outcome::Reply(response.to_json())
                }
                Err(e) => Outcome::Reply(ProtoError::from(e).to_json()),
            }
        }
    }
}

/// Parses and executes one raw line: the shared serve loop body of every
/// front-end. `Ok(None)` means the line was empty/comment (no reply).
pub fn serve_line(
    service: &SimRankService,
    default_algo: AlgorithmKind,
    line: &str,
) -> Option<Outcome> {
    let parsed = {
        let _parse = trace::stage("parse", Some(service.metrics().query_stage(STAGE_PARSE)));
        parse_line(line)
    };
    match parsed {
        Ok(None) => None,
        Ok(Some(request)) => Some(execute(service, default_algo, &request)),
        Err(e) => Some(Outcome::Reply(e.to_json())),
    }
}
