//! Listener, acceptor, and per-connection handler threads.

use std::io::{self, BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::{self, Outcome, ProtoError};
use crate::response::AlgorithmKind;
use crate::service::SimRankService;
use exactsim_obs::json::escape_json;
use exactsim_obs::log as oplog;
use exactsim_obs::metrics::{Counter, Histogram, Registry};

/// Handlers poll the shutdown flag at this cadence between blocking reads.
const READ_POLL: Duration = Duration::from_millis(100);
/// The acceptor polls for shutdown at this cadence when no client connects.
const ACCEPT_POLL: Duration = Duration::from_millis(10);
/// Request lines longer than this are rejected and the connection closed —
/// the protocol has no business with multi-kilobyte commands, and the cap
/// keeps a hostile client from growing an unbounded buffer.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Configuration of the TCP front-end.
#[derive(Clone, Debug)]
pub struct NetOptions {
    /// Maximum concurrently-served connections (the semaphore bound).
    /// Connections past the bound are answered with a `capacity` error and
    /// closed.
    pub max_conns: usize,
    /// Algorithm used when a request names none.
    pub default_algo: AlgorithmKind,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            max_conns: 64,
            default_algo: AlgorithmKind::ExactSim,
        }
    }
}

/// The listener's connection, request and byte series. Each host registers
/// one set in its own registry ([`NetMetrics::register`]), the listener
/// records into it, and the host's `stats` reads the same counters back, so
/// `stats` and `metrics` report one number per event.
pub struct NetMetrics {
    /// `simrank_connections_accepted_total`.
    pub connections_accepted: Arc<Counter>,
    /// `simrank_connections_closed_total`: finished by EOF, `quit`, error,
    /// or drain.
    pub connections_closed: Arc<Counter>,
    /// `simrank_connections_rejected_total`: turned away at `max_conns`.
    pub connections_rejected: Arc<Counter>,
    /// `simrank_net_requests_total`: protocol requests served over TCP.
    pub requests: Arc<Counter>,
    /// `simrank_net_bytes_total{direction="in"}`: request lines, newlines
    /// included.
    pub bytes_in: Arc<Counter>,
    /// `simrank_net_bytes_total{direction="out"}`: reply lines, newlines
    /// included.
    pub bytes_out: Arc<Counter>,
    /// `simrank_requests_per_connection`: requests served per finished
    /// connection (unit: requests) — the keep-alive distribution.
    pub requests_per_conn: Arc<Histogram>,
}

impl NetMetrics {
    /// Registers every net series in `registry` (at zero, before any
    /// connection) and returns the handles the listener records into.
    pub fn register(registry: &Registry) -> Self {
        let bytes = |direction| {
            registry.counter(
                "simrank_net_bytes_total",
                "Payload bytes over TCP, by direction",
                &[("direction", direction)],
            )
        };
        NetMetrics {
            connections_accepted: registry.counter(
                "simrank_connections_accepted_total",
                "TCP connections accepted",
                &[],
            ),
            connections_closed: registry.counter(
                "simrank_connections_closed_total",
                "TCP connections finished (EOF, quit, error, or drain)",
                &[],
            ),
            connections_rejected: registry.counter(
                "simrank_connections_rejected_total",
                "TCP connections turned away at the connection cap",
                &[],
            ),
            requests: registry.counter(
                "simrank_net_requests_total",
                "Protocol requests served over TCP",
                &[],
            ),
            bytes_in: bytes("in"),
            bytes_out: bytes("out"),
            requests_per_conn: registry.histogram(
                "simrank_requests_per_connection",
                "Requests served per finished TCP connection (unit: requests)",
                &[],
            ),
        }
    }

    /// Connection handlers serving right now (`accepted - closed`).
    pub fn live_connections(&self) -> u64 {
        self.connections_accepted
            .get()
            .saturating_sub(self.connections_closed.get())
    }
}

/// A front-end the TCP listener can serve. The plain [`SimRankService`]
/// implements it (one process, one graph); the router crate implements it
/// over a shard fan-out. Implementations answer whole request lines and
/// expose their [`NetMetrics`] for the listener to account connections and
/// bytes against, so `stats` replies look the same whichever host answers.
pub trait ProtocolHost: Send + Sync + 'static {
    /// Answers one trimmed, non-empty request line. `None` means "no reply"
    /// (the stdin front-end's blank-line behaviour); the TCP listener treats
    /// it the same way.
    fn serve_line(&self, default_algo: AlgorithmKind, line: &str) -> Option<Outcome>;

    /// The series the listener records connections, requests, and bytes in.
    fn net_metrics(&self) -> &NetMetrics;

    /// Runs once after the acceptor and every handler have drained (durable
    /// snapshot flush, shard drain fan-out, ...).
    fn on_drain(&self);
}

impl ProtocolHost for SimRankService {
    fn serve_line(&self, default_algo: AlgorithmKind, line: &str) -> Option<Outcome> {
        protocol::serve_line(self, default_algo, line)
    }

    fn net_metrics(&self) -> &NetMetrics {
        &self.metrics().net
    }

    fn on_drain(&self) {
        flush_shutdown_snapshot(self);
    }
}

/// A counting semaphore over connection-handler permits. `try_acquire` never
/// blocks: the acceptor load-sheds instead of queueing, so the listener can
/// always make progress whatever the handlers are doing.
struct Semaphore {
    permits: usize,
    active: AtomicUsize,
}

impl Semaphore {
    fn new(permits: usize) -> Self {
        Semaphore {
            permits,
            active: AtomicUsize::new(0),
        }
    }

    fn try_acquire(&self) -> bool {
        self.active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.permits).then_some(n + 1)
            })
            .is_ok()
    }

    fn release(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

struct Shared<H: ProtocolHost> {
    host: H,
    options: NetOptions,
    shutdown: Arc<AtomicBool>,
    permits: Semaphore,
}

impl<H: ProtocolHost> Shared<H> {
    fn net(&self) -> &NetMetrics {
        self.host.net_metrics()
    }
}

/// Handle to a running TCP server. Dropping the handle does **not** stop the
/// server; call [`NetServerHandle::request_shutdown`] then
/// [`NetServerHandle::join`] for a graceful stop. The handle is host-agnostic
/// (not generic over [`ProtocolHost`]) so binaries can store one whatever
/// front-end they booted.
pub struct NetServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
}

impl NetServerHandle {
    /// The address the listener is bound to (resolves `:0` to the real
    /// ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a shutdown has been requested (by this handle, or by a
    /// `shutdown` protocol command on any connection).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Asks the server to stop: the acceptor closes, handlers drain their
    /// in-flight request and hang up. Idempotent; returns immediately —
    /// [`NetServerHandle::join`] observes completion.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Blocks until the acceptor and every handler thread have finished and
    /// the final snapshot flush (durable stores only) has happened. Call
    /// after [`NetServerHandle::request_shutdown`], or let a remote
    /// `shutdown` command trigger the drain.
    pub fn join(self) {
        let _ = self.acceptor.join();
    }
}

/// Binds `addr` and serves the [`crate::protocol`] grammar over TCP until a
/// shutdown is requested. Returns once the listener is bound and accepting —
/// queries can race the returned handle immediately. `host` is usually a
/// [`SimRankService`]; the router crate passes its shard fan-out instead.
pub fn serve<H: ProtocolHost>(
    host: H,
    addr: impl ToSocketAddrs,
    options: NetOptions,
) -> io::Result<NetServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        host,
        permits: Semaphore::new(options.max_conns.max(1)),
        options,
        shutdown: Arc::clone(&shutdown),
    });
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("simrank-net-acceptor".into())
            .spawn(move || accept_loop(listener, shared))?
    };
    Ok(NetServerHandle {
        addr,
        shutdown,
        acceptor,
    })
}

fn accept_loop<H: ProtocolHost>(listener: TcpListener, shared: Arc<Shared<H>>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, peer)) => {
                // The listener is non-blocking (so this loop can poll the
                // shutdown flag); handler sockets do their own timed reads.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                if !shared.permits.try_acquire() {
                    shared.net().connections_rejected.inc();
                    reject_at_capacity(stream, shared.options.max_conns);
                    continue;
                }
                shared.net().connections_accepted.inc();
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("simrank-conn-{peer}"))
                    .spawn(move || {
                        handle_connection(&stream, &conn_shared);
                        // Permit + close accounting live together on every
                        // exit path (EOF, quit, error, drain) — the handler
                        // owns its permit for its whole lifetime.
                        conn_shared.permits.release();
                        conn_shared.net().connections_closed.inc();
                    });
                match spawned {
                    Ok(handle) => handlers.push(handle),
                    Err(_) => {
                        // Could not spawn a thread: undo the accept.
                        shared.permits.release();
                        shared.net().connections_closed.inc();
                    }
                }
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // Transient accept errors (ECONNABORTED and friends) — keep
            // listening; a dead listener ends with the shutdown flag anyway.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Drain: the flag is set, handlers finish their in-flight request and
    // exit within one READ_POLL tick.
    drop(listener);
    for handle in handlers {
        let _ = handle.join();
    }
    shared.host.on_drain();
}

/// Folds the WAL into a fresh snapshot on durable stores, logging the
/// outcome through the [`exactsim_obs::log`] logger (so `--log-json` covers
/// it); a silent no-op on in-memory ones. A clean stop leaves nothing to
/// replay on the next boot. Shared by the TCP drain and the stdin
/// front-end's `shutdown` path so the two cannot diverge.
pub fn flush_shutdown_snapshot(service: &SimRankService) {
    if service.store().durability().is_some() {
        match service.store().save() {
            Ok(epoch) => oplog::info(
                "simrank-serve",
                "shutdown snapshot written",
                &[("epoch", epoch.into())],
            ),
            Err(e) => oplog::error(
                "simrank-serve",
                "shutdown snapshot failed",
                &[("error", e.to_string().into())],
            ),
        }
    }
}

/// Answers an over-capacity connection with one `capacity` error line.
fn reject_at_capacity(stream: TcpStream, max_conns: usize) {
    let error = ProtoError {
        code: protocol::codes::CAPACITY,
        message: format!("server at connection capacity ({max_conns}); retry later"),
    };
    let mut writer = BufWriter::new(stream);
    let _ = writeln!(writer, "{}", error.to_json());
    let _ = writer.flush();
}

/// Serves one connection until EOF, `quit`, a fatal socket error, or server
/// shutdown. Never panics on request contents; a panicking computation is
/// answered as an `internal` protocol error and the connection lives on.
fn handle_connection<H: ProtocolHost>(stream: &TcpStream, shared: &Shared<H>) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // `take` bounds how much one `read_until` call can pull: a client
    // streaming bytes with no newline would otherwise keep the call (and
    // the buffer) growing forever — with continuous data the read timeout
    // never fires. The limit is re-armed per iteration, so `buf` is capped
    // at one limit's worth past MAX_LINE_BYTES before the oversized check
    // fires.
    let mut reader = BufReader::new(read_half.take(MAX_LINE_BYTES as u64 + 1));
    let mut writer = BufWriter::new(stream);
    // Raw bytes, not `read_line`: on a timeout mid-line, `read_until` keeps
    // the partial bytes in `buf` for the next attempt (read_line's UTF-8
    // guard would drop a partially-read multi-byte character).
    let mut buf: Vec<u8> = Vec::new();
    // Requests this connection served, recorded into the keep-alive
    // distribution when it finishes (any exit path of the loop).
    let mut requests: u64 = 0;
    while !shared.shutdown.load(Ordering::Acquire) {
        reader.get_mut().set_limit(MAX_LINE_BYTES as u64 + 1);
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break, // EOF
            Ok(n) => {
                shared.net().bytes_in.add(n as u64);
                // Also the exhausted-limit case: the limit is one past the
                // cap, so an over-long line trips this before a newline.
                if buf.len() > MAX_LINE_BYTES {
                    oversized_line(&mut writer, shared.net());
                    break;
                }
                let line = String::from_utf8_lossy(&buf).into_owned();
                let done = serve_one(&line, shared, &mut writer, &mut requests);
                buf.clear();
                if done {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                // Timed out waiting for (the rest of) a line: keep whatever
                // partial bytes arrived and re-check the shutdown flag.
                if buf.len() > MAX_LINE_BYTES {
                    oversized_line(&mut writer, shared.net());
                    break;
                }
            }
            Err(_) => break,
        }
    }
    shared.net().requests_per_conn.record_value(requests);
}

fn oversized_line(writer: &mut BufWriter<&TcpStream>, net: &NetMetrics) {
    let error = ProtoError::bad_request(format!(
        "request line exceeds {MAX_LINE_BYTES} bytes; closing connection"
    ));
    let _ = write_reply(writer, net, &error.to_json());
}

/// Parses, executes, and answers one request line. Returns `true` when the
/// connection (or the whole server) should stop.
fn serve_one<H: ProtocolHost>(
    line: &str,
    shared: &Shared<H>,
    writer: &mut BufWriter<&TcpStream>,
    requests: &mut u64,
) -> bool {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return false;
    }
    shared.net().requests.inc();
    *requests += 1;
    // The in-flight leader re-raises computation panics (after waking its
    // followers); over TCP that must cost an `internal` error reply, not the
    // handler thread (which would leak the permit and hang up mid-session).
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.host.serve_line(shared.options.default_algo, trimmed)
    }))
    .unwrap_or_else(|_| {
        Some(Outcome::Reply(
            ProtoError {
                code: protocol::codes::INTERNAL,
                message: "computation panicked".into(),
            }
            .to_json(),
        ))
    });
    match outcome {
        None => false,
        Some(Outcome::Reply(reply)) => write_reply(writer, shared.net(), &reply),
        Some(Outcome::Text(payload)) => write_text(writer, shared.net(), &payload),
        Some(Outcome::Help(text)) => write_reply(
            writer,
            shared.net(),
            &format!("{{\"help\":\"{}\"}}", escape_json(text)),
        ),
        Some(Outcome::Quit) => true,
        Some(Outcome::Shutdown(reply)) => {
            let _ = write_reply(writer, shared.net(), &reply);
            shared.shutdown.store(true, Ordering::Release);
            true
        }
    }
}

/// Writes one reply line; returns `true` (stop serving) on a dead socket.
fn write_reply(writer: &mut BufWriter<&TcpStream>, net: &NetMetrics, reply: &str) -> bool {
    net.bytes_out.add(reply.len() as u64 + 1);
    if writeln!(writer, "{reply}").is_err() {
        return true;
    }
    writer.flush().is_err()
}

/// Writes one multi-line payload (already newline-terminated — the `metrics`
/// exposition); returns `true` on a dead socket.
fn write_text(writer: &mut BufWriter<&TcpStream>, net: &NetMetrics, payload: &str) -> bool {
    net.bytes_out.add(payload.len() as u64);
    if writer.write_all(payload.as_bytes()).is_err() {
        return true;
    }
    writer.flush().is_err()
}
