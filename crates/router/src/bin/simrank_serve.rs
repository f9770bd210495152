//! `simrank-serve` — the [`exactsim_service::protocol`] server, on stdin or
//! on the network, fronting one service or a router over remote shards.
//!
//! ```text
//! simrank-serve [--dataset KEY | --ba N M] [--scale F] [--seed S]
//!               [--algo exactsim|prsim|mc] [--epsilon E]
//!               [--cache-capacity C] [--walk-budget B]
//!               [--data-dir DIR] [--paged] [--pool-pages N]
//!               [--shard-of ADDR,ADDR,...]
//!               [--listen ADDR] [--max-conns N] [--addr-file PATH]
//!               [--log-json] [--slowlog-threshold-ms N]
//!               [--fault-spec SPEC]
//! ```
//!
//! Without `--listen`, the server is the original stdin/stdout REPL: one
//! request per stdin line, exactly one JSON object per stdout line
//! (`{"error": ..., "code": ...}` for a rejected request — the server never
//! panics on bad input). Startup banners and the human-oriented `help`
//! output go to stderr only.
//!
//! With `--listen ADDR` (e.g. `127.0.0.1:7878`, or port `0` for an
//! ephemeral port), the same protocol is served over TCP: an acceptor
//! thread spawns one handler thread per connection, bounded by a
//! `--max-conns` semaphore; each request runs on its connection's handler
//! (`stats` reports the live handlers as `workers`). The bound address is
//! printed as a `{"listening": ...}` JSON line on stdout (and to
//! `--addr-file` when given, which is how scripts find an ephemeral port).
//! The server drains gracefully on SIGTERM/SIGINT or on the `shutdown`
//! protocol command from any client: in-flight requests finish, and with
//! `--data-dir` the WAL is folded into a fresh snapshot before exit.
//!
//! ## Sharded serving
//!
//! `--shard-of A,B,...` boots an [`exactsim_router::ShardRouter`] over
//! *remote* shards: unmodified `simrank-serve --listen` processes at those
//! addresses, each a full replica, spoken to over the regular TCP protocol.
//! The front-end (stdin or `--listen`) is unchanged; `query` and `topk`
//! route to the owning shard, fenced to the published epoch, and updates
//! commit under an epoch barrier (see `exactsim_router::router`). The
//! graph and storage flags are refused — the remote processes own their
//! graphs.
//!
//! Protocol commands (see `exactsim_service::protocol` for the grammar):
//!
//! ```text
//! query <node> [algo]      full single-source column (scores truncated to 32)
//! topk <node> <k> [algo]   top-k most similar nodes
//! addedge <u> <v>          stage the insertion of edge u -> v
//! deledge <u> <v>          stage the deletion of edge u -> v
//! addnode [count]          stage count (default 1) new isolated node ids
//! commit                   publish staged updates as a new graph epoch
//! epoch                    current epoch + pending update counts
//! save | snapshot          fold the WAL into a fresh snapshot file
//! stats                    serving counters as JSON (routers: fan-out,
//!                          barrier, per-shard breakdown)
//! metrics                  all series in Prometheus text format (multi-line,
//!                          terminated by a `# EOF` line)
//! slowlog [n]              newest n slow-query records (single service only)
//! trace <request>          per-stage tracing (single service only)
//! help                     this summary
//! quit                     close this session (server keeps running)
//! shutdown                 gracefully stop the whole server
//! ```
//!
//! Operational messages go through the [`exactsim_obs::log`] logger:
//! `--log-json` switches them from the traditional `simrank-serve: ...` text
//! lines to one JSON object per line on stderr.
//!
//! With `--data-dir DIR` the store is durable: every commit is WAL-logged
//! and fsynced before it is published, and on boot the server recovers the
//! newest valid snapshot plus the WAL — a restarted server answers
//! bit-identically to the pre-restart process at the same epoch. On the
//! first boot the directory is initialized from the graph flags; on later
//! boots the graph flags are ignored in favor of the recovered state.
//!
//! With `--paged` the store serves adjacency through the buffer-managed page
//! store instead of the in-memory CSR: the graph lives in a per-epoch page
//! file and only `--pool-pages` pages (default 4096, i.e. 16 MiB of 4 KiB
//! pages) are resident at once — graphs larger than RAM stay servable, at
//! page-fault cost visible in `stats` (`pool`) and the `simrank_pool_*`
//! series. Page files are rebuildable caches (snapshot + WAL stay the
//! durable truth); without `--data-dir` they live under the system temp
//! directory.

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use exactsim::exactsim::ExactSimConfig;
use exactsim_graph::generators::barabasi_albert;
use exactsim_graph::DiGraph;
use exactsim_obs::fault;
use exactsim_obs::log::{self as oplog, LogFormat};
use exactsim_router::{RemoteShard, ShardBackend, ShardRouter};
use exactsim_service::net::{self, signal, NetMetrics, NetOptions, ProtocolHost};
use exactsim_service::protocol::Outcome;
use exactsim_service::{
    protocol, AlgorithmKind, GraphStore, Opened, PagedOptions, ServiceConfig, SimRankService,
    StoreError,
};

struct Options {
    dataset: Option<String>,
    ba: Option<(usize, usize)>,
    scale: f64,
    seed: u64,
    algo: AlgorithmKind,
    epsilon: f64,
    cache_capacity: usize,
    walk_budget: u64,
    data_dir: Option<PathBuf>,
    paged: bool,
    pool_pages: usize,
    shard_of: Option<Vec<String>>,
    listen: Option<String>,
    max_conns: usize,
    addr_file: Option<PathBuf>,
    log_json: bool,
    slowlog_threshold_ms: u64,
    fault_spec: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            dataset: None,
            ba: None,
            scale: 0.01,
            seed: 42,
            algo: AlgorithmKind::ExactSim,
            epsilon: 1e-2,
            cache_capacity: 1024,
            walk_budget: 2_000_000,
            data_dir: None,
            paged: false,
            pool_pages: 4096,
            shard_of: None,
            listen: None,
            max_conns: 64,
            addr_file: None,
            log_json: false,
            slowlog_threshold_ms: 100,
            fault_spec: None,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    fn next_value(flag: &str, args: &mut dyn Iterator<Item = String>) -> Result<String, String> {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dataset" => opts.dataset = Some(next_value("--dataset", &mut args)?),
            "--ba" => {
                let n = next_value("--ba", &mut args)?;
                let m = next_value("--ba", &mut args)?;
                opts.ba = Some((
                    n.parse().map_err(|_| format!("bad node count `{n}`"))?,
                    m.parse().map_err(|_| format!("bad edges-per-node `{m}`"))?,
                ));
            }
            "--scale" => {
                let v = next_value("--scale", &mut args)?;
                opts.scale = v.parse().map_err(|_| format!("bad scale `{v}`"))?;
            }
            "--seed" => {
                let v = next_value("--seed", &mut args)?;
                opts.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--algo" => {
                let v = next_value("--algo", &mut args)?;
                opts.algo = v.parse().map_err(|e| format!("{e}"))?;
            }
            "--epsilon" => {
                let v = next_value("--epsilon", &mut args)?;
                opts.epsilon = v.parse().map_err(|_| format!("bad epsilon `{v}`"))?;
            }
            "--cache-capacity" => {
                let v = next_value("--cache-capacity", &mut args)?;
                opts.cache_capacity = v.parse().map_err(|_| format!("bad capacity `{v}`"))?;
            }
            "--walk-budget" => {
                let v = next_value("--walk-budget", &mut args)?;
                opts.walk_budget = v.parse().map_err(|_| format!("bad walk budget `{v}`"))?;
            }
            "--data-dir" => {
                opts.data_dir = Some(PathBuf::from(next_value("--data-dir", &mut args)?));
            }
            "--paged" => opts.paged = true,
            "--pool-pages" => {
                let v = next_value("--pool-pages", &mut args)?;
                opts.pool_pages = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| format!("bad pool size `{v}`"))?;
            }
            "--shard-of" => {
                let v = next_value("--shard-of", &mut args)?;
                let addrs: Vec<String> = v
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if addrs.is_empty() {
                    return Err("--shard-of needs at least one host:port".to_string());
                }
                opts.shard_of = Some(addrs);
            }
            "--listen" => opts.listen = Some(next_value("--listen", &mut args)?),
            "--max-conns" => {
                let v = next_value("--max-conns", &mut args)?;
                opts.max_conns = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| format!("bad max-conns `{v}`"))?;
            }
            "--addr-file" => {
                opts.addr_file = Some(PathBuf::from(next_value("--addr-file", &mut args)?));
            }
            "--log-json" => opts.log_json = true,
            "--fault-spec" => {
                opts.fault_spec = Some(next_value("--fault-spec", &mut args)?);
            }
            "--slowlog-threshold-ms" => {
                let v = next_value("--slowlog-threshold-ms", &mut args)?;
                opts.slowlog_threshold_ms =
                    v.parse().map_err(|_| format!("bad threshold `{v}`"))?;
            }
            "--help" | "-h" => {
                eprintln!("{}", help_text());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if opts.dataset.is_some() && opts.ba.is_some() {
        return Err("--dataset and --ba are mutually exclusive".to_string());
    }
    if opts.addr_file.is_some() && opts.listen.is_none() {
        return Err("--addr-file only makes sense with --listen".to_string());
    }
    if opts.shard_of.is_some()
        && (opts.dataset.is_some() || opts.ba.is_some() || opts.data_dir.is_some() || opts.paged)
    {
        return Err(
            "--shard-of fronts remote servers; graph, --data-dir, and --paged flags belong to them"
                .to_string(),
        );
    }
    Ok(opts)
}

const FLAG_HELP: &str = "simrank-serve: SimRank query server (stdin REPL or TCP)\n\
  --dataset KEY        serve a Table 2 dataset stand-in (GQ, WV, ...)\n\
  --ba N M             serve a Barabasi-Albert graph with N nodes, M edges/node\n\
  --scale F            dataset scale factor (default 0.01)\n\
  --seed S             graph generation seed (default 42)\n\
  --algo A             default algorithm: exactsim | prsim | mc\n\
  --epsilon E          ExactSim/PRSim error target (default 1e-2)\n\
  --cache-capacity C   result cache entries (default 1024)\n\
  --walk-budget B      cap on ExactSim walk pairs per query (default 2000000;\n\
                       0 = unlimited / paper-exact — small epsilons need the\n\
                       cap lifted or the error target will not be met)\n\
  --data-dir DIR       durable store: recover DIR on boot (or initialize it\n\
                       from the graph flags), WAL-log every commit\n\
  --paged              serve adjacency through the buffer-managed page store\n\
                       (graphs larger than RAM; pool stats in `stats`/metrics)\n\
  --pool-pages N       buffer-pool capacity in 4 KiB pages (default 4096,\n\
                       i.e. 16 MiB resident); only meaningful with --paged\n\
  --shard-of A,B,...   front remote shards at those addresses (unmodified\n\
                       simrank-serve --listen processes) with a router: query\n\
                       and topk route to the owning shard, commits run under\n\
                       an epoch barrier\n\
  --listen ADDR        serve the protocol over TCP (e.g. 127.0.0.1:7878;\n\
                       port 0 picks an ephemeral port, reported on stdout)\n\
  --max-conns N        concurrent TCP connection bound (default 64)\n\
  --addr-file PATH     write the bound address to PATH once listening\n\
  --log-json           operational stderr messages as one JSON object/line\n\
  --slowlog-threshold-ms N  record queries at least N ms slow in the\n\
                       slowlog ring (default 100; 0 records every query)\n\
  --fault-spec SPEC    enable deterministic fault injection (testing only):\n\
                       `;`-separated SITE=TRIGGER[:N][:ACTION[:ARG]] rules,\n\
                       e.g. `wal.fsync=every:7:torn;page.read=prob:0.01`;\n\
                       the FAULT_SPEC env var is read when the flag is\n\
                       absent (see exactsim_obs::fault for the grammar)\n\
protocol:";

fn help_text() -> String {
    format!("{FLAG_HELP}\n{}", protocol::PROTOCOL_HELP)
}

/// The front-end the listener serves: one service, or a router over remote
/// shards. Both implement [`ProtocolHost`]; this enum only exists so the
/// binary can hold either and print its final `stats` reply.
enum Host {
    Single(SimRankService),
    Router(ShardRouter),
}

impl Host {
    fn stats_json(&self) -> String {
        match self {
            Host::Single(service) => service.stats().to_json(),
            Host::Router(router) => router.stats_json(),
        }
    }
}

impl Clone for Host {
    fn clone(&self) -> Self {
        match self {
            Host::Single(s) => Host::Single(s.clone()),
            Host::Router(r) => Host::Router(r.clone()),
        }
    }
}

impl ProtocolHost for Host {
    fn serve_line(&self, default_algo: AlgorithmKind, line: &str) -> Option<Outcome> {
        match self {
            Host::Single(s) => s.serve_line(default_algo, line),
            Host::Router(r) => r.serve_line(default_algo, line),
        }
    }

    fn net_metrics(&self) -> &NetMetrics {
        match self {
            Host::Single(s) => s.net_metrics(),
            Host::Router(r) => r.net_metrics(),
        }
    }

    fn on_drain(&self) {
        match self {
            Host::Single(s) => s.on_drain(),
            Host::Router(r) => r.on_drain(),
        }
    }
}

/// With `--data-dir`, recovery takes precedence: a directory that already
/// holds a store restarts the server into its last committed epoch and the
/// graph flags are not consulted; a fresh (or missing) directory is
/// initialized from the flags. Without `--data-dir` the store is in-memory.
fn build_store(opts: &Options) -> Result<GraphStore, String> {
    let dir = opts.data_dir.as_ref();
    let store = match dir {
        None => GraphStore::new(Arc::new(build_graph(opts)?)),
        Some(dir) => {
            let (store, how) = GraphStore::open_or_create(dir, || {
                build_graph(opts)
                    .map(Arc::new)
                    .map_err(StoreError::InitFailed)
            })
            .map_err(|e| match e {
                StoreError::InitFailed(msg) => msg,
                e => format!("cannot recover {}: {e}", dir.display()),
            })?;
            match how {
                Opened::Recovered => oplog::info(
                    "simrank-serve",
                    "recovered durable store",
                    &[
                        ("data_dir", dir.display().to_string().into()),
                        ("epoch", store.epoch().into()),
                        (
                            "wal_records",
                            store.durability().map_or(0, |info| info.wal_records).into(),
                        ),
                    ],
                ),
                Opened::Created => oplog::info(
                    "simrank-serve",
                    "initialized durable store",
                    &[("data_dir", dir.display().to_string().into())],
                ),
            }
            store
        }
    };
    if !opts.paged {
        return Ok(store);
    }
    // Page files are rebuildable caches, so an in-memory store may keep them
    // in the system temp directory (unique per process). A durable store
    // keeps them next to its truth.
    let pages_dir = match dir {
        Some(dir) => dir.join("pages"),
        None => std::env::temp_dir().join(format!("simrank-pages-{}", std::process::id())),
    };
    let store = store
        .with_paging(
            &pages_dir,
            PagedOptions {
                pool_pages: opts.pool_pages,
                ..PagedOptions::default()
            },
        )
        .map_err(|e| format!("cannot enable paging in {}: {e}", pages_dir.display()))?;
    oplog::info(
        "simrank-serve",
        "paged backend enabled",
        &[
            ("pages_dir", pages_dir.display().to_string().into()),
            ("pool_pages", opts.pool_pages.into()),
        ],
    );
    Ok(store)
}

fn build_graph(opts: &Options) -> Result<DiGraph, String> {
    if let Some((n, m)) = opts.ba {
        return barabasi_albert(n, m, true, opts.seed).map_err(|e| e.to_string());
    }
    let key = opts.dataset.as_deref().unwrap_or("GQ");
    let spec =
        exactsim_datasets::dataset_by_key(key).ok_or_else(|| format!("unknown dataset `{key}`"))?;
    let generated = spec
        .generate_scaled(opts.scale)
        .map_err(|e| e.to_string())?;
    Ok(generated.graph)
}

fn service_config(opts: &Options) -> ServiceConfig {
    ServiceConfig {
        cache_capacity: opts.cache_capacity,
        slowlog_threshold: Duration::from_millis(opts.slowlog_threshold_ms),
        exactsim: ExactSimConfig {
            epsilon: opts.epsilon,
            // The budget keeps interactive latency bounded but caps accuracy:
            // below the epsilon the budget can satisfy, walk allocations are
            // scaled down proportionally (see ExactSim::apply_budget). 0 lifts
            // the cap and serves the paper-exact sample counts.
            walk_budget: (opts.walk_budget > 0).then_some(opts.walk_budget),
            ..ExactSimConfig::default()
        },
        prsim: exactsim::prsim::PrSimConfig {
            epsilon: opts.epsilon,
            ..Default::default()
        },
        ..ServiceConfig::default()
    }
}

/// Boots the requested front-end: a plain service, or a router over remote
/// shards.
fn build_host(opts: &Options) -> Result<Host, String> {
    if let Some(addrs) = &opts.shard_of {
        let backends: Vec<Box<dyn ShardBackend>> = addrs
            .iter()
            .map(|addr| Box::new(RemoteShard::new(addr.clone())) as Box<dyn ShardBackend>)
            .collect();
        let router = ShardRouter::new(backends)?;
        router.start_health_probes();
        oplog::info(
            "simrank-serve",
            "routing over remote shards",
            &[
                ("shards", addrs.len().into()),
                ("addrs", addrs.join(",").into()),
                ("epoch", router.epoch().into()),
            ],
        );
        return Ok(Host::Router(router));
    }
    let store = build_store(opts)?;
    let service = SimRankService::with_store(Arc::new(store), service_config(opts))
        .map_err(|e| e.to_string())?;
    oplog::info(
        "simrank-serve",
        "ready (type `help`)",
        &[
            ("nodes", service.graph().num_nodes().into()),
            ("edges", service.graph().num_edges().into()),
        ],
    );
    Ok(Host::Single(service))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("simrank-serve: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if opts.log_json {
        oplog::set_format(LogFormat::Json);
    }
    // Fault injection arms before any store/network code runs, so recovery
    // at boot is faultable too. The flag wins over the FAULT_SPEC env var.
    let armed = match &opts.fault_spec {
        Some(spec) => fault::configure(spec),
        None => fault::configure_from_env(),
    };
    if let Err(msg) = armed {
        oplog::error("simrank-serve", &format!("bad fault spec: {msg}"), &[]);
        return ExitCode::FAILURE;
    }
    if fault::enabled() {
        oplog::warn(
            "simrank-serve",
            "deterministic fault injection is ENABLED (testing mode)",
            &[],
        );
    }
    let host = match build_host(&opts) {
        Ok(host) => host,
        Err(msg) => {
            oplog::error("simrank-serve", &msg, &[]);
            return ExitCode::FAILURE;
        }
    };
    oplog::info(
        "simrank-serve",
        "serving",
        &[("default_algo", opts.algo.to_string().into())],
    );

    let code = match &opts.listen {
        Some(addr) => serve_tcp(&host, addr, &opts),
        None => serve_stdin(&host, &opts),
    };
    // The final counters are the `stats` reply: one JSON line under a header
    // in text mode, one structured event in JSON mode (so a `--log-json`
    // stderr stream stays machine-parseable).
    match oplog::format() {
        LogFormat::Json => oplog::info(
            "simrank-serve",
            "final stats",
            &[("stats", host.stats_json().into())],
        ),
        LogFormat::Text => eprintln!("--- final stats ---\n{}", host.stats_json()),
    }
    code
}

/// The original stdin/stdout REPL. `help` goes to stderr (stdout stays pure
/// JSON); `shutdown` behaves like `quit` plus the host's drain (snapshot
/// flush on a durable service, shard drain fan-out on a router), mirroring
/// the TCP path.
fn serve_stdin(host: &Host, opts: &Options) -> ExitCode {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break,
        };
        let mut out = stdout.lock();
        match host.serve_line(opts.algo, line.trim()) {
            None => {}
            Some(Outcome::Reply(reply)) => {
                let _ = writeln!(out, "{reply}");
                let _ = out.flush();
            }
            Some(Outcome::Text(payload)) => {
                // Multi-line payload (the `metrics` exposition), already
                // newline-terminated and ending with a `# EOF` line.
                let _ = out.write_all(payload.as_bytes());
                let _ = out.flush();
            }
            Some(Outcome::Help(_)) => eprintln!("{}", help_text()),
            Some(Outcome::Quit) => break,
            Some(Outcome::Shutdown(reply)) => {
                let _ = writeln!(out, "{reply}");
                let _ = out.flush();
                host.on_drain();
                break;
            }
        }
    }
    ExitCode::SUCCESS
}

/// TCP mode: bind, report the address, then babysit the listener until a
/// signal or a remote `shutdown` command asks for the drain.
fn serve_tcp(host: &Host, addr: &str, opts: &Options) -> ExitCode {
    let handle = match net::serve(
        host.clone(),
        addr,
        NetOptions {
            max_conns: opts.max_conns,
            default_algo: opts.algo,
        },
    ) {
        Ok(handle) => handle,
        Err(e) => {
            oplog::error(
                "simrank-serve",
                "cannot listen",
                &[
                    ("addr", addr.to_string().into()),
                    ("error", e.to_string().into()),
                ],
            );
            return ExitCode::FAILURE;
        }
    };
    let bound = handle.local_addr();
    println!("{{\"listening\":\"{bound}\"}}");
    let _ = std::io::stdout().flush();
    if let Some(path) = &opts.addr_file {
        if let Err(e) = std::fs::write(path, format!("{bound}\n")) {
            oplog::error(
                "simrank-serve",
                "cannot write addr file",
                &[
                    ("path", path.display().to_string().into()),
                    ("error", e.to_string().into()),
                ],
            );
            handle.request_shutdown();
            handle.join();
            return ExitCode::FAILURE;
        }
    }
    oplog::info(
        "simrank-serve",
        "listening",
        &[
            ("addr", bound.to_string().into()),
            ("max_conns", opts.max_conns.into()),
        ],
    );

    let signalled = signal::install();
    loop {
        if signalled.load(Ordering::SeqCst) {
            oplog::info("simrank-serve", "signal received, draining", &[]);
            handle.request_shutdown();
            break;
        }
        if handle.shutdown_requested() {
            oplog::info("simrank-serve", "shutdown command received, draining", &[]);
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    // join() drains handlers and runs the host's drain hook (snapshot flush
    // on a durable service; shard drain fan-out on a router).
    handle.join();
    ExitCode::SUCCESS
}
