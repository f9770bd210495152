//! `simrank-client` — TCP client for a `simrank-serve --listen` server:
//! an operator REPL, a uniform load generator, and a workload-scenario
//! driver in one binary.
//!
//! ```text
//! simrank-client --connect ADDR                          # REPL (default)
//! simrank-client --connect ADDR --bench N --conns C
//!                [--sources R] [--topk K] [--algo A]
//!                [--out PATH] [--shutdown]
//! simrank-client --connect ADDR --scenario SPEC
//!                [--out PATH] [--baseline PATH] [--max-regression F]
//!                [--shutdown]
//! ```
//!
//! **REPL mode** forwards each stdin line to the server and prints the
//! one-line JSON reply — the same grammar as the server's own stdin REPL
//! (`help` comes back as a `{"help": ...}` object over TCP). The one
//! multi-line reply, `metrics`, is read up to its `# EOF` terminator line
//! and printed verbatim.
//!
//! **Bench mode** (`--bench N --conns C`) drives `N` requests over `C`
//! concurrent sockets: each connection issues `topk <source> <K>` (or full
//! `query` when `--topk 0`) round-robin over `R` distinct sources, measures
//! client-observed latency per request, and prints one JSON object with
//! `queries_per_sec`, `p50_us`/`p99_us` (the server's fixed-bucket
//! `exactsim_obs::metrics::Histogram`), the error count, and the
//! server's own `stats` reply embedded as `server_stats`, and a final
//! Prometheus `metrics` scrape embedded (JSON-escaped) as `metrics_scrape` —
//! schema-compatible with `BENCH_serving.json` so CI can upload it alongside
//! (`BENCH_tcp.json`). The process exits nonzero unless every request
//! succeeded and throughput is nonzero, which is what makes it a CI gate.
//!
//! When the server turns out to be a **router** (`--shard-of`;
//! detected from the `per_shard` breakdown in its `stats` reply), the bench
//! JSON additionally embeds a `router` object: shard count, the `topk`
//! fan-out total (one shard call per routed `topk`), the barrier-wait p99,
//! and per-shard qps computed from the pre/post-bench per-shard request
//! deltas — which is what CI uploads as `BENCH_router.json`.
//!
//! **Scenario mode** (`--scenario SPEC`) replaces the uniform hammer with a
//! workload model from [`exactsim_router::scenario`]: `SPEC` is a built-in
//! scenario name plus `key=value` overrides (e.g.
//! `read_mostly,requests=2000,zipf=1.5`) combining Zipfian source
//! popularity, a read/write mix with periodic commits, a weighted algorithm
//! mix, and optionally an open-loop Poisson arrival schedule with burst
//! phases. The plan is expanded deterministically from the scenario seed,
//! reads fan out over the scenario's connections while writes and commits
//! stay ordered on the first, and open-loop latency is measured from each
//! request's *scheduled* arrival time so queueing delay under overload is
//! not coordination-masked. The result is one JSON object (written to
//! `--out`, conventionally `BENCH_scenarios.json`) with `qps`,
//! `p50_us`/`p99_us`/`p999_us`, the read/write/commit counts, the shed
//! count and `shed_rate` (capacity-coded replies plus the server's
//! `connections_rejected` delta over the run), the server's `stats` reply,
//! and — against a router — the `router` breakdown. `--baseline
//! PATH` compares the measured qps against a previous artifact's and fails
//! the run when it drops below `baseline / --max-regression` (default 4.0,
//! a deliberately generous noise floor for shared CI runners).
//!
//! `--shutdown` sends the `shutdown` command after the bench (or REPL EOF),
//! asking the server to drain gracefully — CI uses it to assert a clean
//! server exit.

use std::io::BufRead;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use exactsim_obs::json::escape_json;
use exactsim_obs::metrics::Histogram;
use exactsim_router::scenario::{self, arrival_offsets, build_plan, parse_scenario, Op};
use exactsim_service::net::LineClient;
use exactsim_service::AlgorithmKind;

struct Options {
    connect: String,
    bench: Option<u64>,
    scenario: Option<String>,
    conns: usize,
    sources: u32,
    topk: usize,
    algo: Option<AlgorithmKind>,
    out: Option<String>,
    baseline: Option<String>,
    max_regression: f64,
    shutdown: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            connect: String::new(),
            bench: None,
            scenario: None,
            conns: 4,
            sources: 25,
            topk: 10,
            algo: None,
            out: None,
            baseline: None,
            max_regression: 4.0,
            shutdown: false,
        }
    }
}

const HELP: &str = "simrank-client: TCP client / load generator for simrank-serve --listen\n\
  --connect ADDR   server address, e.g. 127.0.0.1:7878 (required)\n\
  --bench N        bench mode: drive N requests and print qps/p50/p99 JSON\n\
  --scenario SPEC  scenario mode: drive a named workload model, e.g.\n\
                   read_mostly,requests=2000,zipf=1.5 (see `--scenario help`)\n\
  --conns C        concurrent sockets in bench mode (default 4)\n\
  --sources R      round-robin over R distinct source nodes (default 25)\n\
  --topk K         issue `topk <src> K` requests; 0 = full `query` (default 10)\n\
  --algo A         explicit algorithm per request (default: server default)\n\
  --out PATH       also write the bench/scenario JSON to PATH\n\
  --baseline PATH  scenario mode: gate qps against a previous artifact\n\
  --max-regression F  baseline noise floor: fail below baseline/F (default 4)\n\
  --shutdown       send `shutdown` when done (graceful server drain)\n\
against a router (--shard-of) the bench/scenario JSON embeds a\n\
`router` object with per-shard qps and fan-out\n\
without --bench/--scenario: REPL — forward stdin lines, print reply lines";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    fn next_value(flag: &str, args: &mut dyn Iterator<Item = String>) -> Result<String, String> {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => opts.connect = next_value("--connect", &mut args)?,
            "--bench" => {
                let v = next_value("--bench", &mut args)?;
                let n = v.parse().map_err(|_| format!("bad request count `{v}`"))?;
                if n == 0 {
                    return Err("--bench needs at least 1 request".into());
                }
                opts.bench = Some(n);
            }
            "--conns" => {
                let v = next_value("--conns", &mut args)?;
                opts.conns = v
                    .parse()
                    .ok()
                    .filter(|&c: &usize| c > 0)
                    .ok_or_else(|| format!("bad connection count `{v}`"))?;
            }
            "--sources" => {
                let v = next_value("--sources", &mut args)?;
                opts.sources = v
                    .parse()
                    .ok()
                    .filter(|&r: &u32| r > 0)
                    .ok_or_else(|| format!("bad source count `{v}`"))?;
            }
            "--topk" => {
                let v = next_value("--topk", &mut args)?;
                opts.topk = v.parse().map_err(|_| format!("bad k `{v}`"))?;
            }
            "--algo" => {
                let v = next_value("--algo", &mut args)?;
                opts.algo = Some(v.parse().map_err(|e| format!("{e}"))?);
            }
            "--scenario" => {
                let v = next_value("--scenario", &mut args)?;
                if v == "help" || v == "list" {
                    eprintln!(
                        "built-in scenarios: {}\noverride keys: requests, conns, sources, \
                         topk, zipf, read_mix, rate, burst_factor, burst_period, burst_len, \
                         commit_every, seed, algos (kind:weight/kind:weight), \
                         outage_start, outage_len (fractions of the plan; the window \
                         is read-only and entered on a forced commit)",
                        scenario::builtin_names().join(", ")
                    );
                    std::process::exit(0);
                }
                opts.scenario = Some(v);
            }
            "--out" => opts.out = Some(next_value("--out", &mut args)?),
            "--baseline" => opts.baseline = Some(next_value("--baseline", &mut args)?),
            "--max-regression" => {
                let v = next_value("--max-regression", &mut args)?;
                opts.max_regression = v
                    .parse()
                    .ok()
                    .filter(|f: &f64| *f >= 1.0 && f.is_finite())
                    .ok_or_else(|| format!("bad regression factor `{v}` (need >= 1)"))?;
            }
            "--shutdown" => opts.shutdown = true,
            "--help" | "-h" => {
                eprintln!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if opts.connect.is_empty() {
        return Err("--connect <addr> is required".into());
    }
    if opts.bench.is_some() && opts.scenario.is_some() {
        return Err("--bench and --scenario are mutually exclusive".into());
    }
    Ok(opts)
}

fn connect(addr: &str) -> Result<LineClient, String> {
    LineClient::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))
}

/// The unsigned integer value of the first `"field":123` in `json` (the
/// protocol's stats replies are flat enough for a scan).
fn u64_field(json: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{field}\":");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The float value of the first `"field":1.25` in `json` (used to read the
/// headline qps back out of a baseline scenario artifact).
fn f64_field(json: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `"requests":` counter of each entry in a router stats reply's
/// `per_shard` array, in shard order. Empty when the reply has no breakdown
/// (a plain single-process server).
fn per_shard_requests(stats: &str) -> Vec<u64> {
    let Some(start) = stats.find("\"per_shard\":[") else {
        return Vec::new();
    };
    let body = &stats[start..];
    let Some(end) = body.find(']') else {
        return Vec::new();
    };
    body[..end]
        .match_indices("\"requests\":")
        .filter_map(|(at, needle)| u64_field(&body[at..at + needle.len() + 24], "requests"))
        .collect()
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("simrank-client: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = match (&opts.bench, &opts.scenario) {
        (Some(n), _) => bench(&opts, *n),
        (None, Some(spec)) => run_scenario(&opts, &spec.clone()),
        (None, None) => repl(&opts),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("simrank-client: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Interactive mode: forward stdin lines, print replies.
fn repl(opts: &Options) -> Result<ExitCode, String> {
    let mut session = connect(&opts.connect)?;
    eprintln!(
        "simrank-client: connected to {} (type `help`)",
        opts.connect
    );
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue; // the server sends no reply for these
        }
        // Only a *bare* quit/exit ends the session without a reply — a line
        // like `quit extra` is a rejected request the server answers.
        if matches!(trimmed, "quit" | "exit") {
            let _ = session.send(trimmed);
            return Ok(ExitCode::SUCCESS);
        }
        // The one multi-line reply: a Prometheus scrape framed by `# EOF`.
        if trimmed == "metrics" {
            let payload = session
                .round_trip_multi("metrics", "# EOF")
                .map_err(|e| format!("metrics: {e}"))?;
            print!("{payload}");
            continue;
        }
        let reply = session
            .round_trip(trimmed)
            .map_err(|e| format!("{trimmed}: {e}"))?;
        println!("{reply}");
        // Exit only when the drain was actually accepted; a rejected
        // `shutdown now` leaves the server running, so keep the session.
        if trimmed == "shutdown" && !reply.contains("\"error\"") {
            return Ok(ExitCode::SUCCESS);
        }
    }
    if opts.shutdown {
        let reply = session
            .round_trip("shutdown")
            .map_err(|e| format!("shutdown: {e}"))?;
        println!("{reply}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Load-generator mode: `n` requests spread over `opts.conns` sockets.
fn bench(opts: &Options, n: u64) -> Result<ExitCode, String> {
    let conns = opts.conns.min(n as usize).max(1);
    let histogram = Arc::new(Histogram::default());
    let errors = Arc::new(AtomicU64::new(0));
    let algo_suffix = opts.algo.map(|a| format!(" {a}")).unwrap_or_default();

    // Connect every socket before starting the clock: the bench measures
    // serving, not connection setup, and a refused socket fails fast here.
    let mut sessions = Vec::with_capacity(conns);
    for _ in 0..conns {
        sessions.push(connect(&opts.connect)?);
    }
    // A pre-bench stats snapshot: against a router, the per-shard request
    // deltas across the bench window are what per-shard qps is computed
    // from. (One extra request on the first socket; not timed.)
    let pre_stats = sessions[0]
        .round_trip("stats")
        .map_err(|e| format!("stats: {e}"))?;

    let started = Instant::now();
    let threads: Vec<_> = sessions
        .into_iter()
        .enumerate()
        .map(|(t, mut session)| {
            // Split the N requests over the sockets; the first few sockets
            // absorb the remainder so exactly N requests go out in total.
            let share = n / conns as u64 + u64::from((t as u64) < n % conns as u64);
            let histogram = Arc::clone(&histogram);
            let errors = Arc::clone(&errors);
            let sources = opts.sources;
            let topk = opts.topk;
            let algo_suffix = algo_suffix.clone();
            std::thread::spawn(move || {
                for i in 0..share {
                    let source = (t as u64 + i * conns as u64) % u64::from(sources);
                    let request = if topk > 0 {
                        format!("topk {source} {topk}{algo_suffix}")
                    } else {
                        format!("query {source}{algo_suffix}")
                    };
                    let sent = Instant::now();
                    match session.round_trip(&request) {
                        Ok(reply) if !reply.contains("\"error\"") => {
                            histogram.record(sent.elapsed());
                        }
                        Ok(reply) => {
                            eprintln!("simrank-client: request `{request}` failed: {reply}");
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            eprintln!("simrank-client: {request}: {e}");
                            errors.fetch_add(1, Ordering::Relaxed);
                            return None;
                        }
                    }
                }
                // Hand the still-open session back: the tail requests below
                // reuse it, so they cannot be load-shed the way a *fresh*
                // connection could while the server is at --max-conns
                // (handlers release their permits one read-poll tick after
                // the bench sockets close).
                Some(session)
            })
        })
        .collect();
    let mut survivors: Vec<LineClient> = Vec::new();
    for thread in threads {
        if let Ok(Some(session)) = thread.join() {
            survivors.push(session);
        }
    }
    let elapsed = started.elapsed();

    // Server-side view (and the shutdown) over a surviving bench session.
    let mut tail = survivors
        .into_iter()
        .next()
        .ok_or("every bench connection died; no session left for stats")?;
    let server_stats = tail
        .round_trip("stats")
        .map_err(|e| format!("stats: {e}"))?;
    if server_stats.contains("\"error\"") || !server_stats.contains("\"queries\"") {
        return Err(format!("unexpected stats reply: {server_stats}"));
    }
    // A final Prometheus scrape rides along in the bench artifact, so a CI
    // run's bench JSON carries the complete post-load series state. What the
    // scrape must contain depends on who answered: a single service counts
    // simrank_queries_total; a router counts its fan-out instead.
    let routed = server_stats.contains("\"per_shard\"");
    let metrics_scrape = tail
        .round_trip_multi("metrics", "# EOF")
        .map_err(|e| format!("metrics: {e}"))?;
    let expected_series = if routed {
        "simrank_router_fanout_total"
    } else {
        "simrank_queries_total"
    };
    if !metrics_scrape.contains(expected_series) {
        return Err(format!(
            "unexpected metrics reply (no {expected_series}): {}",
            metrics_scrape.lines().next().unwrap_or("")
        ));
    }
    let shutdown_reply = if opts.shutdown {
        Some(
            tail.round_trip("shutdown")
                .map_err(|e| format!("shutdown: {e}"))?,
        )
    } else {
        None
    };

    let completed = histogram.count();
    let errored = errors.load(Ordering::Relaxed);
    let qps = completed as f64 / elapsed.as_secs_f64().max(f64::EPSILON);
    let us = |d: Option<Duration>| d.map_or("null".to_string(), |d| d.as_micros().to_string());
    // The router breakdown (satellite of the sharded serving tier): shard
    // count, topk fan-out, barrier p99, and per-shard qps over the bench
    // window from the pre/post request-counter deltas.
    let router_json = if routed {
        let before = per_shard_requests(&pre_stats);
        let after = per_shard_requests(&server_stats);
        let per_shard_qps: Vec<String> = after
            .iter()
            .enumerate()
            .map(|(i, &post)| {
                let delta = post.saturating_sub(before.get(i).copied().unwrap_or(0));
                format!(
                    "{:.1}",
                    delta as f64 / elapsed.as_secs_f64().max(f64::EPSILON)
                )
            })
            .collect();
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        format!(
            concat!(
                "{{\"shards\":{},\"fanout_topk\":{},",
                "\"barrier_wait_p99_us\":{},\"per_shard_qps\":[{}]}}"
            ),
            opt(u64_field(&server_stats, "shards")),
            opt(u64_field(&server_stats, "topk")),
            opt(u64_field(&server_stats, "barrier_wait_p99_us")),
            per_shard_qps.join(","),
        )
    } else {
        "null".to_string()
    };
    let json = format!(
        concat!(
            "{{\"bench\":\"tcp_serving\",\"schema_version\":2,",
            "\"addr\":\"{}\",\"requests\":{},\"completed\":{},\"conns\":{},",
            "\"sources\":{},\"topk\":{},",
            "\"elapsed_ms\":{:.3},\"queries_per_sec\":{:.1},",
            "\"p50_us\":{},\"p99_us\":{},\"errors\":{},",
            "\"router\":{},",
            "\"server_stats\":{},\"metrics_scrape\":\"{}\"}}"
        ),
        escape_json(&opts.connect),
        n,
        completed,
        conns,
        opts.sources,
        opts.topk,
        elapsed.as_secs_f64() * 1e3,
        qps,
        us(histogram.quantile(0.50)),
        us(histogram.quantile(0.99)),
        errored,
        router_json,
        server_stats,
        escape_json(&metrics_scrape),
    );
    println!("{json}");
    if let Some(path) = &opts.out {
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("simrank-client: wrote {path}");
    }
    if let Some(reply) = shutdown_reply {
        eprintln!("simrank-client: server drain acknowledged: {reply}");
    }

    // The CI gate: every request answered, nonzero throughput.
    if errored > 0 || completed != n {
        eprintln!("simrank-client: {errored} errors, {completed}/{n} completed");
        return Ok(ExitCode::FAILURE);
    }
    if qps <= 0.0 {
        eprintln!("simrank-client: zero throughput");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Scenario mode: expand `spec` into its deterministic plan and drive it.
///
/// Reads round-robin over the scenario's connections; writes and commits
/// stay in plan order on the first connection, so a commit can never
/// overtake the writes it publishes. Open-loop plans additionally carry an
/// arrival timetable: each operation waits for its scheduled send time and
/// its latency is measured *from that schedule*, so a server that falls
/// behind shows the queueing delay instead of silently stretching the
/// request stream (coordinated omission).
fn run_scenario(opts: &Options, raw_spec: &str) -> Result<ExitCode, String> {
    let spec = parse_scenario(raw_spec)?;
    let plan = build_plan(&spec);
    let offsets = arrival_offsets(&spec, plan.len());
    let reads = plan.iter().filter(|op| op.is_read()).count() as u64;
    let writes = plan
        .iter()
        .filter(|op| matches!(op, Op::Write { .. }))
        .count() as u64;
    let commits = plan.iter().filter(|op| matches!(op, Op::Commit)).count() as u64;
    let conns = spec.conns.min(plan.len()).max(1);
    eprintln!(
        "simrank-client: scenario `{}`: {} ops ({reads} reads, {writes} writes, \
         {commits} commits) over {conns} conns{}",
        spec.name,
        plan.len(),
        match spec.rate {
            Some(rate) => format!(", open-loop at {rate}/s"),
            None => ", closed-loop".to_string(),
        }
    );

    // Partition: reads round-robin over all conns, writes/commits in plan
    // order on conn 0. Each item keeps its global plan index so open-loop
    // scheduling stays a single global timetable.
    let mut per_conn: Vec<Vec<(usize, String)>> = vec![Vec::new(); conns];
    let mut next_read_conn = 0usize;
    for (i, op) in plan.iter().enumerate() {
        let conn = if op.is_read() {
            next_read_conn = (next_read_conn + 1) % conns;
            next_read_conn
        } else {
            0
        };
        per_conn[conn].push((i, op.to_line(spec.topk)));
    }

    // Connect every socket before starting the clock, as in bench mode.
    let mut sessions = Vec::with_capacity(conns);
    for _ in 0..conns {
        sessions.push(connect(&opts.connect)?);
    }
    let pre_stats = sessions[0]
        .round_trip("stats")
        .map_err(|e| format!("stats: {e}"))?;

    let histogram = Arc::new(Histogram::default());
    let errors = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let offsets = offsets.map(Arc::new);
    let started = Instant::now();
    let threads: Vec<_> = sessions
        .into_iter()
        .zip(per_conn)
        .map(|(mut session, ops)| {
            let histogram = Arc::clone(&histogram);
            let errors = Arc::clone(&errors);
            let shed = Arc::clone(&shed);
            let offsets = offsets.clone();
            std::thread::spawn(move || {
                for (global, line) in ops {
                    // Open loop: wait for the scheduled arrival, then measure
                    // from the schedule. Closed loop: measure from the send.
                    let measure_from = match offsets.as_deref() {
                        Some(offsets) => {
                            let scheduled = offsets[global];
                            if let Some(wait) = scheduled.checked_sub(started.elapsed()) {
                                std::thread::sleep(wait);
                            }
                            scheduled
                        }
                        None => started.elapsed(),
                    };
                    match session.round_trip(&line) {
                        Ok(reply) if !reply.contains("\"error\"") => {
                            histogram.record(started.elapsed().saturating_sub(measure_from));
                        }
                        Ok(reply) if reply.contains("\"code\":\"capacity\"") => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(reply) => {
                            eprintln!("simrank-client: `{line}` failed: {reply}");
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            eprintln!("simrank-client: {line}: {e}");
                            errors.fetch_add(1, Ordering::Relaxed);
                            return None;
                        }
                    }
                }
                Some(session)
            })
        })
        .collect();
    let mut survivors: Vec<LineClient> = Vec::new();
    for thread in threads {
        if let Ok(Some(session)) = thread.join() {
            survivors.push(session);
        }
    }
    let elapsed = started.elapsed();

    let mut tail = survivors
        .into_iter()
        .next()
        .ok_or("every scenario connection died; no session left for stats")?;
    let server_stats = tail
        .round_trip("stats")
        .map_err(|e| format!("stats: {e}"))?;
    if server_stats.contains("\"error\"") {
        return Err(format!("unexpected stats reply: {server_stats}"));
    }
    let shutdown_reply = if opts.shutdown {
        Some(
            tail.round_trip("shutdown")
                .map_err(|e| format!("shutdown: {e}"))?,
        )
    } else {
        None
    };

    // Shed = capacity-coded replies on live sessions plus fresh connections
    // the server's accept loop turned away during the run.
    let rejected_delta = u64_field(&server_stats, "connections_rejected")
        .unwrap_or(0)
        .saturating_sub(u64_field(&pre_stats, "connections_rejected").unwrap_or(0));
    let shed = shed.load(Ordering::Relaxed) + rejected_delta;
    let completed = histogram.count();
    let errored = errors.load(Ordering::Relaxed);
    let qps = completed as f64 / elapsed.as_secs_f64().max(f64::EPSILON);
    let shed_rate = shed as f64 / (completed + shed).max(1) as f64;
    let us = |d: Option<Duration>| d.map_or("null".to_string(), |d| d.as_micros().to_string());
    let opt_u64 = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());

    let routed = server_stats.contains("\"per_shard\"");
    let router_json = if routed {
        let before = per_shard_requests(&pre_stats);
        let after = per_shard_requests(&server_stats);
        let per_shard_qps: Vec<String> = after
            .iter()
            .enumerate()
            .map(|(i, &post)| {
                let delta = post.saturating_sub(before.get(i).copied().unwrap_or(0));
                format!(
                    "{:.1}",
                    delta as f64 / elapsed.as_secs_f64().max(f64::EPSILON)
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"shards\":{},\"fanout_topk\":{},",
                "\"per_shard_qps\":[{}]}}"
            ),
            opt_u64(u64_field(&server_stats, "shards")),
            opt_u64(u64_field(&server_stats, "topk")),
            per_shard_qps.join(","),
        )
    } else {
        "null".to_string()
    };

    let json = format!(
        concat!(
            "{{\"bench\":\"scenario\",\"schema_version\":1,",
            "\"scenario\":\"{}\",\"spec\":\"{}\",\"addr\":\"{}\",",
            "\"plan_ops\":{},\"reads\":{},\"writes\":{},\"commits\":{},",
            "\"completed\":{},\"errors\":{},\"shed\":{},\"shed_rate\":{:.4},",
            "\"conns\":{},\"sources\":{},\"topk\":{},",
            "\"zipf_exponent\":{},\"read_mix\":{},\"rate\":{},\"open_loop\":{},",
            "\"seed\":{},\"elapsed_ms\":{:.3},\"qps\":{:.1},",
            "\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},",
            "\"router\":{},\"server_stats\":{}}}"
        ),
        escape_json(&spec.name),
        escape_json(raw_spec),
        escape_json(&opts.connect),
        plan.len(),
        reads,
        writes,
        commits,
        completed,
        errored,
        shed,
        shed_rate,
        conns,
        spec.sources,
        spec.topk,
        spec.zipf_exponent,
        spec.read_mix,
        spec.rate
            .map_or("null".to_string(), |rate| format!("{rate}")),
        spec.rate.is_some(),
        spec.seed,
        elapsed.as_secs_f64() * 1e3,
        qps,
        us(histogram.quantile(0.50)),
        us(histogram.quantile(0.99)),
        us(histogram.quantile(0.999)),
        router_json,
        server_stats,
    );
    println!("{json}");
    if let Some(path) = &opts.out {
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("simrank-client: wrote {path}");
    }
    if let Some(reply) = shutdown_reply {
        eprintln!("simrank-client: server drain acknowledged: {reply}");
    }

    // The CI gate: no hard errors, every operation accounted for (answered
    // or explicitly shed), and qps within the baseline's noise floor.
    if errored > 0 || completed + shed != plan.len() as u64 {
        eprintln!(
            "simrank-client: {errored} errors, {completed}+{shed} of {} ops accounted for",
            plan.len()
        );
        return Ok(ExitCode::FAILURE);
    }
    if qps <= 0.0 {
        eprintln!("simrank-client: zero throughput");
        return Ok(ExitCode::FAILURE);
    }
    if let Some(path) = &opts.baseline {
        let baseline =
            std::fs::read_to_string(path).map_err(|e| format!("baseline {path}: {e}"))?;
        let baseline_qps = f64_field(&baseline, "qps")
            .ok_or_else(|| format!("baseline {path}: no `qps` field"))?;
        let floor = baseline_qps / opts.max_regression;
        if qps < floor {
            eprintln!(
                "simrank-client: qps {qps:.1} below baseline floor {floor:.1} \
                 (baseline {baseline_qps:.1} / {})",
                opts.max_regression
            );
            return Ok(ExitCode::FAILURE);
        }
        eprintln!(
            "simrank-client: qps {qps:.1} within baseline floor {floor:.1} \
             (baseline {baseline_qps:.1})"
        );
    }
    Ok(ExitCode::SUCCESS)
}
