//! `simrank-client` — TCP client for a `simrank-serve --listen` server:
//! an operator REPL and the workload-scenario load driver in one binary.
//!
//! ```text
//! simrank-client --connect ADDR                          # REPL (default)
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
//! **Scenario mode** (`--scenario SPEC`) drives a workload model from
//! [`exactsim_router::scenario`]: `SPEC` is a built-in scenario name plus
//! `key=value` overrides (e.g. `steady_read,requests=400,conns=8`, the
//! uniform closed-loop `topk` hammer, or `read_mostly,requests=2000,zipf=1.5`)
//! combining Zipfian source popularity, a read/write mix with periodic
//! commits, a weighted algorithm mix, and optionally an open-loop Poisson
//! arrival schedule with burst phases. The plan is expanded
//! deterministically from the scenario seed, reads fan out over the
//! scenario's connections while writes and commits stay ordered on the
//! first, and open-loop latency is measured from each request's
//! *scheduled* arrival time so queueing delay under overload is not
//! coordination-masked.
//!
//! The result is one JSON object (printed, and written to `--out`) with
//! `qps`; `p50_us`/`p99_us`/`p999_us`, nearest-rank values over every
//! answered request's measured latency; the read/write/commit counts; the
//! shed count and `shed_rate` (capacity-coded replies plus the server's
//! `connections_rejected` delta over the run); the server's `stats` reply
//! as `server_stats`; and a final Prometheus `metrics` scrape, JSON-escaped,
//! as `metrics_scrape`. When the server turns out to be a **router**
//! (`--shard-of`; detected from the `per_shard` breakdown in its `stats`
//! reply), the JSON also embeds a `router` object: shard count, the `topk`
//! fan-out total (one shard call per routed `topk`), the barrier-wait p99,
//! and per-shard qps from the pre/post-run per-shard request deltas.
//!
//! The process exits nonzero on any hard error, on any operation neither
//! answered nor shed, on zero throughput, on a `stats` reply without
//! `queries`, on a scrape without the host's own series
//! (`simrank_queries_total` on a server, `simrank_router_fanout_total` on a
//! router), and — with `--baseline PATH` — when qps drops below the
//! baseline artifact's `qps / --max-regression` (default 4.0, a
//! deliberately generous noise floor for shared CI runners).
//!
//! `--shutdown` sends the `shutdown` command after the run (or REPL EOF),
//! asking the server to drain gracefully — CI uses it to assert a clean
//! server exit.

use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use exactsim_obs::json::escape_json;
use exactsim_router::scenario::{self, arrival_offsets, build_plan, parse_scenario};
use exactsim_router::wire::{f64_field, u64_field};
use exactsim_service::net::LineClient;
use exactsim_service::Request;

struct Options {
    connect: String,
    scenario: Option<String>,
    out: Option<String>,
    baseline: Option<String>,
    max_regression: f64,
    shutdown: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            connect: String::new(),
            scenario: None,
            out: None,
            baseline: None,
            max_regression: 4.0,
            shutdown: false,
        }
    }
}

const HELP: &str = "simrank-client: TCP client / load driver for simrank-serve --listen\n\
  --connect ADDR   server address, e.g. 127.0.0.1:7878 (required)\n\
  --scenario SPEC  drive a named workload model, e.g. steady_read,requests=400,conns=8\n\
                   or read_mostly,requests=2000,zipf=1.5 (see `--scenario help`)\n\
  --out PATH       also write the scenario JSON to PATH\n\
  --baseline PATH  gate qps against a previous scenario artifact\n\
  --max-regression F  baseline noise floor: fail below baseline/F (default 4)\n\
  --shutdown       send `shutdown` when done (graceful server drain)\n\
against a router (--shard-of) the scenario JSON embeds a `router` object\n\
with per-shard qps, fan-out and barrier p99\n\
without --scenario: REPL — forward stdin lines, print reply lines";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    fn next_value(flag: &str, args: &mut dyn Iterator<Item = String>) -> Result<String, String> {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => opts.connect = next_value("--connect", &mut args)?,
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
    Ok(opts)
}

fn connect(addr: &str) -> Result<LineClient, String> {
    LineClient::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))
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
    let body = &body[..end];
    body.match_indices("\"requests\":")
        .filter_map(|(at, _)| u64_field(&body[at..], "requests"))
        .collect()
}

/// The nearest-rank `q`-quantile of `sorted` in whole microseconds: always
/// one of the measured latencies, `null` when nothing was answered.
fn quantile_us(sorted: &[Duration], q: f64) -> String {
    if sorted.is_empty() {
        return "null".to_string();
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_micros().to_string()
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("simrank-client: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &opts.scenario {
        Some(spec) => run_scenario(&opts, spec),
        None => repl(&opts),
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

/// What one connection's thread brings back: the measured latency of every
/// answered request, its error and shed counts, and its session while the
/// socket is still open (the tail requests after the run reuse it).
struct ConnOutcome {
    latencies: Vec<Duration>,
    errors: u64,
    shed: u64,
    session: Option<LineClient>,
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
    let is_read =
        |request: &Request| matches!(request, Request::Query { .. } | Request::TopK { .. });
    let reads = plan.iter().filter(|request| is_read(request)).count() as u64;
    let commits = plan
        .iter()
        .filter(|request| matches!(request, Request::Commit))
        .count() as u64;
    let writes = plan.len() as u64 - reads - commits;
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
    for (i, request) in plan.iter().enumerate() {
        let conn = if is_read(request) {
            next_read_conn = (next_read_conn + 1) % conns;
            next_read_conn
        } else {
            0
        };
        per_conn[conn].push((i, request.to_line()));
    }

    // Connect every socket before starting the clock: the run measures
    // serving, not connection setup, and a refused socket fails fast here.
    let mut sessions = Vec::with_capacity(conns);
    for _ in 0..conns {
        sessions.push(connect(&opts.connect)?);
    }
    // A pre-run stats snapshot: the per-shard request and rejected-connection
    // deltas across the run window are computed from it (one extra request
    // on the first socket; not timed).
    let pre_stats = sessions[0]
        .round_trip("stats")
        .map_err(|e| format!("stats: {e}"))?;

    let offsets = offsets.map(Arc::new);
    let started = Instant::now();
    let threads: Vec<_> = sessions
        .into_iter()
        .zip(per_conn)
        .map(|(mut session, ops)| {
            let offsets = offsets.clone();
            std::thread::spawn(move || {
                let mut outcome = ConnOutcome {
                    latencies: Vec::with_capacity(ops.len()),
                    errors: 0,
                    shed: 0,
                    session: None,
                };
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
                        Ok(reply) if !reply.contains("\"error\"") => outcome
                            .latencies
                            .push(started.elapsed().saturating_sub(measure_from)),
                        Ok(reply) if reply.contains("\"code\":\"capacity\"") => outcome.shed += 1,
                        Ok(reply) => {
                            eprintln!("simrank-client: `{line}` failed: {reply}");
                            outcome.errors += 1;
                        }
                        Err(e) => {
                            eprintln!("simrank-client: {line}: {e}");
                            outcome.errors += 1;
                            return outcome;
                        }
                    }
                }
                outcome.session = Some(session);
                outcome
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(plan.len());
    let (mut errored, mut shed) = (0u64, 0u64);
    let mut survivors: Vec<LineClient> = Vec::new();
    for thread in threads {
        // A panicked thread's operations stay unaccounted for, which the
        // gate below turns into a failure.
        if let Ok(outcome) = thread.join() {
            latencies.extend(outcome.latencies);
            errored += outcome.errors;
            shed += outcome.shed;
            survivors.extend(outcome.session);
        }
    }
    let elapsed = started.elapsed();
    latencies.sort_unstable();

    // Server-side view (and the shutdown) over a surviving session: a fresh
    // connection could be load-shed while the server is at --max-conns
    // (handlers release their permits one read-poll tick after the run's
    // sockets close).
    let mut tail = survivors
        .into_iter()
        .next()
        .ok_or("every scenario connection died; no session left for stats")?;
    let server_stats = tail
        .round_trip("stats")
        .map_err(|e| format!("stats: {e}"))?;
    if server_stats.contains("\"error\"") || !server_stats.contains("\"queries\"") {
        return Err(format!("unexpected stats reply: {server_stats}"));
    }
    // A final Prometheus scrape rides along in the artifact, so a CI run's
    // JSON carries the complete post-load series state. What the scrape
    // must contain depends on who answered: a single service counts
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

    // Shed = capacity-coded replies on live sessions plus fresh connections
    // the server's accept loop turned away during the run.
    let rejected_delta = u64_field(&server_stats, "connections_rejected")
        .unwrap_or(0)
        .saturating_sub(u64_field(&pre_stats, "connections_rejected").unwrap_or(0));
    let shed = shed + rejected_delta;
    let completed = latencies.len() as u64;
    let secs = elapsed.as_secs_f64().max(f64::EPSILON);
    let qps = completed as f64 / secs;
    let shed_rate = shed as f64 / (completed + shed).max(1) as f64;
    let opt_u64 = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());

    // The router breakdown: shard count, topk fan-out, barrier p99, and
    // per-shard qps over the run window from the request-counter deltas.
    let router_json = if routed {
        let before = per_shard_requests(&pre_stats);
        let per_shard_qps: Vec<String> = per_shard_requests(&server_stats)
            .iter()
            .enumerate()
            .map(|(i, &post)| {
                let delta = post.saturating_sub(before.get(i).copied().unwrap_or(0));
                format!("{:.1}", delta as f64 / secs)
            })
            .collect();
        format!(
            concat!(
                "{{\"shards\":{},\"fanout_topk\":{},",
                "\"barrier_wait_p99_us\":{},\"per_shard_qps\":[{}]}}"
            ),
            opt_u64(u64_field(&server_stats, "shards")),
            opt_u64(u64_field(&server_stats, "topk")),
            opt_u64(u64_field(&server_stats, "barrier_wait_p99_us")),
            per_shard_qps.join(","),
        )
    } else {
        "null".to_string()
    };

    let json = format!(
        concat!(
            "{{\"bench\":\"scenario\",\"schema_version\":2,",
            "\"scenario\":\"{}\",\"spec\":\"{}\",\"addr\":\"{}\",",
            "\"plan_ops\":{},\"reads\":{},\"writes\":{},\"commits\":{},",
            "\"completed\":{},\"errors\":{},\"shed\":{},\"shed_rate\":{:.4},",
            "\"conns\":{},\"sources\":{},\"topk\":{},",
            "\"zipf_exponent\":{},\"read_mix\":{},\"rate\":{},\"open_loop\":{},",
            "\"seed\":{},\"elapsed_ms\":{:.3},\"qps\":{:.1},",
            "\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},",
            "\"router\":{},\"server_stats\":{},\"metrics_scrape\":\"{}\"}}"
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
        quantile_us(&latencies, 0.50),
        quantile_us(&latencies, 0.99),
        quantile_us(&latencies, 0.999),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank_samples() {
        let sorted: Vec<Duration> = (1..=1000).map(Duration::from_micros).collect();
        assert_eq!(quantile_us(&sorted, 0.50), "500");
        assert_eq!(quantile_us(&sorted, 0.99), "990");
        assert_eq!(quantile_us(&sorted, 0.999), "999");
        assert_eq!(quantile_us(&sorted[..3], 0.50), "2");
        assert_eq!(quantile_us(&sorted[..1], 0.999), "1");
        assert_eq!(quantile_us(&[], 0.50), "null");
    }

    #[test]
    fn per_shard_requests_reads_each_entry_in_order() {
        let stats = concat!(
            "{\"shards\":2,\"queries\":9,\"per_shard\":[",
            "{\"addr\":\"a\",\"requests\":5,\"errors\":0},",
            "{\"addr\":\"b\",\"requests\":4,\"errors\":1}]}"
        );
        assert_eq!(per_shard_requests(stats), vec![5, 4]);
        assert!(per_shard_requests("{\"queries\":3}").is_empty());
    }
}
