//! The untraced run: real `simrank-serve` processes, one client process,
//! every reply checked, every plan-fixed count checked.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use exactsim::exactsim::ExactSimConfig;
use exactsim_graph::{DiGraph, NodeId};
use exactsim_service::{AlgorithmKind, GraphStore, ServiceConfig, SimRankService};

use crate::json::Json;
use crate::plan::{Op, Plan, Rng, Workload, TOPK};
use crate::proc::{copy_dir, Conn, Fnv, Server};

/// Where a run keeps its files.
pub struct Env {
    /// The `simrank-serve` binary.
    pub serve_bin: PathBuf,
    /// Per-run scratch directory (server logs, TMPDIR, the prepared data
    /// dir and its copies); removed when the run ends.
    pub run_dir: PathBuf,
    /// The prepared data dir, built in `run_dir` by this run's code; every
    /// `update_mix` boot starts from a copy of it.
    pub prepared: PathBuf,
}

/// The server's default configuration (`simrank-serve` with no tuning
/// flags), for the in-process reference and the traced replay.
pub fn server_config() -> ServiceConfig {
    ServiceConfig {
        exactsim: ExactSimConfig {
            epsilon: 1e-2,
            walk_budget: Some(2_000_000),
            ..ExactSimConfig::default()
        },
        prsim: exactsim::prsim::PrSimConfig {
            epsilon: 1e-2,
            ..Default::default()
        },
        ..ServiceConfig::default()
    }
}

/// Counters read from one serving process's `stats` (and `metrics`).
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    queries: u64,
    cache_hits: u64,
    computations: u64,
    dedup_joins: u64,
    errors: u64,
    commits: u64,
    staged: u64,
    walk_pairs: u64,
}

impl Counters {
    fn read(conn: &mut Conn) -> Result<Counters, String> {
        let stats = conn.request_json("stats\n")?;
        Ok(Counters {
            queries: stats.u64_at("queries")?,
            cache_hits: stats.u64_at("cache_hits")?,
            computations: stats.u64_at("computations")?,
            dedup_joins: stats.u64_at("dedup_joins")?,
            errors: stats.u64_at("errors")?,
            commits: stats.u64_at("commit_requests")?,
            staged: stats.u64_at("updates_staged")?,
            walk_pairs: conn.walk_pairs()?,
        })
    }

    fn plus(&self, other: &Counters) -> Counters {
        Counters {
            queries: self.queries + other.queries,
            cache_hits: self.cache_hits + other.cache_hits,
            computations: self.computations + other.computations,
            dedup_joins: self.dedup_joins + other.dedup_joins,
            errors: self.errors + other.errors,
            commits: self.commits + other.commits,
            staged: self.staged + other.staged,
            walk_pairs: self.walk_pairs + other.walk_pairs,
        }
    }

    fn minus(&self, base: &Counters) -> Counters {
        Counters {
            queries: self.queries - base.queries,
            cache_hits: self.cache_hits - base.cache_hits,
            computations: self.computations - base.computations,
            dedup_joins: self.dedup_joins - base.dedup_joins,
            errors: self.errors - base.errors,
            commits: self.commits - base.commits,
            staged: self.staged - base.staged,
            walk_pairs: self.walk_pairs - base.walk_pairs,
        }
    }
}

/// Everything one untraced run measured and checked.
#[derive(Debug, Default)]
pub struct RunReport {
    pub setup_s: Vec<f64>,
    /// Client latency of every timed read, in plan order.
    pub read_us: Vec<f64>,
    /// Wall time of the timed phase, summed over the rounds.
    pub read_wall_s: f64,
    pub commit_us: Vec<f64>,
    /// Peak RSS of each round, summed over the round's processes.
    pub rss_rounds_mib: Vec<f64>,
    pub attempted: u64,
    pub errors: u64,
    pub lost: u64,
    pub wrong: u64,
    /// Plan-count mismatches and failed reference comparisons.
    pub problems: Vec<String>,
    /// `(name, value)` counts the plan fixes, printed for diffing.
    pub counts: Vec<(String, u64)>,
    pub digest: u64,
    /// Kernel walk pairs summed over the serving processes: during set-up's
    /// warm-up (of the last boot that serves a round) and during the timed
    /// phase (summed over the rounds).
    pub warmup_walk_pairs: u64,
    pub timed_walk_pairs: u64,
    /// Serving processes that run a `SimRankService` (2 behind the router).
    pub backends: usize,
    /// Cache hits ÷ queries over the timed phase, summed over processes.
    pub hit_ratio: f64,
    /// Kernel runs per commit over the phase that commits.
    pub recomputes_per_commit: f64,
    /// Queries per client read over the timed phase, summed over serving
    /// processes (2 behind today's router: every replica answers).
    pub shard_calls_per_read: f64,
}

/// The booted processes of one set-up.
struct Topology {
    /// Shards first, front-end (router or the single server) last.
    servers: Vec<Server>,
    /// Indices of the processes that run a `SimRankService`.
    backends: Vec<usize>,
}

impl Topology {
    fn front(&self) -> &Server {
        self.servers.last().expect("a topology has a front-end")
    }

    fn shutdown(mut self) -> Result<(), String> {
        // Front-end first: shards outlive a router by design.
        let mut result = Ok(());
        while let Some(mut server) = self.servers.pop() {
            if let Err(e) = server.shutdown() {
                result = result.and(Err(e));
            }
        }
        result
    }
}

fn graph_args() -> Vec<String> {
    ["--dataset", "IC", "--scale", "0.005"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// Boots one set-up's processes. `data_dir` is the fresh data-dir copy of
/// `update_mix`.
fn boot(plan: &Plan, env: &Env, data_dir: &Path) -> Result<Topology, String> {
    let tmp = env.run_dir.join("tmp");
    let bin = &env.serve_bin;
    let mut args = graph_args();
    match plan.workload {
        Workload::ColdExact => {}
        Workload::UpdateMix => {
            args.extend(["--data-dir".into(), data_dir.display().to_string()]);
        }
        Workload::HotTopkRouted => {
            let shards = vec![
                Server::spawn(bin, "shard0", &args, &env.run_dir, &tmp)?,
                Server::spawn(bin, "shard1", &args, &env.run_dir, &tmp)?,
            ];
            let of = format!("{},{}", shards[0].addr, shards[1].addr);
            let router_args = vec!["--shard-of".to_string(), of];
            let mut servers = shards;
            servers.push(Server::spawn(
                bin,
                "router",
                &router_args,
                &env.run_dir,
                &tmp,
            )?);
            return Ok(Topology {
                servers,
                backends: vec![0, 1],
            });
        }
    }
    Ok(Topology {
        servers: vec![Server::spawn(bin, "server", &args, &env.run_dir, &tmp)?],
        backends: vec![0],
    })
}

/// Strips the wall-clock `query_time_us` field, leaving node ids and scores.
pub fn canonical(reply: &str) -> String {
    match reply.find("\"query_time_us\":") {
        Some(start) => {
            let rest = &reply[start..];
            let end = rest.find(',').map_or(rest.len(), |i| i + 1);
            format!("{}{}", &reply[..start], &rest[end..])
        }
        None => reply.to_string(),
    }
}

enum Verdict {
    Ok,
    /// The server answered with an `{"error",...}` reply.
    Error(String),
    /// The server answered, but wrongly.
    Wrong(String),
}

fn check_read(reply: &str, src: NodeId, epoch: u64, n: usize) -> Verdict {
    let json = match Json::parse(reply) {
        Ok(json) => json,
        Err(e) => return Verdict::Wrong(format!("unparseable reply ({e}): {reply:.120}")),
    };
    if json.get("error").is_some() {
        return Verdict::Error(reply.to_string());
    }
    let shape = (|| -> Result<(), String> {
        if json.u64_at("source")? != u64::from(src) || json.u64_at("k")? != TOPK as u64 {
            return Err("wrong source or k".into());
        }
        if json.u64_at("epoch")? != epoch {
            return Err(format!(
                "epoch {} instead of {epoch}",
                json.u64_at("epoch")?
            ));
        }
        let results = json
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("no results")?;
        if results.len() != TOPK {
            return Err(format!("{} results", results.len()));
        }
        let mut last = f64::INFINITY;
        for entry in results {
            let node = entry.u64_at("node")?;
            let score = entry
                .get("score")
                .and_then(Json::as_f64)
                .ok_or("no score")?;
            if node == u64::from(src) || node >= n as u64 || !score.is_finite() || score > last {
                return Err(format!("bad entry node {node} score {score}"));
            }
            last = score;
        }
        Ok(())
    })();
    match shape {
        Ok(()) => Verdict::Ok,
        Err(e) => Verdict::Wrong(format!("topk {src}: {e}")),
    }
}

fn check_write(reply: &str, op: &Op, epoch: Option<u64>) -> Verdict {
    let json = match Json::parse(reply) {
        Ok(json) => json,
        Err(e) => return Verdict::Wrong(format!("unparseable reply ({e}): {reply:.120}")),
    };
    if json.get("error").is_some() {
        return Verdict::Error(reply.to_string());
    }
    let ok = match op {
        Op::Commit => {
            json.get("advanced") == Some(&Json::Bool(true))
                && json.get("epoch").and_then(Json::as_u64) == epoch
        }
        _ => json.get("staged").and_then(Json::as_str) == Some("pending"),
    };
    if ok {
        Verdict::Ok
    } else {
        Verdict::Wrong(format!("`{}` answered {reply:.160}", op.line().trim_end()))
    }
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1000.0
}

/// One timed op's outcome on the wire.
struct Sent {
    index: usize,
    micros: f64,
    reply: Result<String, String>,
}

fn send_all(conn: &mut Conn, plan: &Plan, indices: impl Iterator<Item = usize>) -> Vec<Sent> {
    let mut out = Vec::new();
    for index in indices {
        let line = plan.timed[index].line();
        let start = Instant::now();
        let reply = conn.round_trip(&line).map(str::to_string);
        let micros = micros(start.elapsed());
        let lost = reply.is_err();
        out.push(Sent {
            index,
            micros,
            reply: reply.map_err(|e| e.to_string()),
        });
        if lost {
            break;
        }
    }
    out
}

/// Runs one workload end to end on fresh server processes.
pub fn run(plan: &Plan, env: &Env, graph: &Arc<DiGraph>) -> Result<RunReport, String> {
    std::fs::create_dir_all(env.run_dir.join("tmp")).map_err(|e| e.to_string())?;
    let mut report = RunReport::default();
    let n = graph.num_nodes();

    // Set-up, several times: boot, connect, warm up. Each boot then serves
    // its round of the timed phase (possibly none) and is shut down.
    let mut sent: Vec<Sent> = Vec::new();
    let mut timed: Vec<Counters> = Vec::new();
    let mut rss_mib = Vec::new();
    for (i, round) in plan.rounds.iter().cloned().enumerate() {
        let data_dir = env.run_dir.join(format!("data-{i}"));
        if plan.workload == Workload::UpdateMix {
            copy_dir(&env.prepared, &data_dir)?;
        }
        let start = Instant::now();
        let topo = boot(plan, env, &data_dir)?;
        let mut conns = (0..plan.workload.conns())
            .map(|_| Conn::connect(&topo.front().addr))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        for &src in &plan.warmup {
            let reply = conns[0]
                .round_trip(&Op::Read(src).line())
                .map_err(|e| e.to_string())?;
            if let Verdict::Error(e) | Verdict::Wrong(e) =
                check_read(reply, src, plan.base_epoch, n)
            {
                return Err(format!("warm-up read failed: {e}"));
            }
        }
        report.setup_s.push(start.elapsed().as_secs_f64());
        if !round.is_empty() {
            let mut admin: Vec<Conn> = topo
                .backends
                .iter()
                .map(|&i| Conn::connect(&topo.servers[i].addr).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            let before: Vec<Counters> = admin
                .iter_mut()
                .map(Counters::read)
                .collect::<Result<_, _>>()?;
            report.warmup_walk_pairs = before.iter().map(|c| c.walk_pairs).sum();
            report.backends = before.len();

            // The round: closed loop, one thread per connection.
            let start = Instant::now();
            let count = conns.len();
            sent.extend(std::thread::scope(|scope| {
                let handles: Vec<_> = conns
                    .iter_mut()
                    .enumerate()
                    .map(|(c, conn)| {
                        let ops = round.clone().skip(c).step_by(count);
                        scope.spawn(move || send_all(conn, plan, ops))
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread panicked"))
                    .collect::<Vec<_>>()
            }));
            report.read_wall_s += start.elapsed().as_secs_f64();

            // Peak RSS right after the round, before anything else allocates.
            let mut rss_kib = 0;
            for server in &topo.servers {
                rss_kib += server.vm_hwm_kib()?;
            }
            rss_mib.push(rss_kib as f64 / 1024.0);
            let after: Vec<Counters> = admin
                .iter_mut()
                .map(Counters::read)
                .collect::<Result<_, _>>()?;
            let deltas = after.iter().zip(&before).map(|(a, b)| a.minus(b));
            timed = if timed.is_empty() {
                deltas.collect()
            } else {
                timed.iter().zip(deltas).map(|(t, d)| t.plus(&d)).collect()
            };
        }
        drop(conns);
        topo.shutdown()?;
    }
    report.rss_rounds_mib = rss_mib;
    sent.sort_by_key(|s| s.index);

    // Check every reply; keep one canonical answer per (graph history,
    // source, epoch).
    let epochs = plan.expected_epochs();
    let mut answers = Answers::new();
    let mut digest = Fnv::new();
    report.attempted = plan.timed.len() as u64;
    report.lost = (plan.timed.len() - sent.len()) as u64;
    for s in &sent {
        let op = plan.timed[s.index];
        let reply = match &s.reply {
            Ok(reply) => reply,
            Err(e) => {
                report.lost += 1;
                report.problems.push(format!("connection lost: {e}"));
                continue;
            }
        };
        let verdict = match op {
            Op::Read(src) => {
                report.read_us.push(s.micros);
                let epoch = epochs[s.index].expect("reads carry an epoch");
                let verdict = check_read(reply, src, epoch, n);
                if let Verdict::Ok = verdict {
                    let answer = canonical(reply);
                    digest.add(&(s.index as u64).to_le_bytes());
                    digest.add(answer.as_bytes());
                    let first = answers
                        .entry((plan.history(s.index), src, epoch))
                        .or_insert_with(|| answer.clone());
                    if *first != answer {
                        report.wrong += 1;
                        report
                            .problems
                            .push(format!("topk {src} answered differently at epoch {epoch}"));
                    }
                }
                verdict
            }
            Op::Commit => {
                report.commit_us.push(s.micros);
                digest.add(&epochs[s.index].unwrap_or(0).to_le_bytes());
                check_write(reply, &op, epochs[s.index])
            }
            _ => check_write(reply, &op, None),
        };
        report.tally(verdict);
    }
    report.digest = digest.0;

    check_counts(plan, &timed, &mut report);
    verify_sample(plan, env, graph, &answers, &mut report)?;
    Ok(report)
}

impl RunReport {
    fn tally(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Ok => {}
            Verdict::Error(e) => {
                self.errors += 1;
                self.problems.push(format!("error reply: {e:.160}"));
            }
            Verdict::Wrong(e) => {
                self.wrong += 1;
                self.problems.push(e);
            }
        }
    }
}

/// What the plan fixes about one printed count.
enum Fixed {
    Exactly(u64),
    AtLeast(u64),
    /// Plan-determined but not in closed form: printed for diffing (walk
    /// pairs are checked by the traced run's replay).
    Printed,
}

/// Compares the servers' counter deltas over the timed phase (per serving
/// process of a set-up, summed over the rounds) with what the plan fixes. With one
/// serving process every count is fixed. Behind the router only the sums
/// are: how it spreads reads over its replicas is the router's own business
/// (shown by `router.shard_calls_per_read`), but every read reaches some
/// replica and none runs the kernel.
fn check_counts(plan: &Plan, timed: &[Counters], report: &mut RunReport) {
    use Fixed::{AtLeast, Exactly, Printed};
    let reads = plan.reads() as u64;
    let computations = plan.expected_computations() as u64;
    let total = |f: fn(&Counters) -> u64| timed.iter().map(f).sum::<u64>();
    let routed = timed.len() > 1;
    let mut rows = vec![
        (
            "reads".to_string(),
            report.read_us.len() as u64,
            Exactly(reads),
        ),
        (
            "queries".into(),
            total(|c| c.queries),
            if routed {
                AtLeast(reads)
            } else {
                Exactly(reads)
            },
        ),
        (
            "cache_hits".into(),
            total(|c| c.cache_hits),
            if routed {
                AtLeast(reads)
            } else {
                Exactly(reads - computations)
            },
        ),
        (
            "computations".into(),
            total(|c| c.computations),
            Exactly(computations),
        ),
        ("dedup_joins".into(), total(|c| c.dedup_joins), Exactly(0)),
        ("server_errors".into(), total(|c| c.errors), Exactly(0)),
        (
            "walk_pairs".into(),
            total(|c| c.walk_pairs),
            match plan.workload {
                Workload::HotTopkRouted => Exactly(0),
                _ => Printed,
            },
        ),
    ];
    for (i, t) in timed.iter().enumerate() {
        // Writes and commits reach every replica.
        let p = if routed {
            format!("shard{i}.")
        } else {
            String::new()
        };
        rows.push((
            format!("{p}writes"),
            t.staged,
            Exactly(plan.writes() as u64),
        ));
        rows.push((
            format!("{p}commits"),
            t.commits,
            Exactly(plan.commits() as u64),
        ));
        if routed {
            rows.push((format!("{p}queries"), t.queries, Printed));
        }
    }
    for (name, got, want) in rows {
        let fixed = match want {
            Exactly(want) if got != want => Some(want.to_string()),
            AtLeast(want) if got < want => Some(format!("at least {want}")),
            _ => None,
        };
        if let Some(fixed) = fixed {
            report
                .problems
                .push(format!("count {name} = {got}, plan fixes {fixed}"));
        }
        report.counts.push((name, got));
    }
    report.timed_walk_pairs = total(|c| c.walk_pairs);
    let sum = |f: fn(&Counters) -> u64| total(f) as f64;
    report.hit_ratio = sum(|c| c.cache_hits) / sum(|c| c.queries).max(1.0);
    report.shard_calls_per_read = sum(|c| c.queries) / (reads.max(1) as f64);
    // Read-only plans never commit: no recomputes are due to commits.
    report.recomputes_per_commit = match plan.commits() {
        0 => 0.0,
        commits => sum(|c| c.computations) / commits as f64,
    };
}

/// Canonical answers by (graph history, source, epoch).
type Answers = HashMap<(usize, NodeId, u64), String>;

/// Compares a seeded sample of the answers at the last round's final epoch
/// bit-for-bit with an in-process `SimRankService` on the same graph and
/// epoch.
fn verify_sample(
    plan: &Plan,
    env: &Env,
    graph: &Arc<DiGraph>,
    answers: &Answers,
    report: &mut RunReport,
) -> Result<(), String> {
    let history = plan.history(plan.timed.len().saturating_sub(1));
    let writes: &[Op] = match plan.workload {
        Workload::UpdateMix => &plan.timed[plan.rounds[history].clone()],
        _ => &[],
    };
    let final_epoch =
        plan.base_epoch + writes.iter().filter(|op| **op == Op::Commit).count() as u64;
    let mut keys: Vec<&(usize, NodeId, u64)> = answers
        .keys()
        .filter(|&&(h, _, e)| h == history && e == final_epoch)
        .collect();
    keys.sort();
    let mut rng = Rng::new(plan.seed ^ 0x0E21_F1ED);
    rng.shuffle(&mut keys);
    keys.truncate(3);
    if keys.is_empty() {
        report.problems.push("no answers to verify".into());
        return Ok(());
    }
    let service = if plan.workload == Workload::UpdateMix {
        // Recover a copy of the prepared dir and replay the round's writes.
        let dir = env.run_dir.join("reference");
        copy_dir(&env.prepared, &dir)?;
        let store = GraphStore::open(&dir).map_err(|e| e.to_string())?;
        let service = SimRankService::with_store(Arc::new(store), server_config())
            .map_err(|e| e.to_string())?;
        for op in writes {
            let staged = match *op {
                Op::Add(u, v) => service.store().stage_insert(u, v).map(|_| ()),
                Op::Del(u, v) => service.store().stage_delete(u, v).map(|_| ()),
                Op::Commit => service.commit().map(|_| ()),
                Op::Read(_) => Ok(()),
            };
            staged.map_err(|e| format!("reference replay: {e}"))?;
        }
        service
    } else {
        SimRankService::new(Arc::clone(graph), server_config()).map_err(|e| e.to_string())?
    };
    for &&key @ (_, src, epoch) in &keys {
        let reference = service
            .top_k(AlgorithmKind::ExactSim, src, TOPK)
            .map_err(|e| e.to_string())?;
        if reference.epoch != epoch || canonical(&reference.to_json()) != answers[&key] {
            report.wrong += 1;
            report.problems.push(format!(
                "topk {src} at epoch {epoch} differs from the in-process service"
            ));
        }
    }
    report
        .counts
        .push(("verified_answers".into(), keys.len() as u64));
    Ok(())
}
