//! `perfbench` — the serving benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --bin-dir DIR --state-dir DIR
//! ```
//!
//! `--bin-dir` holds the built `simrank-serve`; `--state-dir` keeps the
//! per-run scratch directories and the span files. The last stdout line is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`. The
//! exit code is non-zero on a wrong answer, an error reply, a lost
//! connection or a plan-count mismatch.

mod json;
mod plan;
mod proc;
mod traced;
mod workloads;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use exactsim_graph::DiGraph;
use exactsim_service::GraphStore;

use crate::plan::{prep_records, Plan, Workload, PREP_WAL_RECORDS};
use crate::proc::dir_digest;
use crate::workloads::{Env, RunReport};

/// The paper's IndoChina stand-in at this scale: 37,074 nodes, 958,038 edges.
const DATASET: &str = "IC";
const SCALE: f64 = 0.005;
const NODES: usize = 37_074;
const EDGES: usize = 958_038;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
    state_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut state_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--state-dir" => state_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let need = |name: &str| format!("missing {name}");
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.unwrap_or(false),
        bin_dir: bin_dir.ok_or_else(|| need("--bin-dir"))?,
        state_dir: state_dir.ok_or_else(|| need("--state-dir"))?,
    })
}

fn ic_graph() -> Result<DiGraph, String> {
    let spec = exactsim_datasets::dataset_by_key(DATASET).ok_or("no IC dataset")?;
    let graph = spec
        .generate_scaled(SCALE)
        .map_err(|e| e.to_string())?
        .graph;
    if (graph.num_nodes(), graph.num_edges()) != (NODES, EDGES) {
        return Err(format!(
            "IC@{SCALE} generated {} nodes / {} edges, expected {NODES} / {EDGES}",
            graph.num_nodes(),
            graph.num_edges()
        ));
    }
    Ok(graph)
}

/// Builds the prepared data dir at `dir` with this run's code: a snapshot of
/// the graph plus `PREP_WAL_RECORDS` WAL records from a fixed seed.
fn prepare(dir: &Path, graph: &Arc<DiGraph>) -> Result<(), String> {
    let store = GraphStore::create(dir, Arc::clone(graph)).map_err(|e| e.to_string())?;
    for record in prep_records(graph) {
        for (u, v) in record {
            store.stage_insert(u, v).map_err(|e| e.to_string())?;
        }
        store.commit().map_err(|e| e.to_string())?;
    }
    let records = store.durability().map_or(0, |d| d.wal_records);
    if records != PREP_WAL_RECORDS as u64 {
        return Err(format!("prepared dir has {records} WAL records"));
    }
    Ok(())
}

/// Nearest-rank quantile: always one of the measured values (0 when a lost
/// connection left none; the run then fails anyway).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

fn json_line(correct: bool, report: &RunReport, metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.errors + report.lost + report.wrong,
        fields.join(", ")
    )
}

fn end_to_end(report: &RunReport) -> Vec<(&'static str, f64, &'static str)> {
    // Drift check: a noisy neighbour shows as one slow quarter.
    let quarters: Vec<String> = report
        .read_us
        .chunks(report.read_us.len().div_ceil(4).max(1))
        .map(|q| format!("{:.0}", q.iter().sum::<f64>() / q.len() as f64))
        .collect();
    println!(
        "mean read us by quarter of the timed phase: {}",
        quarters.join(" ")
    );
    let mut reads = report.read_us.clone();
    reads.sort_by(f64::total_cmp);
    let p90 = quantile(&reads, 0.90);
    println!("setup_s samples: {:?} (median reported)", report.setup_s);
    println!(
        "reads: n={} in {:.3} s; p90 has {} samples above it",
        reads.len(),
        report.read_wall_s,
        reads.iter().filter(|&&v| v > p90).count(),
    );
    println!(
        "server_rss_mb by round: {:?} (median reported)",
        report.rss_rounds_mib
    );
    // Only update_mix commits; reported here, not gated (see README).
    if !report.commit_us.is_empty() {
        println!(
            "commit_p50_us = {} us (n={})",
            median(&report.commit_us),
            report.commit_us.len()
        );
    }
    vec![
        ("setup_s", median(&report.setup_s), "s"),
        ("read_qps", reads.len() as f64 / report.read_wall_s, "1/s"),
        ("read_p50_us", quantile(&reads, 0.50), "us"),
        ("read_p90_us", p90, "us"),
        ("server_rss_mb", median(&report.rss_rounds_mib), "MiB"),
    ]
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let graph = Arc::new(ic_graph()?);
    let plan = Plan::new(args.workload, args.seed, args.seconds, &graph);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} graph={DATASET}@{SCALE} ({NODES} nodes, {EDGES} edges)",
        plan.workload.name(),
        plan.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "plan: {} timed reads, {} writes, {} commits, {} warm-up reads x {} boots, {} conns",
        plan.reads(),
        plan.writes(),
        plan.commits(),
        plan.warmup.len(),
        plan.workload.boots(),
        plan.workload.conns()
    );

    let run_dir = args.state_dir.join(format!("run-{}", std::process::id()));
    let _ = fs::remove_dir_all(&run_dir);
    let env = Env {
        serve_bin: args.bin_dir.join("simrank-serve"),
        run_dir: run_dir.clone(),
        prepared: run_dir.join("prepared"),
    };
    let prepared = prepare(&env.prepared, &graph).and_then(|()| dir_digest(&env.prepared));
    if let Ok(digest) = &prepared {
        println!("prepared data dir digest: {digest:016x}");
    }
    let outcome = prepared
        .and_then(|_| workloads::run(&plan, &env, &graph))
        .and_then(|report| {
            let metrics = if args.trace {
                let spans = args.state_dir.join("traces").join(format!(
                    "{}-seed{}.json",
                    plan.workload.name(),
                    plan.seed
                ));
                let metrics = traced::run(&plan, &env, &graph, &report, &spans)?;
                println!("spans written to {}", spans.display());
                metrics
            } else {
                end_to_end(&report)
            };
            Ok((report, metrics))
        });
    let _ = fs::remove_dir_all(&run_dir);
    let (report, metrics) = outcome?;

    let counts: Vec<String> = report
        .counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("counts: {}", counts.join(" "));
    println!("answer digest: {:016x}", report.digest);
    for problem in &report.problems {
        println!("PROBLEM: {problem}");
    }
    let failed = report.errors + report.lost + report.wrong;
    println!(
        "error_rate: {} ({} error replies + {} lost + {} wrong of {} ops)",
        failed as f64 / report.attempted.max(1) as f64,
        report.errors,
        report.lost,
        report.wrong,
        report.attempted
    );
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    let correct = report.problems.is_empty() && failed == 0;
    println!("{}", json_line(correct, &report, &metrics));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    outcome.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::FAILURE
    })
}
