//! `simrank-repro` — the one-command reproducibility runner: regenerates the
//! paper's figures and tables (fig1–fig9, table2, table3) from a clean
//! checkout into `repro/out/` (per-target CSV + JSON, a Markdown summary
//! table, and a machine-readable manifest).
//!
//! ```text
//! simrank-repro --quick                     # CI-sized run, every target
//! simrank-repro --full                      # paper-sized sweeps (hours)
//! simrank-repro --quick --only fig1,table2  # a subset
//! simrank-repro --list                      # what the registry knows
//! ```
//!
//! `--quick` and `--full` are presets over the environment knobs
//! (`EXACTSIM_SCALE_SMALL`, …); with neither flag the environment-derived
//! parameters are used. `--only figN` runs one target, and is the way to
//! iterate on a single figure. Relative `--out-dir` paths are anchored
//! at the workspace root regardless of the invoking cwd. See REPRODUCING.md
//! at the repository root for the full walkthrough.

use std::process::ExitCode;

use exactsim_bench::repro::{run, TARGETS};
use exactsim_bench::HarnessParams;

const HELP: &str = "simrank-repro: regenerate the paper's figures/tables in one command\n\
  --quick          CI-sized preset (small stand-ins, 1 query source)\n\
  --full           paper-sized preset (full scales, 50 sources; hours)\n\
  --only K1,K2     run a subset of targets (e.g. fig1,table2)\n\
  --out-dir DIR    output directory (default repro/out, repo-root-relative)\n\
  --list           print the target registry and exit\n\
without --quick/--full: parameters come from EXACTSIM_* env vars";

fn resolve_path(path: &str) -> std::path::PathBuf {
    let p = std::path::PathBuf::from(path);
    if p.is_absolute() {
        return p;
    }
    // `cargo run -p exactsim-bench` keeps the invoker's cwd, but the
    // documented interface (CI, REPRODUCING.md) is repo-root-relative.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root two levels up")
        .join(p)
}

fn main() -> ExitCode {
    let mut mode: Option<&'static str> = None;
    let mut only: Option<Vec<String>> = None;
    let mut out_dir = String::from("repro/out");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "--full" => {
                let this = if arg == "--quick" { "quick" } else { "full" };
                if let Some(prev) = mode {
                    if prev != this {
                        eprintln!("simrank-repro: --quick and --full are mutually exclusive");
                        return ExitCode::FAILURE;
                    }
                }
                mode = Some(this);
            }
            "--only" => match args.next() {
                Some(list) => only = Some(list.split(',').map(|s| s.trim().to_string()).collect()),
                None => {
                    eprintln!("simrank-repro: --only needs a comma-separated target list");
                    return ExitCode::FAILURE;
                }
            },
            "--out-dir" => match args.next() {
                Some(dir) => out_dir = dir,
                None => {
                    eprintln!("simrank-repro: --out-dir needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--list" => {
                for t in TARGETS {
                    println!("{:<8} {} ({})", t.key, t.title, t.axes);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                eprintln!("{HELP}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("simrank-repro: unknown flag `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    let (params, mode) = match mode {
        Some("quick") => (HarnessParams::quick_repro(), "quick"),
        Some("full") => (HarnessParams::full_repro(), "full"),
        _ => (HarnessParams::from_env(), "env"),
    };
    let out_dir = resolve_path(&out_dir);
    eprintln!(
        "simrank-repro: mode {mode}, output {} ({} targets)",
        out_dir.display(),
        only.as_ref().map_or(TARGETS.len(), |o| o.len()),
    );
    match run(&params, only.as_deref(), &out_dir, mode) {
        Ok(report) => {
            eprintln!(
                "simrank-repro: wrote {} target(s) in {:.1}s — see {}",
                report.targets.len(),
                report.total_seconds,
                report.out_dir.join("SUMMARY.md").display(),
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("simrank-repro: {msg}");
            ExitCode::FAILURE
        }
    }
}
