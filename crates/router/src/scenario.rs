//! Workload scenarios for `simrank-client --scenario`: named, parameterised
//! request mixes, from the uniform `topk` hammer (`steady_read`) to skewed,
//! write-heavy, bursty and fault-drill workload models.
//!
//! A scenario combines four independent axes:
//!
//! 1. **Source popularity** — which source node each read asks about.
//!    A Zipfian sampler ([`ZipfSampler`]) over the source range models the
//!    skew real query logs show; exponent `0` degenerates to uniform.
//! 2. **Read/write mix** — the fraction of operations that are `topk`/`query`
//!    reads vs. staged graph updates (`addedge`/`deledge`), with a `commit`
//!    forced after every `commit_every` writes so updates actually publish
//!    epochs while the load runs.
//! 3. **Algorithm mix** — a weighted choice over the served algorithm kinds,
//!    so one run exercises the per-algorithm serving paths side by side.
//! 4. **Arrival process** — closed-loop (send-next-on-reply, the classic
//!    saturation bench) or **open-loop**: a Poisson schedule at `rate`
//!    requests/sec, optionally modulated by burst phases
//!    ([`BurstSpec`]) that multiply the rate for the first `burst_len`
//!    arrivals of every `period`-arrival cycle. Open-loop latency is
//!    measured from the *scheduled* arrival time, so queueing delay under
//!    overload is visible instead of coordinated-omission-hidden.
//!
//! The whole scenario is expanded up front into a deterministic plan of
//! protocol requests ([`build_plan`]) and, for open-loop runs, an arrival
//! timetable ([`arrival_offsets`]) — both derived from the scenario seed
//! alone, so two runs with the same spec issue bit-identical request
//! streams.
//!
//! ## Spec grammar
//!
//! ```text
//! spec     = name *("," key "=" value)
//! name     = one of the names in `builtin_names()`
//! key      = requests | conns | sources | topk | zipf | read_mix | rate
//!          | burst_factor | burst_period | burst_len | commit_every
//!          | seed | algos | outage_start | outage_len
//! ```
//!
//! `outage_start`/`outage_len` (fractions of the plan, `fault_storm`'s
//! defaults are `0.3`/`0.45`) carve a *shard-outage window* out of the
//! middle of the run: the plan forces a `commit` at the window's start (so
//! a shard killed inside it takes no staged-but-unpublished writes down
//! with it) and issues only reads inside the window — the operations that
//! stay correct, via replica failover, while a shard is dead. The harness
//! (CI's `fault-smoke` job) kills a shard once the window opens and
//! restarts it before the window closes; the client's zero-error gate then
//! proves degraded reads kept flowing and writes resumed after recovery.
//!
//! `algos` weights are `/`-separated `kind:weight` pairs (the comma is taken
//! by the override separator), e.g. `algos=exactsim:2/mc:1`. `rate=0`
//! switches back to closed-loop. Examples:
//!
//! ```text
//! zipf_hot_reads
//! read_mostly,requests=2000,zipf=1.5
//! bursty_open_loop,rate=400,burst_factor=8
//! ```

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use exactsim_service::{AlgorithmKind, Request};

/// Burst modulation of an open-loop arrival process: for the first
/// `burst_len` arrivals of every `period`-arrival cycle, the instantaneous
/// rate is `factor` times the base rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstSpec {
    /// Rate multiplier inside the burst window (> 1 for real bursts).
    pub factor: f64,
    /// Cycle length in arrivals.
    pub period: u64,
    /// Arrivals per cycle that run at the boosted rate (≤ `period`).
    pub burst_len: u64,
}

/// One fully-resolved workload scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// The base scenario name this spec was derived from.
    pub name: String,
    /// Total read/write operations to issue (commits ride on top).
    pub requests: u64,
    /// Concurrent client sockets.
    pub conns: usize,
    /// Source-node id range: reads and write endpoints are drawn from
    /// `[0, sources)`, which must stay inside the served graph.
    pub sources: u32,
    /// `topk <src> K` reads; `0` issues full `query` reads instead.
    pub topk: usize,
    /// Zipf exponent for source popularity (`0` = uniform).
    pub zipf_exponent: f64,
    /// Fraction of operations that are reads, in `[0, 1]`.
    pub read_mix: f64,
    /// Weighted algorithm choice for reads; empty = server default.
    pub algo_mix: Vec<(AlgorithmKind, f64)>,
    /// Open-loop arrival rate in requests/sec; `None` = closed-loop.
    pub rate: Option<f64>,
    /// Burst modulation of the open-loop schedule.
    pub burst: Option<BurstSpec>,
    /// Force a `commit` after every this-many staged writes.
    pub commit_every: u64,
    /// Seed for every random draw the scenario makes.
    pub seed: u64,
    /// Where the shard-outage window opens, as a fraction of the plan.
    pub outage_start: f64,
    /// Window length as a fraction of the plan; `0` = no outage window.
    /// Inside the window the plan is read-only and a `commit` is forced at
    /// entry, so killing a shard mid-window loses no staged writes.
    pub outage_len: f64,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            name: "steady_read".to_string(),
            requests: 400,
            conns: 4,
            sources: 25,
            topk: 10,
            zipf_exponent: 0.0,
            read_mix: 1.0,
            algo_mix: Vec::new(),
            rate: None,
            burst: None,
            commit_every: 16,
            seed: 2020,
            outage_start: 0.0,
            outage_len: 0.0,
        }
    }
}

/// The names [`parse_scenario`] accepts as a base, in stable order.
pub fn builtin_names() -> &'static [&'static str] {
    &[
        "steady_read",
        "zipf_hot_reads",
        "read_mostly",
        "write_heavy",
        "bursty_open_loop",
        "algo_mix",
        "fault_storm",
    ]
}

/// The built-in scenario for `name`, or `None` for an unknown name.
pub fn builtin(name: &str) -> Option<ScenarioSpec> {
    let base = ScenarioSpec {
        name: name.to_string(),
        ..ScenarioSpec::default()
    };
    Some(match name {
        // The uniform closed-loop read hammer: `topk` over uniformly drawn
        // sources (CI's network and router smokes run it as
        // `steady_read,requests=400,conns=8`).
        "steady_read" => base,
        // Zipf-skewed read-only load: a few hot sources dominate, which is
        // what makes the service's response cache and dedup earn their keep.
        "zipf_hot_reads" => ScenarioSpec {
            zipf_exponent: 1.2,
            ..base
        },
        // The headline serving mix: 95% skewed reads, 5% staged updates with
        // periodic commits publishing epochs under read load.
        "read_mostly" => ScenarioSpec {
            zipf_exponent: 1.0,
            read_mix: 0.95,
            commit_every: 8,
            ..base
        },
        // Update-dominated: every other operation mutates the graph, commits
        // come fast, readers constantly cross epochs (the router's epoch
        // barrier and read fence get real traffic).
        "write_heavy" => ScenarioSpec {
            zipf_exponent: 0.8,
            read_mix: 0.5,
            commit_every: 4,
            ..base
        },
        // Open-loop at a fixed offered rate with 4x bursts: the scenario that
        // can actually overload the server and measure shed + queueing delay.
        "bursty_open_loop" => ScenarioSpec {
            zipf_exponent: 1.0,
            read_mix: 0.9,
            rate: Some(200.0),
            burst: Some(BurstSpec {
                factor: 4.0,
                period: 100,
                burst_len: 25,
            }),
            commit_every: 8,
            ..base
        },
        // Read-mostly open-loop load with a mid-run shard-outage window
        // (ops 30%..75% of the plan are read-only, entered on a forced
        // commit): the degradation bench. At 120 req/s the window is wide
        // enough for a harness to kill a shard, watch the router's breaker
        // open and reads degrade to the surviving replica, restart the
        // shard, and see the breaker reclose — all inside one scenario run
        // that still gates on zero errored requests.
        "fault_storm" => ScenarioSpec {
            requests: 1800,
            zipf_exponent: 1.0,
            read_mix: 0.9,
            rate: Some(120.0),
            commit_every: 8,
            outage_start: 0.3,
            outage_len: 0.45,
            ..base
        },
        // Reads split across all three served algorithms, so one run
        // exercises ExactSim, PRSim, and Monte-Carlo serving side by side.
        "algo_mix" => ScenarioSpec {
            zipf_exponent: 1.0,
            algo_mix: vec![
                (AlgorithmKind::ExactSim, 1.0),
                (AlgorithmKind::PrSim, 1.0),
                (AlgorithmKind::MonteCarlo, 1.0),
            ],
            ..base
        },
        _ => return None,
    })
}

/// Parses a scenario spec string (`name[,key=value]*` — see the module docs
/// for the grammar) into a resolved [`ScenarioSpec`].
pub fn parse_scenario(spec: &str) -> Result<ScenarioSpec, String> {
    let mut parts = spec.split(',');
    let name = parts.next().unwrap_or("").trim();
    let mut scenario = builtin(name).ok_or_else(|| {
        format!(
            "unknown scenario `{name}` (known: {})",
            builtin_names().join(", ")
        )
    })?;
    for part in parts {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("override `{part}` is not key=value"))?;
        let (key, value) = (key.trim(), value.trim());
        fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("bad value `{value}` for `{key}`"))
        }
        match key {
            "requests" => {
                scenario.requests = num(key, value)?;
                if scenario.requests == 0 {
                    return Err("requests must be at least 1".into());
                }
            }
            "conns" => {
                scenario.conns = num(key, value)?;
                if scenario.conns == 0 {
                    return Err("conns must be at least 1".into());
                }
            }
            "sources" => {
                scenario.sources = num(key, value)?;
                if scenario.sources == 0 {
                    return Err("sources must be at least 1".into());
                }
            }
            "topk" => scenario.topk = num(key, value)?,
            "zipf" => {
                scenario.zipf_exponent = num(key, value)?;
                if !(0.0..=16.0).contains(&scenario.zipf_exponent) {
                    return Err(format!("zipf exponent {value} out of [0, 16]"));
                }
            }
            "read_mix" => {
                scenario.read_mix = num(key, value)?;
                if !(0.0..=1.0).contains(&scenario.read_mix) {
                    return Err(format!("read_mix {value} out of [0, 1]"));
                }
            }
            "rate" => {
                let rate: f64 = num(key, value)?;
                if rate < 0.0 || !rate.is_finite() {
                    return Err(format!("bad rate `{value}`"));
                }
                scenario.rate = (rate > 0.0).then_some(rate);
            }
            "burst_factor" | "burst_period" | "burst_len" => {
                let mut burst = scenario.burst.unwrap_or(BurstSpec {
                    factor: 4.0,
                    period: 100,
                    burst_len: 25,
                });
                match key {
                    "burst_factor" => {
                        burst.factor = num(key, value)?;
                        if burst.factor <= 0.0 || !burst.factor.is_finite() {
                            return Err(format!("bad burst_factor `{value}`"));
                        }
                    }
                    "burst_period" => {
                        burst.period = num(key, value)?;
                        if burst.period == 0 {
                            return Err("burst_period must be at least 1".into());
                        }
                    }
                    _ => burst.burst_len = num(key, value)?,
                }
                if burst.burst_len > burst.period {
                    return Err(format!(
                        "burst_len {} exceeds burst_period {}",
                        burst.burst_len, burst.period
                    ));
                }
                scenario.burst = Some(burst);
            }
            "commit_every" => {
                scenario.commit_every = num(key, value)?;
                if scenario.commit_every == 0 {
                    return Err("commit_every must be at least 1".into());
                }
            }
            "seed" => scenario.seed = num(key, value)?,
            "outage_start" | "outage_len" => {
                let fraction: f64 = num(key, value)?;
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(format!("{key} {value} out of [0, 1]"));
                }
                if key == "outage_start" {
                    scenario.outage_start = fraction;
                } else {
                    scenario.outage_len = fraction;
                }
            }
            "algos" => {
                let mut mix = Vec::new();
                for pair in value.split('/') {
                    let (kind, weight) = pair
                        .split_once(':')
                        .ok_or_else(|| format!("algos entry `{pair}` is not kind:weight"))?;
                    let kind: AlgorithmKind = kind.trim().parse().map_err(|e| format!("{e}"))?;
                    let weight: f64 = num("algos", weight.trim())?;
                    if weight <= 0.0 || !weight.is_finite() {
                        return Err(format!("bad weight in algos entry `{pair}`"));
                    }
                    mix.push((kind, weight));
                }
                if mix.is_empty() {
                    return Err("algos needs at least one kind:weight pair".into());
                }
                scenario.algo_mix = mix;
            }
            other => return Err(format!("unknown scenario key `{other}`")),
        }
    }
    // Writes draw non-self-loop edge endpoints from the source range, which
    // needs at least two ids to choose from.
    if scenario.read_mix < 1.0 && scenario.sources < 2 {
        return Err("a write-bearing scenario (read_mix < 1) needs sources >= 2".into());
    }
    if scenario.outage_start + scenario.outage_len > 1.0 + 1e-9 {
        return Err(format!(
            "outage window exceeds the plan (start {} + len {} > 1)",
            scenario.outage_start, scenario.outage_len
        ));
    }
    Ok(scenario)
}

/// Zipfian sampler over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^exponent`. Exponent `0` is exactly uniform.
///
/// Implemented as inverse-CDF sampling — one uniform draw plus a binary
/// search over the precomputed cumulative weights — so sampling is
/// `O(log n)` and the sequence is a pure function of the RNG stream.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` ranks at `exponent`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `exponent` is negative or non-finite.
    pub fn new(n: u32, exponent: f64) -> ZipfSampler {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        assert!(
            exponent >= 0.0 && exponent.is_finite(),
            "bad Zipf exponent {exponent}"
        );
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0f64;
        for rank in 0..n {
            total += (f64::from(rank) + 1.0).powf(-exponent);
            cdf.push(total);
        }
        for weight in &mut cdf {
            *weight /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draws one rank.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        let u: f64 = rng.gen();
        // partition_point: the first rank whose cumulative weight exceeds u.
        self.cdf.partition_point(|&w| w <= u) as u32
    }

    /// The probability of rank `r` (for tests and reporting).
    pub fn probability(&self, r: u32) -> f64 {
        let r = r as usize;
        let below = if r == 0 { 0.0 } else { self.cdf[r - 1] };
        self.cdf[r] - below
    }
}

/// Expands a scenario into its deterministic request plan: `spec.requests`
/// reads and writes in issue order, with a `commit` inserted after every
/// `commit_every`-th write (plus one final commit if writes remain staged).
/// Reads are `topk <src> <k>` requests, or `query <src>` when `spec.topk` is
/// 0; writes are `addedge`/`deledge`. The plan depends only on the spec, so
/// re-running a scenario replays the identical request stream.
pub fn build_plan(spec: &ScenarioSpec) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let zipf = ZipfSampler::new(spec.sources, spec.zipf_exponent);
    let algo_total: f64 = spec.algo_mix.iter().map(|(_, w)| w).sum();
    // The shard-outage window in request indices: `[outage_from, outage_to)`
    // issues only reads (they stay answerable, degraded, with a shard down),
    // and the window is entered on a forced commit so a kill inside it
    // cannot take staged-but-unpublished writes along.
    let has_outage = spec.outage_len > 0.0;
    let outage_from = (spec.outage_start * spec.requests as f64).round() as u64;
    let outage_to = ((spec.outage_start + spec.outage_len) * spec.requests as f64).round() as u64;
    let mut plan = Vec::with_capacity(spec.requests as usize + 4);
    let mut staged = 0u64;
    for i in 0..spec.requests {
        let in_outage = has_outage && (outage_from..outage_to).contains(&i);
        if has_outage && i == outage_from && staged > 0 {
            plan.push(Request::Commit);
            staged = 0;
        }
        if in_outage || rng.gen_bool(spec.read_mix) {
            let algo = if spec.algo_mix.is_empty() {
                None
            } else {
                let mut pick = rng.gen::<f64>() * algo_total;
                let mut chosen = spec.algo_mix[0].0;
                for &(kind, weight) in &spec.algo_mix {
                    chosen = kind;
                    pick -= weight;
                    if pick <= 0.0 {
                        break;
                    }
                }
                Some(chosen)
            };
            let node = zipf.sample(&mut rng);
            plan.push(if spec.topk > 0 {
                Request::TopK {
                    node,
                    k: spec.topk,
                    algo,
                }
            } else {
                Request::Query { node, algo }
            });
        } else {
            // Write endpoints come from the same id range as read sources, so
            // a scenario stays valid on any graph the reads are valid on.
            // Deleting a never-inserted edge is a protocol-level no-op, so an
            // unpaired `deledge` is harmless. The head is drawn from the
            // range minus the tail: the protocol rejects self-loops.
            let u = rng.gen_range(0..spec.sources);
            let v = (u + 1 + rng.gen_range(0..spec.sources - 1)) % spec.sources;
            plan.push(if rng.gen_bool(0.5) {
                Request::AddEdge { u, v }
            } else {
                Request::DelEdge { u, v }
            });
            staged += 1;
            if staged >= spec.commit_every {
                plan.push(Request::Commit);
                staged = 0;
            }
        }
    }
    if staged > 0 {
        plan.push(Request::Commit);
    }
    plan
}

/// The open-loop arrival timetable for `n` operations: offset of each
/// operation's scheduled send time from the scenario start, strictly
/// non-decreasing. Returns `None` for closed-loop specs (`rate` unset).
///
/// Inter-arrival gaps are exponential with mean `1/rate` (a Poisson
/// process); inside a [`BurstSpec`] window the instantaneous rate is
/// multiplied by `factor`. The timetable is derived from the scenario seed
/// (offset so it does not correlate with the plan's own draws).
pub fn arrival_offsets(spec: &ScenarioSpec, n: usize) -> Option<Vec<Duration>> {
    let rate = spec.rate?;
    // A distinct stream from build_plan's: the schedule must not shift when
    // the mix parameters change the number of plan draws.
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x05ca_1ab1_e0dd_ba11);
    let mut offsets = Vec::with_capacity(n);
    let mut now = 0.0f64;
    for i in 0..n {
        let boosted = spec
            .burst
            .map(|b| (i as u64 % b.period) < b.burst_len)
            .unwrap_or(false);
        let instantaneous = if boosted {
            rate * spec.burst.expect("checked above").factor
        } else {
            rate
        };
        // Inverse-CDF exponential draw; 1 - u keeps the argument nonzero.
        let u: f64 = rng.gen();
        now += -(1.0 - u).ln() / instantaneous;
        offsets.push(Duration::from_secs_f64(now));
    }
    Some(offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_names_all_resolve() {
        for name in builtin_names() {
            let spec = builtin(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(spec.name, *name);
            assert!(spec.requests > 0);
        }
        assert!(builtin("no_such_scenario").is_none());
    }

    #[test]
    fn parse_scenario_table() {
        // (spec string, expected Ok-check or Err-substring)
        type SpecCheck = fn(&ScenarioSpec) -> bool;
        let ok: &[(&str, SpecCheck)] = &[
            ("steady_read", |s| {
                s.rate.is_none() && (s.read_mix - 1.0).abs() < 1e-12
            }),
            ("zipf_hot_reads", |s| (s.zipf_exponent - 1.2).abs() < 1e-12),
            ("read_mostly,requests=2000,zipf=1.5", |s| {
                s.requests == 2000 && (s.zipf_exponent - 1.5).abs() < 1e-12
            }),
            ("steady_read,rate=250.5", |s| s.rate == Some(250.5)),
            ("bursty_open_loop,rate=0", |s| s.rate.is_none()),
            (
                "steady_read,burst_factor=8,burst_period=50,burst_len=10",
                |s| {
                    s.burst
                        == Some(BurstSpec {
                            factor: 8.0,
                            period: 50,
                            burst_len: 10,
                        })
                },
            ),
            ("write_heavy,commit_every=3,seed=99", |s| {
                s.commit_every == 3 && s.seed == 99
            }),
            ("steady_read,algos=exactsim:2/mc:1", |s| {
                s.algo_mix
                    == vec![
                        (AlgorithmKind::ExactSim, 2.0),
                        (AlgorithmKind::MonteCarlo, 1.0),
                    ]
            }),
            ("steady_read, conns=9 , topk=0", |s| {
                s.conns == 9 && s.topk == 0
            }),
            ("fault_storm", |s| {
                s.rate.is_some()
                    && (s.outage_start - 0.3).abs() < 1e-12
                    && (s.outage_len - 0.45).abs() < 1e-12
            }),
            ("steady_read,outage_start=0.5,outage_len=0.25", |s| {
                (s.outage_start - 0.5).abs() < 1e-12 && (s.outage_len - 0.25).abs() < 1e-12
            }),
        ];
        for (input, check) in ok {
            let spec = parse_scenario(input).unwrap_or_else(|e| panic!("{input}: {e}"));
            assert!(check(&spec), "{input}: unexpected spec {spec:?}");
        }

        let err: &[(&str, &str)] = &[
            ("no_such", "unknown scenario"),
            ("steady_read,zipf", "not key=value"),
            ("steady_read,zipf=-1", "out of [0, 16]"),
            ("steady_read,read_mix=1.5", "out of [0, 1]"),
            ("steady_read,requests=0", "at least 1"),
            ("steady_read,burst_len=200,burst_period=100", "exceeds"),
            ("steady_read,algos=exactsim", "not kind:weight"),
            ("steady_read,algos=warp:1", "warp"),
            ("steady_read,frobnicate=1", "unknown scenario key"),
            ("write_heavy,sources=1", "sources >= 2"),
            ("steady_read,outage_start=1.5", "out of [0, 1]"),
            ("fault_storm,outage_start=0.9", "exceeds the plan"),
        ];
        for (input, needle) in err {
            let msg = parse_scenario(input).unwrap_err();
            assert!(msg.contains(needle), "{input}: got `{msg}`");
        }
    }

    #[test]
    fn zipf_is_deterministic_under_a_fixed_seed() {
        let zipf = ZipfSampler::new(100, 1.1);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn zipf_exponent_shapes_the_distribution() {
        // Exponent 0 is uniform: every rank has the same probability.
        let uniform = ZipfSampler::new(10, 0.0);
        for r in 0..10 {
            assert!((uniform.probability(r) - 0.1).abs() < 1e-12, "rank {r}");
        }
        // A positive exponent ranks monotonically and puts the textbook
        // 1/2^s ratio between ranks 0 and 1.
        let skewed = ZipfSampler::new(1000, 1.0);
        assert!(skewed.probability(0) > skewed.probability(1));
        assert!(skewed.probability(1) > skewed.probability(999));
        let ratio = skewed.probability(0) / skewed.probability(1);
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
        // Empirically, a heavy exponent concentrates mass on rank 0.
        let heavy = ZipfSampler::new(1000, 2.0);
        let mut rng = StdRng::seed_from_u64(42);
        let hits = (0..10_000).filter(|_| heavy.sample(&mut rng) == 0).count();
        assert!(hits > 5000, "rank-0 hits {hits} too low for exponent 2");
        // Samples stay inside the rank range.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(skewed.sample(&mut rng) < 1000);
        }
    }

    fn is_write(request: &Request) -> bool {
        matches!(request, Request::AddEdge { .. } | Request::DelEdge { .. })
    }

    #[test]
    fn plans_are_deterministic_and_respect_the_mix() {
        let spec = parse_scenario("read_mostly,requests=1000,sources=50").unwrap();
        let plan = build_plan(&spec);
        assert_eq!(plan, build_plan(&spec), "plan must be reproducible");
        let reads = plan
            .iter()
            .filter(|request| matches!(request, Request::TopK { .. }))
            .count();
        let writes = plan.iter().filter(|request| is_write(request)).count();
        let commits = plan
            .iter()
            .filter(|request| matches!(request, Request::Commit))
            .count();
        assert_eq!(reads + writes, 1000, "commits ride on top of requests");
        // 95% read mix: allow generous sampling noise around 950.
        assert!((900..=990).contains(&reads), "reads {reads}");
        // Every commit_every-th write forces a commit; the final partial
        // batch gets one more.
        assert!(commits >= writes / spec.commit_every as usize, "{commits}");
        // All sources and endpoints stay in range.
        for request in &plan {
            match request {
                Request::TopK { node, k, .. } => {
                    assert!(*node < 50);
                    assert_eq!(*k, spec.topk);
                }
                Request::AddEdge { u, v } | Request::DelEdge { u, v } => {
                    assert!(*u < 50 && *v < 50);
                    assert_ne!(u, v, "self-loops are protocol-rejected");
                }
                Request::Commit => {}
                other => panic!("unexpected plan request {other:?}"),
            }
        }
        // A write-bearing plan always ends on a published epoch.
        if writes > 0 {
            assert_eq!(plan.last(), Some(&Request::Commit));
        }
    }

    #[test]
    fn fault_storm_outage_window_is_write_free_and_entered_committed() {
        let spec = parse_scenario("fault_storm,requests=1000,sources=40").unwrap();
        let plan = build_plan(&spec);
        assert_eq!(plan, build_plan(&spec), "plan must be reproducible");
        let from = (spec.outage_start * 1000.0).round() as u64;
        let to = ((spec.outage_start + spec.outage_len) * 1000.0).round() as u64;
        let mut req_idx = 0u64;
        let mut staged = 0u64;
        let mut checked_entry = false;
        for request in &plan {
            if *request == Request::Commit {
                staged = 0;
                continue;
            }
            if !checked_entry && req_idx >= from {
                assert_eq!(staged, 0, "staged writes survive into the window");
                checked_entry = true;
            }
            if is_write(request) {
                assert!(
                    !(from..to).contains(&req_idx),
                    "write at request {req_idx} inside the outage window [{from}, {to})"
                );
                staged += 1;
            }
            req_idx += 1;
        }
        assert!(checked_entry, "the plan never reached the outage window");
        // Outside the window the 0.9 read mix still produces real writes.
        let writes = plan.iter().filter(|request| is_write(request)).count();
        assert!(writes > 0, "fault_storm lost its write traffic entirely");
    }

    /// Reads are `topk` requests with the scenario's `k`, or `query`
    /// requests when `topk` is 0, and every plan line parses back to its
    /// request.
    #[test]
    fn plan_lines_speak_the_protocol() {
        for raw in ["algo_mix", "write_heavy,topk=0", "steady_read,topk=3"] {
            let spec = parse_scenario(raw).unwrap();
            for request in build_plan(&spec) {
                match &request {
                    Request::TopK { k, .. } => assert_eq!(*k, spec.topk, "{raw}"),
                    Request::Query { .. } => assert_eq!(spec.topk, 0, "{raw}"),
                    _ => {}
                }
                let line = request.to_line();
                assert_eq!(
                    exactsim_service::protocol::parse_line(&line),
                    Ok(Some(request)),
                    "{raw}: {line}"
                );
            }
        }
    }

    /// Every built-in plan's request lines, pinned by their count and an
    /// FNV-1a digest over each line plus its newline, so the qps gates on
    /// `bench/baseline_scenarios.json` keep measuring the same request
    /// streams. Re-record only for a deliberate change to a plan.
    #[test]
    fn builtin_plans_send_pinned_request_lines() {
        const PLANS: [(&str, usize, u64); 7] = [
            ("steady_read", 400, 0xfe69_462e_841e_a267),
            ("zipf_hot_reads", 400, 0x9f91_d538_2033_7875),
            ("read_mostly", 403, 0xed5c_b2b9_5fbe_f492),
            ("write_heavy", 452, 0x00bc_0f9a_22ed_8998),
            ("bursty_open_loop", 406, 0xb551_8f39_0cbe_b8dc),
            ("algo_mix", 400, 0x12c8_ce02_7c69_3ecc),
            ("fault_storm", 1813, 0x6843_3418_a11b_c012),
        ];
        let names: Vec<&str> = PLANS.iter().map(|(name, ..)| *name).collect();
        assert_eq!(names, builtin_names());
        for (name, len, digest) in PLANS {
            let plan = build_plan(&builtin(name).unwrap());
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for request in &plan {
                for byte in request.to_line().bytes().chain([b'\n']) {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0100_0000_01b3);
                }
            }
            assert_eq!((plan.len(), hash), (len, digest), "{name}");
        }
    }

    #[test]
    fn arrival_offsets_track_the_offered_rate() {
        let spec = parse_scenario("steady_read,rate=1000,requests=4000").unwrap();
        let offsets = arrival_offsets(&spec, 4000).unwrap();
        assert_eq!(offsets, arrival_offsets(&spec, 4000).unwrap());
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "must be sorted");
        // 4000 arrivals at 1000/s should span ~4s; exponential gaps are
        // noisy, so accept a wide band.
        let span = offsets.last().unwrap().as_secs_f64();
        assert!((3.0..5.0).contains(&span), "span {span}s");
        // Closed-loop specs have no timetable.
        let closed = parse_scenario("steady_read").unwrap();
        assert!(arrival_offsets(&closed, 100).is_none());
    }

    #[test]
    fn bursts_compress_their_window_of_the_timetable() {
        let spec =
            parse_scenario("steady_read,rate=1000,burst_factor=10,burst_period=100,burst_len=50")
                .unwrap();
        let offsets = arrival_offsets(&spec, 100).unwrap();
        // The first 50 arrivals run at 10x the base rate, so their span must
        // be far shorter than the second 50's.
        let burst_span = (offsets[49] - offsets[0]).as_secs_f64();
        let calm_span = (offsets[99] - offsets[50]).as_secs_f64();
        assert!(
            burst_span * 3.0 < calm_span,
            "burst {burst_span}s vs calm {calm_span}s"
        );
    }
}
