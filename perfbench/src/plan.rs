//! Deterministic op plans. Everything a run sends is a pure function of
//! `(workload, seed, seconds)` and the graph, so two runs with the same
//! arguments send byte-identical request streams.

use std::collections::HashSet;
use std::ops::Range;

use exactsim_graph::{DiGraph, NodeId};

/// `k` of every `topk` read.
pub const TOPK: usize = 10;
/// Cold-read warm-up sources per set-up (disjoint from the timed sources).
/// Enough that kernel work, not process start, dominates `setup_s`: a boot
/// alone swings more with the VM's memory contention than a cold read does.
const COLD_WARMUP: usize = 6;
/// Hot sources of `hot_topk_routed`, all warmed during set-up.
const HOT_SET: usize = 32;
/// Hot sources per `update_mix` cycle; each is recomputed once after the
/// cycle's commit.
pub const UPDATE_HOT_SET: usize = 4;
/// Reads per `update_mix` cycle: one miss per hot source, the rest hits, so
/// the hit share is 12/16 and p50 lands on a hit, p90 on a recompute.
pub const UPDATE_READS_PER_CYCLE: usize = 16;
/// Edges added per `update_mix` cycle; the next cycle deletes them again.
const UPDATE_ADDS_PER_CYCLE: usize = 2;
/// WAL records in the prepared `update_mix` data dir (two edge inserts each).
/// With auto-compaction every 64 records, each round's 8th commit folds the
/// WAL.
pub const PREP_WAL_RECORDS: usize = 56;
/// Commits the traced run's store probe makes on the read-only workloads.
const PROBE_COMMITS: usize = 6;
/// Buffer-pool pages of the traced run's paged probe: about 90% of the
/// graph's 876 pages.
pub const PAGED_POOL_PAGES: usize = 790;
/// Seed of the prepared data dir's WAL records (independent of `--seed`, so
/// every run recovers the same bytes).
const PREP_SEED: u64 = 0x5EED_D1E5;
/// Seed of the warm-up sources of every workload, including the hot set
/// (independent of `--seed`, so set-up time and the memory the warm-up
/// leaves behind do not depend on the sources a seed draws).
const WARMUP_SEED: u64 = 0x3A2B_07E5;
/// Seed of `cold_exact`'s timed sources and of `update_mix`'s hot sets
/// (independent of `--seed`; see `Plan::new`).
const SOURCES_SEED: u64 = 0x407_5E75;

/// SplitMix64: small, seedable, identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdExact,
    HotTopkRouted,
    UpdateMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_exact" => Some(Workload::ColdExact),
            "hot_topk_routed" => Some(Workload::HotTopkRouted),
            "update_mix" => Some(Workload::UpdateMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdExact => "cold_exact",
            Workload::HotTopkRouted => "hot_topk_routed",
            Workload::UpdateMix => "update_mix",
        }
    }

    /// Set-up boots per run; `setup_s` is their median. A read-only plan is
    /// split into one round per boot (see `Plan::rounds`).
    pub fn boots(self) -> usize {
        match self {
            // A cold read's time moves most with the process that serves
            // it: six processes of ~25 timed reads each.
            Workload::ColdExact => 6,
            _ => 3,
        }
    }

    /// Client connections of the timed phase.
    pub fn conns(self) -> usize {
        match self {
            Workload::HotTopkRouted => 2,
            _ => 1,
        }
    }

    /// Timed ops per second of `--seconds`: reads for the read-only
    /// workloads, cycles for `update_mix`. A fixed constant (the rate each
    /// workload runs at on a 2-vCPU VM), never a measurement, so the op count
    /// depends only on the arguments.
    fn ops_per_second(self) -> f64 {
        match self {
            Workload::ColdExact => 10.0,
            Workload::HotTopkRouted => 1400.0,
            Workload::UpdateMix => 2.0,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Read(NodeId),
    Add(NodeId, NodeId),
    Del(NodeId, NodeId),
    Commit,
}

impl Op {
    /// The request line, newline-terminated.
    pub fn line(&self) -> String {
        match *self {
            Op::Read(src) => format!("topk {src} {TOPK}\n"),
            Op::Add(u, v) => format!("addedge {u} {v}\n"),
            Op::Del(u, v) => format!("deledge {u} {v}\n"),
            Op::Commit => "commit\n".to_string(),
        }
    }
}

/// One run's requests, in order.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Reads of every set-up (cache warm-up); disjoint from the timed cold
    /// reads. For `hot_topk_routed` this is the hot set.
    pub warmup: Vec<NodeId>,
    /// The timed phase. With two connections, op `i` of a round goes to
    /// connection `i % 2`.
    pub timed: Vec<Op>,
    /// The ops of `timed` each set-up boot serves, in boot order: one
    /// contiguous round per boot, each on fresh processes, so one process's
    /// luck with the VM counts only once. On `update_mix` each round is its
    /// own history of epochs, starting again from the prepared data dir.
    pub rounds: Vec<Range<usize>>,
    /// Writes and commits of the traced run's store probe on the read-only
    /// workloads (`update_mix` replays its own timed writes instead).
    pub probe: Vec<Op>,
    /// Graph epoch the server starts the timed phase at.
    pub base_epoch: u64,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, seconds: u64, graph: &DiGraph) -> Plan {
        let mut rng = Rng::new(seed ^ 0xB3A5_C0DE_0000_0000);
        let n = graph.num_nodes() as u64;
        let ops = (workload.ops_per_second() * seconds as f64).ceil() as usize;
        let mut used_edges: HashSet<(NodeId, NodeId)> =
            prep_records(graph).into_iter().flatten().collect();
        let mut plan = Plan {
            workload,
            seed,
            warmup: Vec::new(),
            timed: Vec::new(),
            rounds: Vec::new(),
            probe: Vec::new(),
            base_epoch: 0,
        };
        let boots = workload.boots();
        match workload {
            Workload::ColdExact => {
                plan.warmup = distinct_nodes(&mut Rng::new(WARMUP_SEED), n, COLD_WARMUP, &[]);
                // A cold read's cost depends on its source, so every seed reads
                // one fixed sample (as the paper fixes its query nodes); the
                // seed orders it, which decides the process serving each one.
                let mut sources = distinct_nodes(&mut Rng::new(SOURCES_SEED), n, ops, &plan.warmup);
                rng.shuffle(&mut sources);
                plan.timed = sources.into_iter().map(Op::Read).collect();
            }
            Workload::HotTopkRouted => {
                // The seed ranks the fixed hot set and draws the stream.
                plan.warmup = distinct_nodes(&mut Rng::new(WARMUP_SEED), n, HOT_SET, &[]);
                rng.shuffle(&mut plan.warmup);
                // Zipf(1.0) over hot-set ranks by inverse CDF.
                let weights: Vec<f64> = (1..=HOT_SET).map(|r| 1.0 / r as f64).collect();
                let total: f64 = weights.iter().sum();
                let mut cdf = Vec::with_capacity(HOT_SET);
                let mut acc = 0.0;
                for w in &weights {
                    acc += w / total;
                    cdf.push(acc);
                }
                plan.timed = (0..ops)
                    .map(|_| {
                        let u = rng.unit();
                        let rank = cdf.iter().position(|&c| u < c).unwrap_or(HOT_SET - 1);
                        Op::Read(plan.warmup[rank])
                    })
                    .collect();
            }
            Workload::UpdateMix => {
                // Every cycle has a fresh hot set, so p90 (a recompute) and the
                // kernel's retained memory sample many sources' costs. What a
                // hit and a recompute cost depends on the source, so the sets
                // come from a fixed stream and each source is read equally
                // often; the seed draws the edges and the order of the reads.
                plan.warmup = distinct_nodes(&mut Rng::new(WARMUP_SEED), n, UPDATE_HOT_SET, &[]);
                let mut hot_rng = Rng::new(SOURCES_SEED);
                plan.base_epoch = PREP_WAL_RECORDS as u64;
                for round in 0..boots {
                    let start = plan.timed.len();
                    // A round's first cycle has no earlier inserts to delete.
                    let mut previous: Vec<(NodeId, NodeId)> = Vec::new();
                    for _ in round * ops / boots..(round + 1) * ops / boots {
                        let added: Vec<(NodeId, NodeId)> = (0..UPDATE_ADDS_PER_CYCLE)
                            .map(|_| fresh_edge(&mut rng, graph, &mut used_edges))
                            .collect();
                        plan.timed.extend(added.iter().map(|&(u, v)| Op::Add(u, v)));
                        plan.timed
                            .extend(previous.iter().map(|&(u, v)| Op::Del(u, v)));
                        plan.timed.push(Op::Commit);
                        let hot = distinct_nodes(&mut hot_rng, n, UPDATE_HOT_SET, &[]);
                        let mut reads = hot.repeat(UPDATE_READS_PER_CYCLE / UPDATE_HOT_SET);
                        rng.shuffle(&mut reads);
                        plan.timed.extend(reads.into_iter().map(Op::Read));
                        previous = added;
                    }
                    plan.rounds.push(start..plan.timed.len());
                }
            }
        }
        if workload != Workload::UpdateMix {
            let len = plan.timed.len();
            plan.rounds = (0..boots)
                .map(|i| i * len / boots..(i + 1) * len / boots)
                .collect();
            for _ in 0..PROBE_COMMITS / 2 {
                let (u, v) = fresh_edge(&mut rng, graph, &mut used_edges);
                plan.probe
                    .extend([Op::Add(u, v), Op::Commit, Op::Del(u, v), Op::Commit]);
            }
        }
        plan
    }

    /// The graph history timed op `index` reads: its round on `update_mix`,
    /// where every round starts again from the prepared data dir, and 0 on
    /// the read-only workloads, whose rounds all serve one graph.
    pub fn history(&self, index: usize) -> usize {
        match self.workload {
            Workload::UpdateMix => self.rounds.iter().position(|r| r.contains(&index)),
            _ => None,
        }
        .unwrap_or(0)
    }

    pub fn reads(&self) -> usize {
        self.timed
            .iter()
            .filter(|op| matches!(op, Op::Read(_)))
            .count()
    }

    pub fn commits(&self) -> usize {
        self.timed
            .iter()
            .filter(|op| matches!(op, Op::Commit))
            .count()
    }

    pub fn writes(&self) -> usize {
        self.timed
            .iter()
            .filter(|op| matches!(op, Op::Add(..) | Op::Del(..)))
            .count()
    }

    /// Timed reads that must run the kernel: every cold read, no hot read,
    /// and one per hot source after each `update_mix` commit.
    pub fn expected_computations(&self) -> usize {
        match self.workload {
            Workload::ColdExact => self.reads(),
            Workload::HotTopkRouted => 0,
            Workload::UpdateMix => self.commits() * UPDATE_HOT_SET,
        }
    }

    /// The epoch each timed op's reply must carry (`None` for staged writes).
    /// Every round starts at the base epoch.
    pub fn expected_epochs(&self) -> Vec<Option<u64>> {
        let mut out = vec![None; self.timed.len()];
        for round in &self.rounds {
            let mut epoch = self.base_epoch;
            for i in round.clone() {
                out[i] = match self.timed[i] {
                    Op::Read(_) => Some(epoch),
                    Op::Commit => {
                        epoch += 1;
                        Some(epoch)
                    }
                    _ => None,
                };
            }
        }
        out
    }

    /// Timed reads whose source runs the kernel, in plan order. Cold
    /// workloads: every timed read. `update_mix`: the first read of each hot
    /// source after each commit, tagged with its cycle.
    pub fn cold_reads(&self) -> Vec<(usize, NodeId)> {
        let mut out = Vec::new();
        let mut cycle = 0usize;
        let mut seen: HashSet<NodeId> = HashSet::new();
        for op in &self.timed {
            match *op {
                Op::Commit => {
                    cycle += 1;
                    seen.clear();
                }
                Op::Read(src) => {
                    let cold = match self.workload {
                        Workload::ColdExact => true,
                        Workload::HotTopkRouted => false,
                        Workload::UpdateMix => seen.insert(src),
                    };
                    if cold {
                        out.push((cycle, src));
                    }
                }
                _ => {}
            }
        }
        out
    }
}

/// The prepared `update_mix` data dir's WAL records: `PREP_WAL_RECORDS`
/// commits of two fresh edge inserts each, from a fixed seed.
pub fn prep_records(graph: &DiGraph) -> Vec<Vec<(NodeId, NodeId)>> {
    let mut rng = Rng::new(PREP_SEED);
    let mut used = HashSet::new();
    (0..PREP_WAL_RECORDS)
        .map(|_| {
            (0..2)
                .map(|_| fresh_edge(&mut rng, graph, &mut used))
                .collect()
        })
        .collect()
}

/// `count` distinct uniform nodes, none of them in `exclude`.
fn distinct_nodes(rng: &mut Rng, n: u64, count: usize, exclude: &[NodeId]) -> Vec<NodeId> {
    assert!(
        ((count + exclude.len()) as u64) < n,
        "plan needs {count} distinct sources of {n}"
    );
    let mut seen: HashSet<NodeId> = exclude.iter().copied().collect();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let v = rng.below(n) as NodeId;
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

/// A self-loop-free edge absent from `graph` and from every edge drawn so
/// far, so staged inserts always stage and deletes always remove.
fn fresh_edge(
    rng: &mut Rng,
    graph: &DiGraph,
    used: &mut HashSet<(NodeId, NodeId)>,
) -> (NodeId, NodeId) {
    let n = graph.num_nodes() as u64;
    loop {
        let u = rng.below(n) as NodeId;
        let v = rng.below(n) as NodeId;
        if u != v && !graph.has_edge(u, v) && used.insert((u, v)) {
            return (u, v);
        }
    }
}
