//! Every solver's answer bits, pinned across commits.
//!
//! Each solver configuration below answers the same fixed inputs — the
//! three generated families of `tests/properties.rs`' bit-identity grid
//! (seed 1) plus a 2,000-node Barabási–Albert graph, at sources
//! `{0, n/2, n−1}` — and the scores are folded into one FNV-1a digest of
//! their `f64::to_bits()` per configuration. Both optimized ExactSim runs
//! also pin their walk-pair, explore-edge and hop-nnz totals.
//!
//! The other bit-identity tests compare two code paths of one build (warm
//! and fresh scratches, in-memory and paged graphs, Algorithm 3 against its
//! seed-era port). This one compares the build with the commits before it,
//! so a refactor that claims "same bits" is checked here rather than argued.
//!
//! Re-recording the constants is allowed only in a change whose CHANGES.md
//! entry declares a deliberate change of answer bits (for example pruning
//! Algorithm 3's walk distributions, or an a-posteriori error bound that
//! drives the sampling). The failure message prints the table to paste.

use exactsim::config::SimRankConfig;
use exactsim::exactsim::{ExactSim, ExactSimConfig, ExactSimVariant};
use exactsim::linearization::{Linearization, LinearizationConfig};
use exactsim::mc::{MonteCarlo, MonteCarloConfig};
use exactsim::parsim::{ParSim, ParSimConfig};
use exactsim::prsim::{PrSim, PrSimConfig};
use exactsim_graph::generators::{
    barabasi_albert, gnm_directed, stochastic_block_model, SbmConfig,
};
use exactsim_graph::{DiGraph, NodeId};

/// `(config, digest)` as recorded; the order is the order of [`digests`].
const EXPECTED_DIGESTS: [(&str, u64); 7] = [
    ("exactsim_opt_budget", 0x83021c2ce2e4f954),
    ("exactsim_opt_unbudgeted", 0xc3bce88bddd764c3),
    ("exactsim_basic", 0x71e8537513325c90),
    ("parsim", 0xf1b0b8f44d839ac6),
    ("linearization", 0xdeb693ec0c4adaa3),
    ("mc", 0x6d0891771c7eebd6),
    ("prsim", 0xaf3e290685820538),
];

/// Optimized ExactSim's `(walk pairs, explore edges, hop nnz)` summed over
/// every input: the budgeted run, then the unbudgeted one.
const EXPECTED_OPT_TOTALS: [Totals; 2] = [(2261, 1155094, 3472), (43637, 11262862, 844)];

type Totals = (u64, u64, usize);

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn scores(&mut self, scores: &[f64]) {
        for score in scores {
            for byte in score.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

fn inputs() -> Vec<DiGraph> {
    vec![
        barabasi_albert(60, 2, true, 1).unwrap(),
        gnm_directed(70, 280, 1).unwrap(),
        stochastic_block_model(SbmConfig {
            block_sizes: vec![25, 25, 25],
            p_within: 0.15,
            p_between: 0.02,
            seed: 1,
        })
        .unwrap()
        .graph,
        barabasi_albert(2_000, 3, true, 7).unwrap(),
    ]
}

fn sources(graph: &DiGraph) -> [NodeId; 3] {
    let n = graph.num_nodes() as NodeId;
    [0, n / 2, n - 1]
}

/// The digest of every configuration, plus optimized ExactSim's totals.
fn digests() -> (Vec<(&'static str, u64)>, [Totals; 2]) {
    let simrank = SimRankConfig::default();
    let optimized = |walk_budget, epsilon| ExactSimConfig {
        simrank,
        epsilon,
        variant: ExactSimVariant::Optimized,
        walk_budget,
        ..Default::default()
    };
    let mut fnv: Vec<(&'static str, Fnv)> = EXPECTED_DIGESTS
        .iter()
        .map(|&(name, _)| (name, Fnv::new()))
        .collect();
    let mut totals = [(0u64, 0u64, 0usize); 2];
    for graph in inputs() {
        let g = &graph;
        let opt_budget = ExactSim::new(g, optimized(Some(20_000), 1e-2)).unwrap();
        let opt_free = ExactSim::new(g, optimized(None, 5e-2)).unwrap();
        let basic = ExactSim::new(
            g,
            ExactSimConfig {
                simrank,
                epsilon: 1e-2,
                variant: ExactSimVariant::Basic,
                walk_budget: Some(10_000),
                ..Default::default()
            },
        )
        .unwrap();
        let parsim = ParSim::new(
            g,
            ParSimConfig {
                simrank,
                iterations: 20,
            },
        )
        .unwrap();
        let lin = Linearization::build(
            g,
            LinearizationConfig {
                simrank,
                epsilon: 0.1,
                walk_budget: Some(50_000),
            },
        )
        .unwrap();
        let mc = MonteCarlo::build(
            g,
            MonteCarloConfig {
                simrank,
                walks_per_node: 40,
                walk_length: 12,
            },
        )
        .unwrap();
        let prsim = PrSim::build(
            g,
            PrSimConfig {
                simrank,
                epsilon: 2e-2,
                walk_budget: Some(20_000),
                ..Default::default()
            },
        )
        .unwrap();
        for source in sources(g) {
            let optimized = [opt_budget.query(source), opt_free.query(source)].map(|r| {
                let result = r.unwrap();
                (result.scores, result.stats)
            });
            for (total, (_, stats)) in totals.iter_mut().zip(&optimized) {
                total.0 += stats.simulated_walk_pairs;
                total.1 += stats.explore_edges;
                total.2 += stats.hop_nnz;
            }
            let [(budgeted, _), (unbudgeted, _)] = optimized;
            let answers = [
                budgeted,
                unbudgeted,
                basic.query(source).unwrap().scores,
                parsim.query(source).unwrap(),
                lin.query(source).unwrap(),
                mc.query(source).unwrap(),
                prsim.query(source).unwrap(),
            ];
            for ((_, digest), scores) in fnv.iter_mut().zip(&answers) {
                digest.scores(scores);
            }
        }
    }
    let digests = fnv.into_iter().map(|(name, f)| (name, f.0)).collect();
    (digests, totals)
}

#[test]
fn every_solver_answers_with_the_recorded_bits() {
    let (got, totals) = digests();
    let table: String = got
        .iter()
        .map(|(name, digest)| format!("    (\"{name}\", 0x{digest:016x}),\n"))
        .collect();
    let report = format!(
        "const EXPECTED_DIGESTS: [(&str, u64); 7] = [\n{table}];\n\
         const EXPECTED_OPT_TOTALS: [Totals; 2] = {totals:?};"
    );
    for ((name, digest), (want_name, want)) in got.iter().zip(EXPECTED_DIGESTS) {
        assert_eq!(*name, want_name);
        assert_eq!(
            *digest, want,
            "{name}: answer bits changed (digest 0x{digest:016x}, recorded 0x{want:016x})\n{report}"
        );
    }
    assert_eq!(
        totals, EXPECTED_OPT_TOTALS,
        "optimized ExactSim's (walk pairs, explore edges, hop nnz) changed\n{report}"
    );
}
