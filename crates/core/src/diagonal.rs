//! Estimators for the diagonal correction matrix `D`.
//!
//! The Linearization identity (eq. 3 of the paper) writes the SimRank matrix
//! as `S = Σ_ℓ c^ℓ (P^ℓ)ᵀ D P^ℓ` with a diagonal matrix `D` whose entries lie
//! in `[1 − c, 1]`. Probabilistically, `D(k,k)` is the probability that two
//! independent √c-walks started at `v_k` *never* meet. Getting `D` right is
//! the whole game: ParSim's `D = (1 − c)·I` shortcut is biased, and estimating
//! every entry to accuracy ε costs `O(n·log n/ε²)` — the term ExactSim
//! removes by allocating a *total* sample budget across nodes according to the
//! source's Personalized PageRank.
//!
//! This module provides the three estimators the paper discusses:
//!
//! * [`DiagonalEstimator::ParSimApprox`] — the `(1 − c)` constant (no work,
//!   biased);
//! * [`DiagonalEstimator::Bernoulli`] — Algorithm 2: simulate `R(k)` pairs of
//!   √c-walks from `v_k` and count the pairs that never meet;
//! * [`DiagonalEstimator::LocalDeterministic`] — Algorithm 3: compute the
//!   first-meeting probabilities `Z_ℓ(k, q)` deterministically (Lemma 4) up to
//!   an adaptive level `ℓ(k)` and only sample the remaining tail with
//!   "non-stop-then-√c" walk pairs;
//! * [`DiagonalEstimator::Exact`] — an externally supplied exact `D` (from
//!   [`crate::power_method::PowerMethod::exact_diagonal`]), used for
//!   validation and ablations.

use exactsim_graph::linalg::SparseVec;
use exactsim_graph::{NeighborAccess, NodeId};
use rand::rngs::SmallRng;

use crate::scratch::DiagonalScratch;
use crate::walks::{self, PairOutcome};

/// Hard engineering caps for the local deterministic exploitation
/// (Algorithm 3). The paper's only stop rule is the edge budget `2R(k)/√c`;
/// at exact-computation settings (`ε = 1e-7`) that budget is astronomically
/// large, so a faithful implementation additionally needs per-node caps to
/// keep the exploration polynomial. Both caps are generous defaults that the
/// benchmark harness can tighten or loosen; hitting a cap degrades accuracy
/// gracefully (the remaining tail is still estimated by sampling).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocalExploreCaps {
    /// Maximum deterministic exploration depth `ℓ(k)`; at least 1 (tail
    /// walks continue for up to `4 * max_levels` steps).
    pub max_levels: usize,
    /// Maximum number of edge traversals spent exploring one node.
    pub max_edges: u64,
    /// Maximum number of tail walk pairs sampled for one node; at least 1.
    pub max_tail_samples: u64,
}

impl Default for LocalExploreCaps {
    fn default() -> Self {
        LocalExploreCaps {
            max_levels: 40,
            max_edges: 200_000,
            max_tail_samples: 100_000,
        }
    }
}

/// Which estimator to use for `D`.
#[derive(Clone, Debug, PartialEq)]
pub enum DiagonalEstimator {
    /// Use an externally supplied exact diagonal (validation / ablation).
    Exact(Vec<f64>),
    /// `D = (1 − c)·I`, the ParSim approximation (ignores the first-meeting
    /// constraint; biased).
    ParSimApprox,
    /// Algorithm 2: Bernoulli sampling of √c-walk pairs.
    Bernoulli,
    /// Algorithm 3: deterministic local exploitation plus tail sampling.
    LocalDeterministic(LocalExploreCaps),
}

/// The result of estimating `D` for a whole graph.
#[derive(Clone, Debug, Default)]
pub struct DiagonalEstimate {
    /// `values[k]` is `D̂(k,k)`. Nodes that received no samples keep the
    /// unbiased-prior value `1 − c` (their weight in the caller is zero).
    pub values: Vec<f64>,
    /// Total pairs of walks simulated (Algorithm 2 trials + Algorithm 3 tail
    /// pairs).
    pub walk_pairs: u64,
    /// Total edge traversals performed by the deterministic exploration.
    pub explore_edges: u64,
    /// Number of nodes whose tail sampling was skipped because the
    /// deterministic part already reached the required accuracy.
    pub tails_skipped: usize,
}

/// Statistics of a single-node Algorithm 3 run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LocalNodeStats {
    /// The deterministic exploration depth `ℓ(k)` that was reached.
    pub levels: usize,
    /// Edge traversals spent on the deterministic part.
    pub edges: u64,
    /// Tail walk pairs actually sampled.
    pub tail_pairs: u64,
    /// `true` when the tail was provably below the requested tolerance and
    /// sampling was skipped.
    pub tail_skipped: bool,
}

/// Algorithm 2: estimates `D(k,k)` by simulating `samples` pairs of √c-walks
/// from `node` and returning the fraction of pairs that never meet.
///
/// The result is clamped to the feasible interval `[1 − c, 1]`.
pub fn estimate_bernoulli<G: NeighborAccess>(
    graph: &G,
    node: NodeId,
    samples: u64,
    sqrt_c: f64,
    max_steps: usize,
    rng: &mut SmallRng,
) -> f64 {
    let c = sqrt_c * sqrt_c;
    let din = graph.in_degree(node);
    if din == 0 {
        return 1.0;
    }
    if din == 1 {
        return 1.0 - c;
    }
    if samples == 0 {
        return 1.0 - c;
    }
    let mut not_met = 0u64;
    for _ in 0..samples {
        if matches!(
            walks::sample_meeting_pair(graph, node, sqrt_c, max_steps, rng),
            PairOutcome::NoMeeting
        ) {
            not_met += 1;
        }
    }
    (not_met as f64 / samples as f64).clamp(1.0 - c, 1.0)
}

/// Algorithm 3: deterministic local exploitation of the first-meeting
/// probabilities, plus sampled tail correction.
///
/// * `samples` is the paper's `R(k)` — it controls both the edge budget
///   (`2R(k)/√c`) and the tail sample count.
/// * `tail_skip_threshold`: if the deterministic exploration reaches a level
///   `ℓ` with `c^ℓ ≤ tail_skip_threshold`, the entire remaining tail is below
///   that threshold and sampling is skipped (bias ≤ threshold). Pass `0.0`
///   to always sample, reproducing the paper's pseudocode verbatim.
///
/// Two refinements relative to the literal pseudocode (see also "Practical
/// deviations" in the [`crate::exactsim`] module docs): (1) the tail is
/// sampled with `⌈R(k)·c^{2ℓ(k)}⌉` pairs instead of `R(k)` — each
/// tail sample has range `c^{ℓ(k)}`, so this keeps the variance at the
/// `1/R(k)` level the paper's analysis assumes while avoiding astronomically
/// many walks; (2) the engineering caps in [`LocalExploreCaps`].
///
/// All intermediate state lives in the caller-owned [`DiagonalScratch`]:
/// walk distributions in its [`crate::scratch::DistTable`] (an arena of the
/// levels `t ≥ 2`; `e_q` and the first step `P·e_q` are read off the
/// graph), the per-level `Z` accumulation in a dense workspace with a
/// live-slot bitmap, drained in sorted index order. The seed-era
/// implementation accumulated through `BTreeMap`s, which sum in exactly that
/// ascending-key order — so this version is bit-identical (pinned by
/// `tests/properties.rs` against a verbatim port of the old code) while
/// performing no per-node allocation in steady state.
///
/// Each call is a query of its own: it starts with an empty arena, so the
/// result and its statistics depend on nothing but the arguments. (Within
/// [`estimate_diagonal_in`], all nodes of the call share one arena.)
///
/// # Panics
/// Panics if `scratch` was created for a graph with a different node count.
#[allow(clippy::too_many_arguments)]
pub fn estimate_local_deterministic<G: NeighborAccess>(
    graph: &G,
    node: NodeId,
    samples: u64,
    sqrt_c: f64,
    tail_skip_threshold: f64,
    caps: LocalExploreCaps,
    scratch: &mut DiagonalScratch,
    rng: &mut SmallRng,
) -> (f64, LocalNodeStats) {
    let n = graph.num_nodes();
    assert_scratch_fits(scratch, n);
    scratch.dist.begin_query(n);
    explore_node(
        graph,
        node,
        samples,
        sqrt_c,
        tail_skip_threshold,
        caps,
        scratch,
        rng,
    )
}

/// A scratch retained from a *different* graph would index out of bounds
/// deep inside the kernels (or silently carry the wrong size); fail loudly
/// at the boundary instead.
fn assert_scratch_fits(scratch: &DiagonalScratch, n: usize) {
    assert_eq!(
        scratch.num_nodes(),
        n,
        "diagonal scratch was created for a graph with {} nodes, \
         but this graph has {n}",
        scratch.num_nodes()
    );
}

/// Algorithm 3 for one node, inside the query the scratch's arena is on:
/// walk distributions built for earlier nodes of the query are reused, and
/// the node is charged each level's edge cost the first time it reaches it.
#[allow(clippy::too_many_arguments)]
fn explore_node<G: NeighborAccess>(
    graph: &G,
    node: NodeId,
    samples: u64,
    sqrt_c: f64,
    tail_skip_threshold: f64,
    caps: LocalExploreCaps,
    scratch: &mut DiagonalScratch,
    rng: &mut SmallRng,
) -> (f64, LocalNodeStats) {
    let c = sqrt_c * sqrt_c;
    let din = graph.in_degree(node);
    if din == 0 {
        return (1.0, LocalNodeStats::default());
    }
    if din == 1 {
        return (1.0 - c, LocalNodeStats::default());
    }

    let edge_budget = if samples == 0 {
        0
    } else {
        (((2 * samples) as f64) / sqrt_c).ceil() as u64
    };
    let edge_budget = edge_budget.min(caps.max_edges);

    let DiagonalScratch { z, z_levels, dist } = scratch;
    // Level t of dist's slot s is P^t · e_s (no decay).
    dist.begin_node();

    let mut edges_used = 0u64;
    // Z[t] (t >= 1) lives in z_levels[t - 1] as a sorted sparse vector of the
    // strictly positive entries (zero and clamped-negative entries carry no
    // weight downstream; the seed-era BTreeMap kept and then filtered them).
    let mut z_len = 0usize;
    let mut met_probability = 0.0f64;

    let mut level = 0usize;
    while level < caps.max_levels {
        let next_level = level + 1;
        // Z_{next_level}(node, q) = c^ℓ (P^ℓ e_node)(q)²
        //   − Σ_{t=1}^{ℓ-1} Σ_{q'} c^{ℓ-t} (P^{ℓ-t} e_{q'})(q)² · Z_t(node, q').
        edges_used += dist.reach(graph, node, next_level);
        let scale = c.powi(next_level as i32);
        dist.for_each_mapped(
            graph,
            node,
            next_level,
            |v| scale * v * v,
            |q, term| z.add(q, term),
        );
        for t in 1..next_level {
            let remaining = next_level - t;
            let z_t = &z_levels[t - 1];
            for (q_prime, z_val) in z_t.iter() {
                edges_used += dist.reach(graph, q_prime, remaining);
                let factor = c.powi(remaining as i32) * z_val;
                if factor == 0.0 {
                    continue;
                }
                dist.for_each_mapped(
                    graph,
                    q_prime,
                    remaining,
                    |v| factor * v * v,
                    |q, term| z.add(q, -term),
                );
            }
        }
        // Drain in sorted index order (the BTreeMap iteration order):
        // accumulate the level mass with tiny negatives clamped — Z is a
        // probability — and store the strictly positive entries as Z_t.
        if z_levels.len() == z_len {
            z_levels.push(SparseVec::new());
        }
        let stored = &mut z_levels[z_len];
        stored.clear();
        let mut level_mass = 0.0f64;
        z.drain_sorted(|q, v| {
            level_mass += v.max(0.0);
            if v > 0.0 {
                stored.push_sorted(q, v);
            }
        });
        z_len += 1;
        met_probability += level_mass;
        level = next_level;

        let tail_bound = c.powi(level as i32);
        if tail_bound <= tail_skip_threshold {
            break;
        }
        if edges_used >= edge_budget {
            break;
        }
    }

    let mut stats = LocalNodeStats {
        levels: level,
        edges: edges_used,
        tail_pairs: 0,
        tail_skipped: false,
    };

    let tail_bound = c.powi(level as i32);
    let mut d_hat = 1.0 - met_probability;

    if tail_bound <= tail_skip_threshold || samples == 0 {
        stats.tail_skipped = true;
        return (d_hat.clamp(1.0 - c, 1.0), stats);
    }

    // Tail sampling: pairs of walks that ignore the stopping coin for the
    // first `level` steps and then continue as √c-walks. Equivalent-variance
    // sample reduction: R'(k) = ⌈R(k)·c^{2ℓ(k)}⌉.
    let reduced = ((samples as f64) * tail_bound * tail_bound).ceil() as u64;
    let tail_samples = reduced.clamp(1, caps.max_tail_samples);
    let mut tail_hits = 0u64;
    let max_continue_steps = 4 * caps.max_levels;
    for _ in 0..tail_samples {
        if sample_tail_pair(graph, node, level, sqrt_c, max_continue_steps, rng) {
            tail_hits += 1;
        }
    }
    stats.tail_pairs = tail_samples;
    let tail_estimate = tail_bound * tail_hits as f64 / tail_samples as f64;
    d_hat -= tail_estimate;
    (d_hat.clamp(1.0 - c, 1.0), stats)
}

/// Simulates one pair of Algorithm 3 tail walks: both walks take `forced`
/// steps without the stopping coin; if they meet during the forced phase (or
/// either gets stuck) the trial contributes 0. Otherwise both continue as
/// ordinary √c-walks and the trial contributes 1 iff they eventually meet.
fn sample_tail_pair<G: NeighborAccess>(
    graph: &G,
    start: NodeId,
    forced: usize,
    sqrt_c: f64,
    max_continue_steps: usize,
    rng: &mut SmallRng,
) -> bool {
    let mut a = start;
    let mut b = start;
    for _ in 0..forced {
        let na = walks::step_forced(graph, a, rng);
        let nb = walks::step_forced(graph, b, rng);
        match (na, nb) {
            (Some(x), Some(y)) => {
                if x == y {
                    // First meeting happened at a level ≤ ℓ(k): already
                    // accounted for deterministically, so this trial is void.
                    return false;
                }
                a = x;
                b = y;
            }
            _ => return false,
        }
    }
    // Continue as ordinary √c-walks from (a, b).
    for _ in 0..max_continue_steps {
        let na = walks::step(graph, a, sqrt_c, rng);
        let nb = walks::step(graph, b, sqrt_c, rng);
        match (na, nb) {
            (Some(x), Some(y)) => {
                if x == y {
                    return true;
                }
                a = x;
                b = y;
            }
            _ => return false,
        }
    }
    false
}

/// Estimates `D̂(k,k)` for every node with a positive sample allocation,
/// with a scratch of its own (for index-build-time callers).
pub fn estimate_diagonal<G: NeighborAccess>(
    graph: &G,
    allocation: &[u64],
    estimator: &DiagonalEstimator,
    sqrt_c: f64,
    tail_skip_threshold: f64,
    seed: u64,
) -> DiagonalEstimate {
    estimate_diagonal_in(
        graph,
        allocation,
        estimator,
        sqrt_c,
        tail_skip_threshold,
        seed,
        &mut DiagonalScratch::new(graph.num_nodes()),
    )
}

/// [`estimate_diagonal_in`] in the shape perfbench's core replica calls:
/// `threads` must be 1, and `scratches` holds the one scratch (created on
/// first use). Both parameters go with that replica in the ROADMAP's
/// latency-ledger benchmark follow-up.
#[allow(clippy::too_many_arguments)]
pub fn estimate_diagonal_with<G: NeighborAccess>(
    graph: &G,
    allocation: &[u64],
    estimator: &DiagonalEstimator,
    sqrt_c: f64,
    tail_skip_threshold: f64,
    seed: u64,
    threads: usize,
    scratches: &mut Vec<DiagonalScratch>,
) -> DiagonalEstimate {
    assert_eq!(threads, 1, "every kernel runs on its caller's thread");
    if scratches.is_empty() {
        scratches.push(DiagonalScratch::new(graph.num_nodes()));
    }
    estimate_diagonal_in(
        graph,
        allocation,
        estimator,
        sqrt_c,
        tail_skip_threshold,
        seed,
        &mut scratches[0],
    )
}

/// Estimates `D̂(k,k)` for every node with a positive sample allocation,
/// with a caller-owned scratch.
///
/// `allocation[k]` is the paper's `R(k)`; nodes with zero allocation keep the
/// prior `1 − c` (their contribution to the caller's result is zero anyway).
/// Every node derives its own RNG stream from `(seed, k)`, and the call is
/// one query of the scratch's walk-distribution arena, so the result depends
/// only on the arguments, never on what the scratch ran before.
///
/// # Panics
/// Panics if `allocation` does not cover every node, or if Algorithm 3 gets
/// a scratch created for a graph with a different node count.
pub fn estimate_diagonal_in<G: NeighborAccess>(
    graph: &G,
    allocation: &[u64],
    estimator: &DiagonalEstimator,
    sqrt_c: f64,
    tail_skip_threshold: f64,
    seed: u64,
    scratch: &mut DiagonalScratch,
) -> DiagonalEstimate {
    let n = graph.num_nodes();
    assert_eq!(allocation.len(), n, "allocation must cover every node");
    let c = sqrt_c * sqrt_c;
    let mut out = DiagonalEstimate {
        values: vec![1.0 - c; n],
        ..Default::default()
    };
    match estimator {
        DiagonalEstimator::Exact(values) => {
            assert_eq!(values.len(), n, "exact diagonal must cover every node");
            out.values = values.clone();
        }
        DiagonalEstimator::ParSimApprox => {
            // values already initialised to 1 - c.
        }
        DiagonalEstimator::Bernoulli => {
            let max_steps = 10 * ((1.0 / (1.0 - sqrt_c)).ceil() as usize).max(10);
            for (k, &r) in allocation.iter().enumerate() {
                if r == 0 {
                    continue;
                }
                let node = k as NodeId;
                out.values[k] = match graph.in_degree(node) {
                    0 => 1.0,
                    1 => 1.0 - c,
                    _ => {
                        let mut rng = walks::make_rng(walks::derive_seed(seed, k as u64));
                        out.walk_pairs += r;
                        estimate_bernoulli(graph, node, r, sqrt_c, max_steps, &mut rng)
                    }
                };
            }
        }
        DiagonalEstimator::LocalDeterministic(caps) => {
            assert_scratch_fits(scratch, n);
            scratch.dist.begin_query(n);
            for (k, &r) in allocation.iter().enumerate() {
                if r == 0 {
                    continue;
                }
                let mut rng = walks::make_rng(walks::derive_seed(seed, k as u64));
                let node_threshold = if tail_skip_threshold > 0.0 {
                    tail_skip_threshold.max(0.25 / (r as f64).sqrt())
                } else {
                    0.0
                };
                let (value, stats) = explore_node(
                    graph,
                    k as NodeId,
                    r,
                    sqrt_c,
                    node_threshold,
                    *caps,
                    scratch,
                    &mut rng,
                );
                out.values[k] = value;
                out.walk_pairs += stats.tail_pairs;
                out.explore_edges += stats.edges;
                out.tails_skipped += usize::from(stats.tail_skipped);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_method::{PowerMethod, PowerMethodConfig};
    use crate::walks::make_rng;
    use exactsim_graph::generators::{barabasi_albert, complete, cycle, star};

    fn scratch(n: usize) -> DiagonalScratch {
        DiagonalScratch::new(n)
    }

    const SQRT_C: f64 = 0.774_596_669_241_483_4; // sqrt(0.6)
    const C: f64 = 0.6;

    fn exact_d(graph: &exactsim_graph::DiGraph) -> Vec<f64> {
        PowerMethod::compute(graph, PowerMethodConfig::default())
            .unwrap()
            .exact_diagonal(graph)
    }

    #[test]
    fn trivial_degree_cases() {
        // Leaves of the directed star have din = 0 → D = 1;
        // nodes of a cycle have din = 1 → D = 1 - c.
        let star_graph = star(5, false);
        let mut rng = make_rng(1);
        assert_eq!(
            estimate_bernoulli(&star_graph, 2, 100, SQRT_C, 50, &mut rng),
            1.0
        );
        let cyc = cycle(6);
        assert!((estimate_bernoulli(&cyc, 0, 100, SQRT_C, 50, &mut rng) - (1.0 - C)).abs() < 1e-12);
        let mut ws = scratch(6);
        let (d, stats) = estimate_local_deterministic(
            &cyc,
            0,
            100,
            SQRT_C,
            0.0,
            Default::default(),
            &mut ws,
            &mut rng,
        );
        assert!((d - (1.0 - C)).abs() < 1e-12);
        assert_eq!(stats.levels, 0);
    }

    #[test]
    fn bernoulli_estimator_is_consistent_with_exact_d() {
        let g = barabasi_albert(60, 2, true, 7).unwrap();
        let exact = exact_d(&g);
        let mut rng = make_rng(2);
        for k in [0u32, 5, 20, 59] {
            let est = estimate_bernoulli(&g, k, 30_000, SQRT_C, 200, &mut rng);
            assert!(
                (est - exact[k as usize]).abs() < 0.02,
                "node {k}: estimate {est} vs exact {}",
                exact[k as usize]
            );
        }
    }

    #[test]
    fn bernoulli_respects_feasible_interval() {
        let g = complete(10);
        let mut rng = make_rng(3);
        for k in 0..10u32 {
            let est = estimate_bernoulli(&g, k, 200, SQRT_C, 100, &mut rng);
            assert!((1.0 - C..=1.0).contains(&est));
        }
    }

    #[test]
    fn local_deterministic_matches_exact_d_without_sampling() {
        // With a deep skip threshold the estimator is almost purely
        // deterministic and should nail D to ~1e-6.
        let g = barabasi_albert(40, 2, true, 9).unwrap();
        let exact = exact_d(&g);
        let mut ws = scratch(g.num_nodes());
        let mut rng = make_rng(4);
        let caps = LocalExploreCaps {
            max_levels: 40,
            max_edges: u64::MAX,
            max_tail_samples: 10,
        };
        for k in 0..g.num_nodes() as u32 {
            let (est, stats) = estimate_local_deterministic(
                &g, k, 1_000_000, SQRT_C, 1e-7, caps, &mut ws, &mut rng,
            );
            assert!(
                (est - exact[k as usize]).abs() < 1e-5,
                "node {k}: local-deterministic {est} vs exact {} (levels {})",
                exact[k as usize],
                stats.levels
            );
        }
    }

    #[test]
    fn local_deterministic_with_tail_sampling_is_unbiased_enough() {
        // Shallow exploration forces real tail sampling; accuracy should still
        // beat the raw Bernoulli estimator for the same sample count.
        let g = barabasi_albert(50, 3, true, 11).unwrap();
        let exact = exact_d(&g);
        let mut ws = scratch(g.num_nodes());
        let caps = LocalExploreCaps {
            max_levels: 3,
            max_edges: u64::MAX,
            max_tail_samples: 200_000,
        };
        for k in [0u32, 10, 30] {
            let mut rng = make_rng(100 + k as u64);
            let (est, stats) =
                estimate_local_deterministic(&g, k, 50_000, SQRT_C, 0.0, caps, &mut ws, &mut rng);
            assert!(!stats.tail_skipped);
            assert!(stats.tail_pairs > 0);
            assert!(
                (est - exact[k as usize]).abs() < 0.02,
                "node {k}: {est} vs {}",
                exact[k as usize]
            );
        }
    }

    #[test]
    fn exploration_respects_edge_budget() {
        let g = barabasi_albert(200, 3, true, 13).unwrap();
        let mut ws = scratch(g.num_nodes());
        let mut rng = make_rng(5);
        let caps = LocalExploreCaps {
            max_levels: 40,
            max_edges: 500,
            max_tail_samples: 10,
        };
        let (_, stats) =
            estimate_local_deterministic(&g, 0, u64::MAX / 4, SQRT_C, 0.0, caps, &mut ws, &mut rng);
        // The budget is checked after each level, so we can overshoot by at
        // most one level's worth of work, never run away.
        assert!(stats.edges < 500 + 10 * g.num_edges() as u64);
        assert!(stats.levels < 40);
    }

    #[test]
    fn estimate_diagonal_full_graph_respects_allocation() {
        let g = barabasi_albert(80, 2, true, 17).unwrap();
        let mut allocation = vec![0u64; g.num_nodes()];
        allocation[3] = 5_000;
        allocation[40] = 5_000;
        let est = estimate_diagonal(
            &g,
            &allocation,
            &DiagonalEstimator::Bernoulli,
            SQRT_C,
            0.0,
            9,
        );
        assert_eq!(est.walk_pairs, 10_000);
        let exact = exact_d(&g);
        assert!((est.values[3] - exact[3]).abs() < 0.05);
        assert!((est.values[40] - exact[40]).abs() < 0.05);
        // Unallocated nodes keep the prior.
        assert!((est.values[10] - (1.0 - C)).abs() < 1e-12);
    }

    #[test]
    fn estimate_diagonal_exact_and_parsim_modes() {
        let g = complete(8);
        let exact = exact_d(&g);
        let allocation = vec![10u64; 8];
        let e = estimate_diagonal(
            &g,
            &allocation,
            &DiagonalEstimator::Exact(exact.clone()),
            SQRT_C,
            0.0,
            1,
        );
        assert_eq!(e.values, exact);
        assert_eq!(e.walk_pairs, 0);
        let p = estimate_diagonal(
            &g,
            &allocation,
            &DiagonalEstimator::ParSimApprox,
            SQRT_C,
            0.0,
            1,
        );
        assert!(p.values.iter().all(|&v| (v - (1.0 - C)).abs() < 1e-15));
    }

    #[test]
    fn local_deterministic_mode_is_accurate_on_a_whole_graph() {
        let g = barabasi_albert(60, 2, true, 23).unwrap();
        let allocation = vec![50_000u64; g.num_nodes()];
        let est = estimate_diagonal(
            &g,
            &allocation,
            &DiagonalEstimator::LocalDeterministic(LocalExploreCaps::default()),
            SQRT_C,
            1e-3,
            77,
        );
        let exact = exact_d(&g);
        for (k, (est_k, exact_k)) in est.values.iter().zip(&exact).enumerate() {
            assert!(
                (est_k - exact_k).abs() < 0.02,
                "node {k}: {est_k} vs {exact_k}"
            );
        }
    }

    #[test]
    fn tails_are_skipped_when_exploration_is_cheap() {
        // On a small complete graph the deterministic exploration reaches the
        // skip threshold long before the edge budget, so no tail walks are
        // sampled at all.
        let g = complete(6);
        let allocation = vec![1_000_000_000u64; 6];
        let est = estimate_diagonal(
            &g,
            &allocation,
            &DiagonalEstimator::LocalDeterministic(LocalExploreCaps::default()),
            SQRT_C,
            1e-4,
            3,
        );
        assert_eq!(est.tails_skipped, 6);
        assert_eq!(est.walk_pairs, 0);
        let exact = exact_d(&g);
        for (est_k, exact_k) in est.values.iter().zip(&exact) {
            assert!((est_k - exact_k).abs() < 1e-3);
        }
    }

    #[test]
    fn empty_graph_returns_an_empty_estimate() {
        let g = exactsim_graph::GraphBuilder::new(0).build();
        for estimator in [
            DiagonalEstimator::Bernoulli,
            DiagonalEstimator::ParSimApprox,
            DiagonalEstimator::LocalDeterministic(LocalExploreCaps::default()),
        ] {
            let est = estimate_diagonal(&g, &[], &estimator, SQRT_C, 0.0, 1);
            assert!(est.values.is_empty());
            assert_eq!(est.walk_pairs, 0);
        }
    }

    #[test]
    #[should_panic(expected = "diagonal scratch was created for a graph with 8 nodes")]
    fn per_node_estimate_rejects_a_scratch_for_a_smaller_graph() {
        let g = complete(10);
        let mut ws = scratch(8);
        let mut rng = make_rng(6);
        estimate_local_deterministic(
            &g,
            9,
            1_000,
            SQRT_C,
            0.0,
            LocalExploreCaps::default(),
            &mut ws,
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "diagonal scratch was created for a graph with 12 nodes")]
    fn per_node_estimate_rejects_a_scratch_for_a_larger_graph() {
        let g = complete(10);
        let mut ws = scratch(12);
        let mut rng = make_rng(6);
        estimate_local_deterministic(
            &g,
            0,
            1_000,
            SQRT_C,
            0.0,
            LocalExploreCaps::default(),
            &mut ws,
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "allocation must cover every node")]
    fn allocation_length_is_checked() {
        let g = complete(4);
        estimate_diagonal(&g, &[1, 2], &DiagonalEstimator::Bernoulli, SQRT_C, 0.0, 1);
    }
}
