//! Property-style tests for the core SimRank invariants, run on randomly
//! generated graphs that span the crates.
//!
//! Originally written against `proptest`; the offline build environment has
//! no crates.io access, so the same properties are exercised here over a
//! deterministic family of seeded random graphs (24 cases per property, the
//! same case count the proptest configuration used). No shrinking, but every
//! failure reproduces exactly from the printed case seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use exactsim::config::SimRankConfig;
use exactsim::diagonal::{
    estimate_diagonal_in, estimate_local_deterministic, DiagonalEstimator, LocalExploreCaps,
    LocalNodeStats,
};
use exactsim::exactsim::{ExactSim, ExactSimConfig, ExactSimVariant};
use exactsim::linearization::{Linearization, LinearizationConfig};
use exactsim::mc::{MonteCarlo, MonteCarloConfig};
use exactsim::metrics::max_error;
use exactsim::parsim::{ParSim, ParSimConfig};
use exactsim::power_method::{PowerMethod, PowerMethodConfig};
use exactsim::ppr::{dense_hop_vectors, sparse_hop_vectors};
use exactsim::prsim::{PrSim, PrSimConfig};
use exactsim::scratch::DiagonalScratch;
use exactsim::walks;
use exactsim_graph::generators::{
    barabasi_albert, gnm_directed, stochastic_block_model, SbmConfig,
};
use exactsim_graph::io::{parse_edge_list, to_edge_list_string, EdgeListOptions};
use exactsim_graph::linalg::Workspace;
use exactsim_graph::{DiGraph, EdgeDelta, GraphBuilder};

const SQRT_C: f64 = 0.774_596_669_241_483_4; // sqrt(0.6)
const CASES: u64 = 24;

/// A random directed graph with 2..=24 nodes and up to 80 edges (self-loops
/// allowed at generation, duplicates removed by the builder) — the same
/// distribution the previous proptest strategy produced.
fn arbitrary_graph(case_seed: u64) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(0xA5A5_0000 ^ case_seed);
    let n = rng.gen_range(2usize..=24);
    let edges = rng.gen_range(0usize..80);
    let mut builder = GraphBuilder::new(n);
    for _ in 0..edges {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        builder.add_edge(u, v);
    }
    builder.build()
}

fn for_each_case(mut check: impl FnMut(&DiGraph)) {
    for case in 0..CASES {
        let graph = arbitrary_graph(case);
        eprintln!(
            "case {case}: n={} m={}",
            graph.num_nodes(),
            graph.num_edges()
        );
        check(&graph);
    }
}

#[test]
fn simrank_matrix_is_symmetric_bounded_and_unit_diagonal() {
    for_each_case(|graph| {
        let pm = PowerMethod::compute(graph, PowerMethodConfig::default()).unwrap();
        let n = graph.num_nodes() as u32;
        for i in 0..n {
            assert_eq!(pm.similarity(i, i), 1.0);
            for j in 0..n {
                let s = pm.similarity(i, j);
                assert!((0.0..=1.0 + 1e-9).contains(&s), "S({i},{j}) = {s}");
                assert!((s - pm.similarity(j, i)).abs() < 1e-9);
            }
        }
    });
}

#[test]
fn exact_diagonal_lies_in_its_feasible_interval() {
    for_each_case(|graph| {
        let pm = PowerMethod::compute(graph, PowerMethodConfig::default()).unwrap();
        let d = pm.exact_diagonal(graph);
        for (k, &dk) in d.iter().enumerate() {
            assert!(
                (1.0 - 0.6 - 1e-9..=1.0 + 1e-9).contains(&dk),
                "D({k}) = {dk} outside [1-c, 1]"
            );
            if graph.in_degree(k as u32) == 0 {
                assert!((dk - 1.0).abs() < 1e-12);
            }
        }
    });
}

#[test]
fn exactsim_with_exact_diagonal_matches_the_power_method() {
    for_each_case(|graph| {
        let pm = PowerMethod::compute(graph, PowerMethodConfig::default()).unwrap();
        let solver = ExactSim::new(
            graph,
            ExactSimConfig {
                epsilon: 1e-6,
                variant: ExactSimVariant::Optimized,
                diagonal: exactsim::exactsim::DiagonalMode::Exact(pm.exact_diagonal(graph)),
                ..Default::default()
            },
        )
        .unwrap();
        for source in 0..graph.num_nodes() as u32 {
            let result = solver.query(source).unwrap();
            let err = max_error(&result.scores, &pm.single_source(source));
            assert!(err < 1e-5, "source {source}: error {err}");
        }
    });
}

#[test]
fn hop_vector_mass_is_conserved_or_lost_never_created() {
    for_each_case(|graph| {
        let hv = dense_hop_vectors(graph, 0, SQRT_C, 20);
        let mut cumulative = 0.0;
        for (level, hop) in hv.hops.iter().enumerate() {
            let mass: f64 = hop.iter().sum();
            assert!(mass >= -1e-12);
            assert!(
                mass <= (1.0 - SQRT_C) * SQRT_C.powi(level as i32) + 1e-9,
                "level {level} mass {mass} exceeds the survival bound"
            );
            cumulative += mass;
        }
        assert!(cumulative <= 1.0 + 1e-9);
    });
}

#[test]
fn sparse_and_dense_hop_vectors_agree_without_pruning() {
    for_each_case(|graph| {
        let n = graph.num_nodes();
        let mut ws = Workspace::new(n);
        let dense = dense_hop_vectors(graph, 1 % n as u32, SQRT_C, 10);
        let sparse = sparse_hop_vectors(graph, 1 % n as u32, SQRT_C, 10, 0.0, &mut ws);
        for level in 0..=10 {
            let expanded = sparse.hops[level].to_dense(n);
            for (e, d) in expanded.iter().zip(&dense.hops[level]) {
                assert!((e - d).abs() < 1e-12);
            }
        }
    });
}

#[test]
fn local_deterministic_diagonal_matches_the_exact_one() {
    for_each_case(|graph| {
        let pm = PowerMethod::compute(graph, PowerMethodConfig::default()).unwrap();
        let exact = pm.exact_diagonal(graph);
        let mut scratch = DiagonalScratch::new(graph.num_nodes());
        let mut rng = walks::make_rng(7);
        for k in 0..graph.num_nodes() as u32 {
            let (estimate, _) = estimate_local_deterministic(
                graph,
                k,
                10_000,
                SQRT_C,
                1e-6,
                LocalExploreCaps {
                    max_edges: u64::MAX,
                    max_tail_samples: 100,
                    ..Default::default()
                },
                &mut scratch,
                &mut rng,
            );
            assert!(
                (estimate - exact[k as usize]).abs() < 2e-3,
                "node {k}: {estimate} vs {}",
                exact[k as usize]
            );
        }
    });
}

#[test]
fn edge_list_round_trip_preserves_the_graph() {
    for_each_case(|graph| {
        let text = to_edge_list_string(graph);
        let loaded = parse_edge_list(&text, EdgeListOptions::default()).unwrap();
        assert_eq!(loaded.graph.num_edges(), graph.num_edges());
        for (u, v) in graph.iter_edges() {
            // Node ids may be remapped (first-appearance order), so map back.
            let du = loaded.dense_id_of(u as u64).unwrap();
            let dv = loaded.dense_id_of(v as u64).unwrap();
            assert!(loaded.graph.has_edge(du, dv));
        }
    });
}

/// A verbatim port of the **seed-era** Algorithm 3 implementation (the
/// `BTreeMap`-based `estimate_local_deterministic` this repo shipped before
/// the Scratch rewrite), kept here as the reference the rewritten kernel is
/// required to be bit-identical to. Uses only public API, so it stays
/// independent of the production code paths.
mod seed_reference {
    use std::cell::Cell;
    use std::collections::BTreeMap;

    use exactsim::diagonal::{LocalExploreCaps, LocalNodeStats};
    use exactsim::walks;
    use exactsim_graph::linalg::{p_multiply_sparse, SparseVec, Workspace};
    use exactsim_graph::{DiGraph, NodeId};
    use rand::rngs::SmallRng;

    fn sample_tail_pair(
        graph: &DiGraph,
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
                        return false;
                    }
                    a = x;
                    b = y;
                }
                _ => return false,
            }
        }
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

    thread_local! {
        /// Builds of levels ≥ 2 (the levels the production arena builds,
        /// the lower ones being views there), by scatter mode: narrow, wide.
        static BUILDS: Cell<[usize; 2]> = const { Cell::new([0; 2]) };
    }

    fn count_build(level: usize, adds: u64, workspace: &Workspace) {
        if level >= 2 {
            BUILDS.with(|builds| {
                let mut counts = builds.get();
                counts[usize::from(workspace.scatters_wide(adds))] += 1;
                builds.set(counts);
            });
        }
    }

    /// The [narrow, wide] level builds this thread has run since the last
    /// call.
    pub fn take_build_modes() -> [usize; 2] {
        BUILDS.with(Cell::take)
    }

    #[allow(clippy::too_many_arguments)]
    pub fn estimate_local_deterministic(
        graph: &DiGraph,
        node: NodeId,
        samples: u64,
        sqrt_c: f64,
        tail_skip_threshold: f64,
        caps: LocalExploreCaps,
        workspace: &mut Workspace,
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

        let mut dist: BTreeMap<NodeId, Vec<SparseVec>> = BTreeMap::new();
        dist.insert(node, vec![SparseVec::unit(node, 1.0)]);

        let mut edges_used = 0u64;
        let mut z_levels: Vec<BTreeMap<NodeId, f64>> = Vec::new();
        let mut met_probability = 0.0f64;

        let mut level = 0usize;
        let extend_cost = |v: &SparseVec, graph: &DiGraph| -> u64 {
            v.iter().map(|(j, _)| graph.in_degree(j) as u64).sum()
        };

        while level < caps.max_levels {
            let next_level = level + 1;
            {
                let node_dist = dist.get_mut(&node).expect("source distribution present");
                while node_dist.len() <= next_level {
                    let last = node_dist.last().expect("at least level 0");
                    let cost = extend_cost(last, graph);
                    edges_used += cost;
                    count_build(node_dist.len(), cost, workspace);
                    let next = p_multiply_sparse(graph, last, workspace);
                    node_dist.push(next);
                }
            }

            let mut z_next: BTreeMap<NodeId, f64> = BTreeMap::new();
            {
                let node_dist = &dist[&node];
                let base = &node_dist[next_level];
                let scale = c.powi(next_level as i32);
                for (q, v) in base.iter() {
                    z_next.insert(q, scale * v * v);
                }
            }
            for t in 1..next_level {
                let remaining = next_level - t;
                let entries: Vec<(NodeId, f64)> = z_levels[t - 1]
                    .iter()
                    .map(|(&q, &v)| (q, v))
                    .filter(|&(_, v)| v > 0.0)
                    .collect();
                for (q_prime, z_val) in entries {
                    let q_dist = dist
                        .entry(q_prime)
                        .or_insert_with(|| vec![SparseVec::unit(q_prime, 1.0)]);
                    while q_dist.len() <= remaining {
                        let last = q_dist.last().expect("at least level 0");
                        let cost = extend_cost(last, graph);
                        edges_used += cost;
                        count_build(q_dist.len(), cost, workspace);
                        let next = p_multiply_sparse(graph, last, workspace);
                        q_dist.push(next);
                    }
                    let spread = &q_dist[remaining];
                    let factor = c.powi(remaining as i32) * z_val;
                    if factor == 0.0 {
                        continue;
                    }
                    for (q, v) in spread.iter() {
                        *z_next.entry(q).or_insert(0.0) -= factor * v * v;
                    }
                }
            }
            let level_mass: f64 = z_next.values().map(|&v| v.max(0.0)).sum();
            for v in z_next.values_mut() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
            met_probability += level_mass;
            z_levels.push(z_next);
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
}

/// The graphs the bit-identity properties sweep: three generated families
/// × three seeds, a multigraph, and `MIXED`. The 60–75-node graphs have
/// one or two bitmap words, so a level build there runs narrow only when it
/// makes fewer adds than that, which is rare.
fn bit_identity_graphs() -> Vec<(String, DiGraph)> {
    let mut graphs = Vec::new();
    for seed in [1u64, 2, 3] {
        graphs.push((
            format!("ba/{seed}"),
            barabasi_albert(60, 2, true, seed).unwrap(),
        ));
        graphs.push((format!("er/{seed}"), gnm_directed(70, 280, seed).unwrap()));
        graphs.push((
            format!("sbm/{seed}"),
            stochastic_block_model(SbmConfig {
                block_sizes: vec![25, 25, 25],
                p_within: 0.15,
                p_between: 0.02,
                seed,
            })
            .unwrap()
            .graph,
        ));
    }
    graphs.push(("multi".to_string(), multigraph()));
    graphs.push((
        MIXED.to_string(),
        gnm_directed(MIXED_NODES, 2 * MIXED_NODES, 4).unwrap(),
    ));
    graphs
}

/// A sparse graph whose level builds scatter both ways and are stored both
/// ways: with 2 edges per node over 7 bitmap words, a level-2 build makes
/// about 4 adds, fewer than the words, and runs narrow, while deeper levels
/// grow past 7 and run wide, and the deepest cover enough of the 400 nodes
/// to be stored as bitmaps. The bit-identity tests assert that each ran.
const MIXED: &str = "mixed";
const MIXED_NODES: usize = 400;

/// A graph only `DiGraph::from_edges` builds, since `GraphBuilder` removes
/// parallel edges and self-loops by default: each of 240 drawn edges is
/// added one, two or three times, so in-rows hold runs of duplicate ids;
/// every seventh node has a self-loop; node 0 has no in-edges.
fn multigraph() -> DiGraph {
    let n = 60u32;
    let mut rng = StdRng::seed_from_u64(0x3417);
    let mut edges = Vec::new();
    for _ in 0..240 {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(1..n));
        for _ in 0..rng.gen_range(1..=3) {
            edges.push((u, v));
        }
    }
    edges.extend((1..n).step_by(7).map(|v| (v, v)));
    DiGraph::from_edges(n as usize, &edges)
}

#[test]
fn batched_and_folded_csr_deltas_match_a_multiset_model() {
    // The reference is independent of the merge: a multiset of edges in
    // which a deletion clears every stored copy and an insertion adds one,
    // rebuilt from scratch by `DiGraph::from_edges`. The merge a store's
    // commit and WAL replay run (`InGraph::apply_deltas_into`), in one pass
    // over every delta or folded one delta at a time, must equal its in-rows
    // bit for bit.
    use std::collections::BTreeMap;
    type Edges = Vec<(u32, u32)>;

    let bases = (0..CASES)
        .map(|case| (format!("arbitrary/{case}"), arbitrary_graph(case)))
        .chain([("multi".to_string(), multigraph())]);
    for (case, (name, base)) in bases.enumerate() {
        let mut rng = StdRng::seed_from_u64(0x00DE_17A5 ^ case as u64);
        let old_n = base.num_nodes() as u32;
        let rows = base.in_graph();
        // Up to 3 isolated nodes, which later deltas attach edges to.
        let grown = rows.apply_deltas_into(base.num_nodes() + rng.gen_range(0..=3usize), &[], None);
        let n = grown.num_nodes() as u32;
        let mut model: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        for edge in base.iter_edges() {
            *model.entry(edge).or_default() += 1;
        }
        let mut deleted: Edges = Vec::new();
        let mut deltas: Vec<(Edges, Edges)> = Vec::new();
        for _ in 0..rng.gen_range(1..=60) {
            let (mut ins, mut del) = (Edges::new(), Edges::new());
            // One delta in five is empty.
            let size = if rng.gen_range(0..5) == 0 {
                0
            } else {
                rng.gen_range(1..=6)
            };
            for _ in 0..size {
                let present: Edges = model.keys().copied().collect();
                let edge = match rng.gen_range(0..4) {
                    // A present edge: deleted, or inserted as another copy.
                    0 if !present.is_empty() => present[rng.gen_range(0..present.len())],
                    // A deleted edge: re-inserted, or deleted while absent.
                    1 if !deleted.is_empty() => deleted[rng.gen_range(0..deleted.len())],
                    // An edge to a grown id.
                    2 if n > old_n => (rng.gen_range(0..n), rng.gen_range(old_n..n)),
                    _ => (rng.gen_range(0..n), rng.gen_range(0..n)),
                };
                if rng.gen_bool(0.5) {
                    ins.push(edge);
                } else {
                    del.push(edge);
                }
            }
            for list in [&mut ins, &mut del] {
                list.sort_unstable();
                list.dedup();
            }
            for edge in &del {
                model.remove(edge);
            }
            for &edge in &ins {
                *model.entry(edge).or_default() += 1;
            }
            deleted.extend(&del);
            deltas.push((ins, del));
        }
        let edges: Edges = model
            .iter()
            .flat_map(|(&edge, &copies)| std::iter::repeat_n(edge, copies))
            .collect();
        let reference = DiGraph::from_edges(n as usize, &edges);

        let views: Vec<EdgeDelta> = deltas
            .iter()
            .map(|(ins, del)| (ins.as_slice(), del.as_slice()))
            .collect();
        let batched = grown.apply_deltas_into(n as usize, &views, None);
        let folded = views.iter().fold(grown.clone(), |graph, &delta| {
            graph.apply_deltas_into(n as usize, &[delta], None)
        });
        // Grown inside the merge, into the arrays of a graph a rebuild made
        // (room to spare, other edges in them).
        let spare = folded.apply_deltas_into(n as usize, &[], None);
        let targets = spare.in_csr().targets().as_ptr();
        let recycled = rows.apply_deltas_into(n as usize, &views, Some(spare));
        assert_eq!(recycled.in_csr().targets().as_ptr(), targets, "{name}");
        // `CsrAdjacency` equality compares the offsets and targets arrays.
        for (how, got) in [
            ("all deltas in one pass", &batched),
            ("one delta at a time", &folded),
            ("all deltas into a spare", &recycled),
        ] {
            let at = format!("{name} ({} deltas): {how}", deltas.len());
            assert_eq!(got.in_csr(), reference.in_csr(), "{at}");
        }
    }
}

#[test]
fn scratch_diagonal_kernel_is_bit_identical_to_the_seed_era_implementation() {
    // The Scratch rewrite replaced every BTreeMap accumulator of Algorithm 3
    // with dense accumulators drained in sorted order. The
    // contract is bit-identity: same inputs, same RNG stream, the *exact*
    // same f64 bits out — including the cost statistics.
    for (name, graph) in bit_identity_graphs() {
        let n = graph.num_nodes();
        let mut seed_ws = Workspace::new(n);
        let mut scratch = DiagonalScratch::new(n);
        // Levels the scratch kernel stored: [index lists, bitmaps].
        let mut stored = [0usize; 2];
        for (threshold, samples) in [(0.0, 3_000u64), (1e-4, 50_000)] {
            for k in 0..n as u32 {
                let caps = LocalExploreCaps {
                    max_levels: 12,
                    max_edges: 50_000,
                    max_tail_samples: 500,
                };
                let mut rng_a = walks::make_rng(walks::derive_seed(99, k as u64));
                let mut rng_b = walks::make_rng(walks::derive_seed(99, k as u64));
                let (want, want_stats): (f64, LocalNodeStats) =
                    seed_reference::estimate_local_deterministic(
                        &graph,
                        k,
                        samples,
                        SQRT_C,
                        threshold,
                        caps,
                        &mut seed_ws,
                        &mut rng_a,
                    );
                let (got, got_stats) = estimate_local_deterministic(
                    &graph,
                    k,
                    samples,
                    SQRT_C,
                    threshold,
                    caps,
                    &mut scratch,
                    &mut rng_b,
                );
                assert_eq!(
                    want.to_bits(),
                    got.to_bits(),
                    "{name} node {k} threshold {threshold}: seed-era {want} vs scratch {got}"
                );
                assert_eq!(want_stats, got_stats, "{name} node {k} stats diverged");
                let levels = scratch.stored_levels();
                stored[0] += levels[0];
                stored[1] += levels[1];
            }
        }
        let modes = seed_reference::take_build_modes();
        if name == MIXED {
            assert!(
                modes[0] > 0 && modes[1] > 0,
                "{name}: narrow/wide builds {modes:?}"
            );
            assert!(
                stored[0] > 0 && stored[1] > 0,
                "{name}: index-list/bitmap levels {stored:?}"
            );
        }
    }
}

#[test]
fn diagonal_estimation_reusing_walk_distributions_matches_the_seed_era_per_node_runs() {
    // Within one `estimate_diagonal_in` call, every node reuses the walk
    // distributions earlier nodes built, while each is still charged the
    // edge cost of the levels it reaches. The seed-era kernel rebuilt them
    // for every node; both must give the same bits and the same counts.
    // Scratches are kept per node count across graph families and tail-skip
    // settings, so a distribution kept from an earlier graph would show.
    let caps = LocalExploreCaps {
        max_levels: 12,
        max_edges: 50_000,
        max_tail_samples: 500,
    };
    let seed = 0x5EED_u64;
    let c = SQRT_C * SQRT_C;
    let mut scratches: std::collections::BTreeMap<usize, DiagonalScratch> = Default::default();
    for (name, graph) in bit_identity_graphs() {
        let n = graph.num_nodes();
        let mut rng = StdRng::seed_from_u64(n as u64 ^ seed);
        let allocation: Vec<u64> = (0..n)
            .map(|_| match rng.gen_range(0u32..4) {
                0 => 0,
                _ => rng.gen_range(500u64..60_000),
            })
            .collect();
        for tail_skip in [0.0, 1e-3] {
            let mut seed_ws = Workspace::new(n);
            let mut want = vec![1.0 - c; n];
            let (mut want_pairs, mut want_edges, mut want_skipped) = (0u64, 0u64, 0usize);
            for (k, &r) in allocation.iter().enumerate() {
                if r == 0 {
                    continue;
                }
                let threshold = if tail_skip > 0.0 {
                    f64::max(tail_skip, 0.25 / (r as f64).sqrt())
                } else {
                    0.0
                };
                let mut node_rng = walks::make_rng(walks::derive_seed(seed, k as u64));
                let (value, stats) = seed_reference::estimate_local_deterministic(
                    &graph,
                    k as u32,
                    r,
                    SQRT_C,
                    threshold,
                    caps,
                    &mut seed_ws,
                    &mut node_rng,
                );
                want[k] = value;
                want_pairs += stats.tail_pairs;
                want_edges += stats.edges;
                want_skipped += usize::from(stats.tail_skipped);
            }
            let scratch = scratches
                .entry(n)
                .or_insert_with(|| DiagonalScratch::new(n));
            let got = estimate_diagonal_in(
                &graph,
                &allocation,
                &DiagonalEstimator::LocalDeterministic(caps),
                SQRT_C,
                tail_skip,
                seed,
                scratch,
            );
            let stored = scratch.stored_levels();
            for (k, (w, g)) in want.iter().zip(&got.values).enumerate() {
                assert_eq!(
                    w.to_bits(),
                    g.to_bits(),
                    "{name} tail_skip {tail_skip} node {k}: seed-era {w} vs reused {g}"
                );
            }
            let counts = (got.walk_pairs, got.explore_edges, got.tails_skipped);
            assert_eq!(
                counts,
                (want_pairs, want_edges, want_skipped),
                "{name} tail_skip {tail_skip}: \
                 (walk pairs, explore edges, tails skipped) diverged"
            );
            let modes = seed_reference::take_build_modes();
            if name == MIXED {
                assert!(
                    modes[0] > 0 && modes[1] > 0,
                    "{name} tail_skip {tail_skip}: narrow/wide builds {modes:?}"
                );
                assert!(
                    stored[0] > 0 && stored[1] > 0,
                    "{name} tail_skip {tail_skip}: index-list/bitmap levels {stored:?}"
                );
            }
        }
    }
}

#[test]
fn all_five_solvers_are_bit_identical_across_scratch_reuse_and_instances() {
    // One query answer per (solver, graph, source) — recomputed through a
    // reused scratch pool and through a fresh solver instance — must be the
    // same bit pattern every time.
    for (name, graph) in bit_identity_graphs() {
        let sources = [0u32, (graph.num_nodes() / 2) as u32];
        let run_all = || -> Vec<(String, Vec<f64>)> {
            let simrank = SimRankConfig::default();
            let mut outputs = Vec::new();
            let opt = ExactSim::new(
                &graph,
                ExactSimConfig {
                    simrank,
                    epsilon: 1e-2,
                    variant: ExactSimVariant::Optimized,
                    walk_budget: Some(20_000),
                    ..Default::default()
                },
            )
            .unwrap();
            let basic = ExactSim::new(
                &graph,
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
                &graph,
                ParSimConfig {
                    simrank,
                    iterations: 20,
                },
            )
            .unwrap();
            let lin = Linearization::build(
                &graph,
                LinearizationConfig {
                    simrank,
                    epsilon: 0.1,
                    walk_budget: Some(50_000),
                },
            )
            .unwrap();
            let mc = MonteCarlo::build(
                &graph,
                MonteCarloConfig {
                    simrank,
                    walks_per_node: 40,
                    walk_length: 12,
                },
            )
            .unwrap();
            let prsim = PrSim::build(
                &graph,
                PrSimConfig {
                    simrank,
                    epsilon: 2e-2,
                    walk_budget: Some(20_000),
                    ..Default::default()
                },
            )
            .unwrap();
            for &source in &sources {
                // Query twice so the second pass runs on a warm (reused)
                // scratch; both must match exactly.
                let a = opt.query(source).unwrap().scores;
                let b = opt.query(source).unwrap().scores;
                assert_eq!(a, b, "{name}: warm ExactSim-opt scratch diverged");
                outputs.push((format!("opt/{source}"), a));
                let a = basic.query(source).unwrap().scores;
                let b = basic.query(source).unwrap().scores;
                assert_eq!(a, b, "{name}: warm ExactSim-basic scratch diverged");
                outputs.push((format!("basic/{source}"), a));
                let a = parsim.query(source).unwrap();
                assert_eq!(a, parsim.query(source).unwrap());
                outputs.push((format!("parsim/{source}"), a));
                let a = lin.query(source).unwrap();
                assert_eq!(a, lin.query(source).unwrap());
                outputs.push((format!("lin/{source}"), a));
                let a = mc.query(source).unwrap();
                assert_eq!(a, mc.query(source).unwrap());
                outputs.push((format!("mc/{source}"), a));
                let a = prsim.query(source).unwrap();
                assert_eq!(a, prsim.query(source).unwrap());
                outputs.push((format!("prsim/{source}"), a));
            }
            outputs
        };
        let first = run_all();
        let fresh = run_all();
        for ((label, a), (_, b)) in first.iter().zip(&fresh) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "{name}/{label}: fresh instance diverged");
        }
    }
}

#[test]
fn walk_sampling_never_visits_nodes_without_in_edges_midway() {
    for_each_case(|graph| {
        let mut rng = walks::make_rng(3);
        let sqrt_c = SimRankConfig::default().sqrt_decay();
        for start in 0..graph.num_nodes() as u32 {
            let walk = walks::sample_walk(graph, start, sqrt_c, 30, &mut rng);
            let mut current = start;
            for &next in &walk.positions {
                assert!(graph.in_neighbors(current).contains(&next));
                current = next;
            }
        }
    });
}

#[test]
fn top_k_one_pass_selection_matches_a_full_sort() {
    use exactsim::topk::top_k;

    // The reference: every candidate but the source, fully sorted by score
    // descending then node id ascending, truncated to k.
    fn full_sort(scores: &[f64], source: u32, k: usize) -> Vec<(u32, u64)> {
        let mut all: Vec<(u32, f64)> = scores
            .iter()
            .enumerate()
            .map(|(node, &score)| (node as u32, score))
            .filter(|&(node, _)| node != source)
            .collect();
        all.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite scores")
                .then(a.0.cmp(&b.0))
        });
        all.into_iter()
            .take(k)
            .map(|(node, score)| (node, score.to_bits()))
            .collect()
    }

    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x70_9C ^ case);
        let n = rng.gen_range(1usize..=300);
        // Heavy ties: most scores come from a handful of levels, a third are
        // zeros (both signs), the rest are distinct.
        let scores: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0u32..6) {
                0 => 0.0,
                1 => -0.0,
                2..=4 => f64::from(rng.gen_range(1u32..5)) / 8.0,
                _ => rng.gen::<f64>(),
            })
            .collect();
        for source in [0, n as u32 / 2, n as u32 - 1] {
            for k in [0, 1, 10, n - 1, n, n + 5, usize::MAX] {
                let fast: Vec<(u32, u64)> = top_k(&scores, source, k)
                    .into_iter()
                    .map(|e| (e.node, e.score.to_bits()))
                    .collect();
                assert_eq!(
                    fast,
                    full_sort(&scores, source, k),
                    "case {case}: n={n} source={source} k={k}"
                );
            }
        }
    }
}
