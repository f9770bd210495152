//! Tests for ExactSim against the exact ground truth.
//!
//! Sample counts scale as `1/ε²`, so the strict "error ≤ ε with the paper's
//! sample formula" tests use loose ε values to stay fast in debug builds;
//! the high-precision behaviour is exercised through the deterministic
//! exploration and exact-diagonal paths, where walk counts do not explode.

use super::*;
use crate::metrics::max_error;
use crate::power_method::{PowerMethod, PowerMethodConfig};
use exactsim_graph::generators::{barabasi_albert, complete, cycle, grid, star};
use exactsim_graph::DiGraph;

fn ground_truth(graph: &DiGraph) -> PowerMethod {
    PowerMethod::compute(graph, PowerMethodConfig::default()).unwrap()
}

fn config(epsilon: f64, variant: ExactSimVariant) -> ExactSimConfig {
    ExactSimConfig {
        epsilon,
        variant,
        ..Default::default()
    }
}

#[test]
fn rejects_invalid_configurations() {
    let g = complete(4);
    assert!(ExactSim::new(&g, config(0.0, ExactSimVariant::Basic)).is_err());
    assert!(ExactSim::new(&g, config(1.5, ExactSimVariant::Basic)).is_err());
    let mut bad_budget = config(0.1, ExactSimVariant::Basic);
    bad_budget.walk_budget = Some(0);
    assert!(ExactSim::new(&g, bad_budget).is_err());
    let mut bad_diag = config(0.1, ExactSimVariant::Basic);
    bad_diag.diagonal = DiagonalMode::Exact(vec![1.0; 3]);
    assert!(ExactSim::new(&g, bad_diag).is_err());
    let mut nan_diag = config(0.1, ExactSimVariant::Basic);
    nan_diag.diagonal = DiagonalMode::Exact(vec![f64::NAN; 4]);
    assert!(ExactSim::new(&g, nan_diag).is_err());
    let empty = exactsim_graph::GraphBuilder::new(0).build();
    assert!(matches!(
        ExactSim::new(&empty, config(0.1, ExactSimVariant::Basic)),
        Err(SimRankError::EmptyGraph)
    ));
}

#[test]
fn rejects_explore_caps_without_levels_or_tail_samples() {
    // max_tail_samples = 0 would panic in the first sampled tail (a clamp
    // to [1, 0]); max_levels = 0 would leave tail walks no continue steps,
    // so every D̂(k) with din ≥ 2 would be 1 and a source could score itself
    // above 1.
    let g = barabasi_albert(200, 3, true, 1).unwrap();
    let no_tails = LocalExploreCaps {
        max_tail_samples: 0,
        ..Default::default()
    };
    let no_levels = LocalExploreCaps {
        max_levels: 0,
        ..Default::default()
    };
    for caps in [no_tails, no_levels] {
        let cfg = ExactSimConfig {
            explore_caps: caps,
            ..config(0.05, ExactSimVariant::Optimized)
        };
        assert!(
            matches!(
                ExactSim::new(&g, cfg),
                Err(SimRankError::InvalidParameter {
                    name: "explore_caps",
                    ..
                })
            ),
            "{caps:?} was accepted"
        );
    }
}

#[test]
fn rejects_out_of_range_source() {
    let g = complete(4);
    let solver = ExactSim::new(&g, config(0.1, ExactSimVariant::Optimized)).unwrap();
    assert!(matches!(
        solver.query(9),
        Err(SimRankError::SourceOutOfRange { .. })
    ));
}

#[test]
fn basic_variant_meets_its_error_bound_with_paper_sample_counts() {
    // ε = 0.25 keeps the paper's R = 6·ln n/((1-√c)⁴ε²) below ~2·10⁵ pairs,
    // fast enough for a debug-mode test while still exercising the full
    // uncapped pipeline.
    let graphs = vec![
        star(10, true),
        grid(3, 4),
        barabasi_albert(50, 2, true, 5).unwrap(),
    ];
    let eps = 0.25;
    for (gi, g) in graphs.into_iter().enumerate() {
        let truth = ground_truth(&g);
        let solver = ExactSim::new(&g, config(eps, ExactSimVariant::Basic)).unwrap();
        let source = (g.num_nodes() / 2) as u32;
        let result = solver.query(source).unwrap();
        let exact = truth.single_source(source);
        let err = max_error(&result.scores, &exact);
        assert!(
            err <= eps,
            "graph #{gi} source {source}: basic ExactSim error {err} > {eps}"
        );
        assert!((result.scores[source as usize] - 1.0).abs() <= eps);
        assert!(result.stats.simulated_walk_pairs > 0);
    }
}

#[test]
fn optimized_variant_meets_its_error_bound_on_small_graphs() {
    let graphs = vec![
        complete(8),
        star(10, true),
        barabasi_albert(60, 2, true, 6).unwrap(),
    ];
    let eps = 0.05;
    for (gi, g) in graphs.into_iter().enumerate() {
        let truth = ground_truth(&g);
        let solver = ExactSim::new(&g, config(eps, ExactSimVariant::Optimized)).unwrap();
        let source = 1u32;
        let result = solver.query(source).unwrap();
        let exact = truth.single_source(source);
        let err = max_error(&result.scores, &exact);
        assert!(
            err <= eps,
            "graph #{gi} source {source}: optimized ExactSim error {err} > {eps}"
        );
    }
}

#[test]
fn optimized_reaches_high_precision_on_a_small_graph() {
    // On a small graph the deterministic exploration resolves D essentially
    // exactly (every tail is skipped), so ε = 1e-6 is reached without
    // simulating astronomically many walks.
    let g = barabasi_albert(30, 2, true, 9).unwrap();
    let truth = ground_truth(&g);
    let cfg = ExactSimConfig {
        epsilon: 1e-6,
        variant: ExactSimVariant::Optimized,
        explore_caps: LocalExploreCaps {
            max_levels: 40,
            max_edges: u64::MAX,
            max_tail_samples: 1000,
        },
        ..Default::default()
    };
    let solver = ExactSim::new(&g, cfg).unwrap();
    let result = solver.query(3).unwrap();
    let err = max_error(&result.scores, &truth.single_source(3));
    assert!(err < 1e-5, "high-precision run error {err}");
    assert!(result.stats.tails_skipped > 0);
}

#[test]
fn exact_diagonal_mode_reduces_to_pure_linearization() {
    // With the exact D supplied, the only error left is the c^L truncation,
    // so the result matches the power method to well below 1e-7 with zero walks.
    let g = barabasi_albert(70, 2, false, 11).unwrap();
    let truth = ground_truth(&g);
    let exact_d = truth.exact_diagonal(&g);
    for variant in [ExactSimVariant::Basic, ExactSimVariant::Optimized] {
        let cfg = ExactSimConfig {
            epsilon: 1e-7,
            variant,
            diagonal: DiagonalMode::Exact(exact_d.clone()),
            ..Default::default()
        };
        let solver = ExactSim::new(&g, cfg).unwrap();
        let result = solver.query(0).unwrap();
        let err = max_error(&result.scores, &truth.single_source(0));
        assert!(
            err <= 1e-7,
            "{variant:?} with exact D: error {err} exceeds 1e-7"
        );
        assert_eq!(result.stats.simulated_walk_pairs, 0);
    }
}

#[test]
fn parsim_diagonal_mode_is_visibly_biased() {
    // The D = (1-c)I approximation must produce a larger error than the exact
    // D on a graph with heterogeneous in-degrees — this is the paper's §2.2
    // argument for why ParSim cannot be exact.
    let g = barabasi_albert(80, 3, true, 13).unwrap();
    let truth = ground_truth(&g);
    let exact = truth.single_source(2);

    let biased_cfg = ExactSimConfig {
        epsilon: 1e-4,
        variant: ExactSimVariant::Optimized,
        diagonal: DiagonalMode::ParSimApprox,
        ..Default::default()
    };
    let biased = ExactSim::new(&g, biased_cfg).unwrap().query(2).unwrap();
    let biased_err = max_error(&biased.scores, &exact);

    let exact_cfg = ExactSimConfig {
        epsilon: 1e-4,
        variant: ExactSimVariant::Optimized,
        diagonal: DiagonalMode::Exact(truth.exact_diagonal(&g)),
        ..Default::default()
    };
    let unbiased = ExactSim::new(&g, exact_cfg).unwrap().query(2).unwrap();
    let unbiased_err = max_error(&unbiased.scores, &exact);

    assert!(
        biased_err > 10.0 * unbiased_err.max(1e-9),
        "ParSim approximation should be visibly biased: biased {biased_err}, unbiased {unbiased_err}"
    );
    assert!(biased_err > 1e-3);
}

#[test]
fn walk_budget_caps_the_sample_count() {
    let g = barabasi_albert(100, 2, true, 17).unwrap();
    let mut cfg = config(1e-3, ExactSimVariant::Basic);
    cfg.walk_budget = Some(10_000);
    let solver = ExactSim::new(&g, cfg).unwrap();
    let result = solver.query(0).unwrap();
    assert!(result.stats.requested_walk_pairs > result.stats.total_walk_pairs);
    // Ceil-per-node rounding can exceed the budget by at most one per node.
    assert!(result.stats.total_walk_pairs <= 10_000 + g.num_nodes() as u64);
    assert!(result.stats.simulated_walk_pairs <= result.stats.total_walk_pairs);
}

#[test]
fn optimized_uses_less_memory_than_basic() {
    // Table 3's claim: sparse Linearization cuts the auxiliary memory well
    // below the basic variant's (L+1) dense vectors. The effect needs
    // n ≫ 1/((1-√c)²·ε), hence the larger graph and moderate ε here.
    let g = barabasi_albert(20_000, 3, false, 19).unwrap();
    let eps = 1e-2;
    let mut basic_cfg = config(eps, ExactSimVariant::Basic);
    basic_cfg.walk_budget = Some(5_000);
    let mut opt_cfg = config(eps, ExactSimVariant::Optimized);
    opt_cfg.walk_budget = Some(5_000);
    let basic = ExactSim::new(&g, basic_cfg).unwrap().query(7).unwrap();
    let optimized = ExactSim::new(&g, opt_cfg).unwrap().query(7).unwrap();
    assert!(
        optimized.stats.aux_memory_bytes < basic.stats.aux_memory_bytes,
        "optimized {} bytes vs basic {} bytes",
        optimized.stats.aux_memory_bytes,
        basic.stats.aux_memory_bytes
    );
    assert!(optimized.stats.hop_nnz < basic.stats.hop_nnz / 4);
}

#[test]
fn pi_squared_sampling_requests_fewer_walks() {
    // Lemma 3: the optimized allocation Σ⌈R·π(k)²⌉ is (much) smaller than the
    // basic allocation Σ⌈R·π(k)⌉ on scale-free graphs.
    let g = barabasi_albert(400, 3, false, 23).unwrap();
    let eps = 1e-3;
    let mut basic_cfg = config(eps, ExactSimVariant::Basic);
    basic_cfg.walk_budget = Some(5_000);
    let mut opt_cfg = config(eps, ExactSimVariant::Optimized);
    opt_cfg.walk_budget = Some(5_000);
    let basic = ExactSim::new(&g, basic_cfg).unwrap().query(11).unwrap();
    let optimized = ExactSim::new(&g, opt_cfg).unwrap().query(11).unwrap();
    assert!(
        optimized.stats.requested_walk_pairs < basic.stats.requested_walk_pairs / 2,
        "π² sampling should cut the requested walks: optimized {}, basic {}",
        optimized.stats.requested_walk_pairs,
        basic.stats.requested_walk_pairs
    );
    assert!(optimized.stats.ppr_norm_sq < 1.0);
}

#[test]
fn deterministic_given_the_same_seed() {
    let g = barabasi_albert(120, 2, true, 29).unwrap();
    let mut cfg = config(1e-2, ExactSimVariant::Basic);
    cfg.walk_budget = Some(50_000);
    let a = ExactSim::new(&g, cfg.clone()).unwrap().query(5).unwrap();
    let b = ExactSim::new(&g, cfg.clone()).unwrap().query(5).unwrap();
    assert_eq!(a.scores, b.scores);
    cfg.simrank.seed = 999;
    let c = ExactSim::new(&g, cfg).unwrap().query(5).unwrap();
    // A different seed changes the sampled D̂ and therefore (almost surely)
    // the scores, while staying within the error bound.
    assert_ne!(a.scores, c.scores);
}

#[test]
fn scores_stay_in_the_valid_range() {
    let g = barabasi_albert(150, 3, true, 31).unwrap();
    for variant in [ExactSimVariant::Basic, ExactSimVariant::Optimized] {
        let mut cfg = config(1e-2, variant);
        cfg.walk_budget = Some(20_000);
        let result = ExactSim::new(&g, cfg).unwrap().query(4).unwrap();
        for (j, &s) in result.scores.iter().enumerate() {
            assert!(
                (-0.05..=1.05).contains(&s),
                "score {s} for node {j} outside the plausible range"
            );
        }
    }
}

#[test]
fn isolated_source_yields_delta_vector() {
    // A node with no in-edges is similar only to itself.
    let g = star(8, false);
    let solver = ExactSim::new(&g, config(1e-3, ExactSimVariant::Optimized)).unwrap();
    let result = solver.query(3).unwrap();
    assert!((result.scores[3] - 1.0).abs() < 1e-9);
    for (j, &s) in result.scores.iter().enumerate() {
        if j != 3 {
            assert!(s.abs() < 1e-9, "leaf should have zero similarity, got {s}");
        }
    }
}

#[test]
fn cycle_source_matches_ground_truth_exactly() {
    // Every node of a cycle has in-degree 1, so D = (1-c)·I is exact and no
    // sampling error exists at all: ExactSim must return 1 for the source and
    // 0 elsewhere up to truncation.
    let g = cycle(9);
    let solver = ExactSim::new(&g, config(1e-6, ExactSimVariant::Optimized)).unwrap();
    let result = solver.query(4).unwrap();
    assert!((result.scores[4] - 1.0).abs() < 1e-6);
    for (j, &s) in result.scores.iter().enumerate() {
        if j != 4 {
            assert!(s.abs() < 1e-6);
        }
    }
}

#[test]
fn theoretical_sample_count_matches_formula() {
    let g = complete(100);
    let solver = ExactSim::new(&g, config(1e-3, ExactSimVariant::Basic)).unwrap();
    let sqrt_c = 0.6f64.sqrt();
    let expected = 6.0 * (100f64).ln() / ((1.0 - sqrt_c).powi(4) * 1e-6);
    assert!((solver.theoretical_sample_count() - expected).abs() / expected < 1e-12);
}

#[test]
fn variants_agree_with_each_other() {
    let g = barabasi_albert(90, 2, true, 37).unwrap();
    let eps = 0.1;
    let basic = ExactSim::new(&g, config(eps, ExactSimVariant::Basic))
        .unwrap()
        .query(8)
        .unwrap();
    let optimized = ExactSim::new(&g, config(eps, ExactSimVariant::Optimized))
        .unwrap()
        .query(8)
        .unwrap();
    let diff = max_error(&basic.scores, &optimized.scores);
    assert!(
        diff <= 2.0 * eps,
        "basic and optimized variants disagree by {diff}"
    );
}

#[test]
fn queries_are_bit_identical_across_calls_and_instances() {
    // Regression test: the Algorithm 3 accumulations once iterated HashMaps,
    // whose per-instance randomized ordering made identical queries differ at
    // ULP level within one process. Serving-layer caching relies on repeated
    // queries being bit-identical.
    let g = barabasi_albert(150, 3, true, 11).unwrap();
    let cfg = ExactSimConfig {
        epsilon: 1e-2,
        walk_budget: Some(100_000),
        ..Default::default()
    };
    for source in [0u32, 7, 42] {
        let a = ExactSim::new(&g, cfg.clone())
            .unwrap()
            .query(source)
            .unwrap();
        let b = ExactSim::new(&g, cfg.clone())
            .unwrap()
            .query(source)
            .unwrap();
        assert_eq!(a.scores, b.scores, "source {source} not reproducible");
    }
}

#[test]
fn solvers_handed_one_scratch_pool_check_out_of_it() {
    // The service hands one pool to the solver of each epoch while the node
    // count stays the same: a solver must use the pool it is given, answer
    // with the bits of a solver that owns its pool, and refuse a pool sized
    // for another node count.
    let g = barabasi_albert(150, 3, true, 11).unwrap();
    let h = barabasi_albert(150, 2, true, 12).unwrap();
    let cfg = ExactSimConfig {
        epsilon: 1e-2,
        walk_budget: Some(100_000),
        ..Default::default()
    };
    let pool = Arc::new(ScratchPool::new(150));
    for graph in [&g, &h, &g] {
        let shared = ExactSim::with_scratch_pool(graph, cfg.clone(), Arc::clone(&pool)).unwrap();
        let own = ExactSim::new(graph, cfg.clone()).unwrap();
        for source in [0u32, 7, 42] {
            let a = shared.query(source).unwrap().scores;
            let b = own.query(source).unwrap().scores;
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "source {source}");
        }
        assert_eq!(pool.idle(), 1, "the shared solver returned its scratch");
    }
    let small = Arc::new(ScratchPool::new(149));
    assert!(matches!(
        ExactSim::with_scratch_pool(&g, cfg, small),
        Err(SimRankError::InvalidParameter { .. })
    ));
}

#[test]
fn exploration_arena_retains_one_query_not_every_source() {
    // Algorithm 3's walk distributions live in a per-query arena that the
    // next query truncates, so a scratch serving many distinct sources keeps
    // about the largest single query's memory instead of growing with every
    // source it has seen.
    let n = 2_000;
    let g = barabasi_albert(n, 4, true, 41).unwrap();
    let mut cfg = config(1e-2, ExactSimVariant::Optimized);
    cfg.walk_budget = Some(100_000);
    let solver = ExactSim::new(&g, cfg).unwrap();
    let sources: Vec<NodeId> = (0..20u32).map(|i| i * 97 % n as u32).collect();
    let arena_bytes = |scratch: &Scratch| scratch.diag.dist.retained_bytes();
    let largest = sources
        .iter()
        .map(|&source| {
            let mut fresh = Scratch::new(n);
            let result = solver.query_with(source, &mut fresh).unwrap();
            assert!(
                result.stats.explore_edges > 0,
                "source {source} explored nothing"
            );
            arena_bytes(&fresh)
        })
        .max()
        .unwrap();
    let mut shared = Scratch::new(n);
    for (i, &source) in sources.iter().enumerate() {
        solver.query_with(source, &mut shared).unwrap();
        let retained = arena_bytes(&shared);
        assert!(
            retained <= 2 * largest,
            "after {} sources the arena retains {retained} bytes; the largest \
             single query needs {largest}",
            i + 1
        );
    }
}

/// The sparse recurrence as it ran before it skipped the empty top levels:
/// one `√c·Pᵀ` pass per level from `L` down, including the passes over an
/// all-zero `s`. The reference [`accumulate_sparse`] is checked against.
fn accumulate_sparse_every_level(
    graph: &DiGraph,
    hops: &[SparseVec],
    diagonal: &[f64],
    sqrt_c: f64,
) -> Vec<f64> {
    let n = graph.num_nodes();
    let stop = 1.0 - sqrt_c;
    let levels = hops.len() - 1;
    let mut s = vec![0.0; n];
    let mut tmp = vec![0.0; n];
    for step in 0..=levels {
        if step > 0 {
            pt_multiply(graph, &s, &mut tmp);
            for v in tmp.iter_mut() {
                *v *= sqrt_c;
            }
            std::mem::swap(&mut s, &mut tmp);
        }
        for (k, value) in hops[levels - step].iter() {
            s[k as usize] += diagonal[k as usize] * value / stop;
        }
    }
    s
}

#[test]
fn sparse_recurrence_skipping_empty_top_levels_is_bit_identical() {
    use crate::ppr::sparse_hop_vectors;
    use exactsim_graph::linalg::Workspace;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let sqrt_c = SimRankConfig::default().sqrt_decay();
    let c = sqrt_c * sqrt_c;
    let levels = 12;
    let mut rng = StdRng::seed_from_u64(0xACC0_0019);
    // BA hop vectors die out under pruning; a cycle's never do at threshold
    // 0; a directed star's hub reaches the leaves and stops there.
    let graphs = [
        ("ba", barabasi_albert(300, 3, true, 7).unwrap()),
        ("cycle", cycle(40)),
        ("star", star(30, false)),
    ];
    let (mut empty_top, mut none_empty) = (0, 0);
    // A stale temporary of the wrong size must not matter.
    let mut tmp = vec![9.0; 3];
    for (name, g) in &graphs {
        let n = g.num_nodes();
        let mut ws = Workspace::new(n);
        let diagonal: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0 - c..1.0)).collect();
        for threshold in [0.0, 1e-4, 1e-2, 5e-2] {
            for source in [0, n / 2, n - 1] {
                let hops =
                    sparse_hop_vectors(g, source as NodeId, sqrt_c, levels, threshold, &mut ws)
                        .hops;
                if hops[levels].is_empty() {
                    empty_top += 1;
                } else if hops.iter().all(|hop| !hop.is_empty()) {
                    none_empty += 1;
                }
                let want = accumulate_sparse_every_level(g, &hops, &diagonal, sqrt_c);
                let got = accumulate_sparse(g, &hops, &diagonal, sqrt_c, &mut tmp);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{name} source {source} threshold {threshold}"
                );
            }
        }
    }
    assert!(
        empty_top > 0 && none_empty > 0,
        "hop sets with an empty top: {empty_top}, with no empty level: {none_empty}"
    );

    // An empty level below a non-empty top is not skipped, and a set with no
    // entries at all gives the zero column.
    let g = &graphs[0].1;
    let n = g.num_nodes();
    let diagonal = vec![1.0 - c; n];
    let mut hops = vec![SparseVec::new(); levels + 1];
    hops[0] = SparseVec::unit(0, 0.5);
    hops[4] = SparseVec::from_unsorted(vec![(1, 0.25), (2, 0.125)]);
    assert_eq!(
        bits(&accumulate_sparse(g, &hops, &diagonal, sqrt_c, &mut tmp)),
        bits(&accumulate_sparse_every_level(g, &hops, &diagonal, sqrt_c))
    );
    let none = vec![SparseVec::new(); levels + 1];
    assert_eq!(
        bits(&accumulate_sparse(g, &none, &diagonal, sqrt_c, &mut tmp)),
        bits(&vec![0.0; n])
    );
}
