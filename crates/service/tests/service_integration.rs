//! Integration tests for the serving subsystem — these encode the serving
//! and dynamic-update PRs' acceptance criteria:
//!
//! (a) cached single-source results are *exactly* equal to direct library
//!     calls (`ExactSim::query` and friends derive their randomness from
//!     `(seed, source)`, so the service adds no nondeterminism);
//! (b) a batch of 100 queries over 10 distinct sources, sent from 8 threads,
//!     performs at most 10 underlying computations (cache + in-flight dedup);
//! (c) `stats` reports a hit rate ≥ 0.85 for that workload;
//! (d) a store commit racing live queries is atomic: every answer equals the
//!     pre-commit or the post-commit column bit-for-bit (never a mix of
//!     epochs), no query fails, and post-commit answers are bit-identical to
//!     a from-scratch service built on the new graph.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use exactsim::exactsim::{ExactSim, ExactSimConfig};
use exactsim::mc::{MonteCarlo, MonteCarloConfig};
use exactsim::prsim::{PrSim, PrSimConfig};
use exactsim_graph::generators::barabasi_albert;
use exactsim_graph::DiGraph;
use exactsim_service::{AlgorithmKind, GraphStore, ServiceConfig, SimRankService};

fn test_graph(n: usize, seed: u64) -> Arc<DiGraph> {
    Arc::new(barabasi_albert(n, 3, true, seed).unwrap())
}

fn test_config() -> ServiceConfig {
    ServiceConfig {
        exactsim: ExactSimConfig {
            epsilon: 1e-2,
            walk_budget: Some(100_000),
            ..ExactSimConfig::default()
        },
        prsim: PrSimConfig {
            epsilon: 2e-2,
            ..PrSimConfig::default()
        },
        mc: MonteCarloConfig {
            walks_per_node: 200,
            ..MonteCarloConfig::default()
        },
        ..ServiceConfig::default()
    }
}

#[test]
fn cached_answers_are_bit_identical_to_direct_library_calls() {
    let graph = test_graph(150, 11);
    let config = test_config();
    let service = SimRankService::new(Arc::clone(&graph), config.clone()).unwrap();

    for source in [0u32, 7, 42] {
        // Serve twice: the first call computes, the second must come from the
        // cache — and both must equal the direct library answer bit-for-bit.
        let first = service.query(AlgorithmKind::ExactSim, source).unwrap();
        let second = service.query(AlgorithmKind::ExactSim, source).unwrap();
        let direct = ExactSim::new(graph.as_ref(), config.exactsim.clone())
            .unwrap()
            .query(source)
            .unwrap();
        assert_eq!(
            first.scores(),
            direct.scores,
            "source {source}: serve != direct"
        );
        assert_eq!(
            second.scores(),
            direct.scores,
            "source {source}: cached != direct"
        );
        assert!(
            Arc::ptr_eq(&first, &second),
            "cache must share the response"
        );
    }

    let direct_prsim = PrSim::build(graph.as_ref(), config.prsim).unwrap();
    let served_prsim = service.query(AlgorithmKind::PrSim, 3).unwrap();
    assert_eq!(served_prsim.scores(), direct_prsim.query(3).unwrap());

    let direct_mc = MonteCarlo::build(graph.as_ref(), config.mc).unwrap();
    let served_mc = service.query(AlgorithmKind::MonteCarlo, 3).unwrap();
    assert_eq!(served_mc.scores(), direct_mc.query(3).unwrap());

    let snap = service.stats();
    assert_eq!(snap.cache_hits, 3, "one repeat per ExactSim source");
    assert_eq!(snap.computations, 5, "3 ExactSim + 1 PRSim + 1 MC");
}

#[test]
fn batch_of_100_over_10_sources_on_8_workers_deduplicates() {
    const THREADS: usize = 8;
    let service = SimRankService::new(test_graph(200, 23), test_config()).unwrap();

    // 100 queries, 10 distinct sources, dealt round-robin to 8 scoped
    // threads so that concurrent duplicates actually race through the
    // in-flight table.
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let service = &service;
            scope.spawn(move || {
                for i in (thread..100).step_by(THREADS) {
                    let source = (i % 10) as u32;
                    let answered = if i % 3 == 0 {
                        service.top_k(AlgorithmKind::ExactSim, source, 10).map(drop)
                    } else {
                        service.query(AlgorithmKind::ExactSim, source).map(drop)
                    };
                    assert!(answered.is_ok(), "request {i} failed");
                }
            });
        }
    });

    let snap = service.stats();
    assert_eq!(snap.queries, 100);
    assert!(
        snap.computations <= 10,
        "dedup failed: {} computations for 10 distinct sources",
        snap.computations
    );
    assert!(
        snap.hit_rate() >= 0.85,
        "hit rate {:.3} below the 0.85 acceptance bar ({} hits, {} joins)",
        snap.hit_rate(),
        snap.cache_hits,
        snap.dedup_joins
    );
    // Every query must have been answered one of the three ways.
    assert_eq!(snap.cache_hits + snap.dedup_joins + snap.computations, 100);
}

#[test]
fn thundering_herd_on_one_source_computes_once_and_agrees() {
    let service = SimRankService::new(test_graph(150, 31), test_config()).unwrap();
    let barrier = Arc::new(std::sync::Barrier::new(8));

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let service = service.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                service.query(AlgorithmKind::ExactSim, 5).unwrap()
            })
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let reference = &responses[0];
    for r in &responses[1..] {
        assert_eq!(
            r.scores(),
            reference.scores(),
            "threads observed different answers"
        );
    }
    let snap = service.stats();
    assert_eq!(snap.queries, 8);
    assert_eq!(
        snap.computations, 1,
        "exactly one thread should have computed (got {} computations, {} hits, {} joins)",
        snap.computations, snap.cache_hits, snap.dedup_joins
    );
    assert_eq!(snap.cache_hits + snap.dedup_joins, 7);
    assert_eq!(service.in_flight(), 0, "in-flight table must drain");
}

#[test]
fn topk_batches_agree_with_library_topk() {
    let graph = test_graph(120, 47);
    let config = test_config();
    let service = SimRankService::new(Arc::clone(&graph), config.clone()).unwrap();

    let top = service.top_k(AlgorithmKind::ExactSim, 9, 7).unwrap();
    let direct = ExactSim::new(graph.as_ref(), config.exactsim.clone())
        .unwrap()
        .query(9)
        .unwrap();
    let expected = exactsim::topk::top_k(&direct.scores, 9, 7);
    assert_eq!(top.entries, expected);
    assert_eq!(top.k, 7);
    assert!(top.entries.iter().all(|e| e.node != 9), "source excluded");
}

#[test]
fn commit_racing_live_queries_is_atomic_and_matches_a_fresh_service() {
    const SOURCES: u32 = 4;
    const THREADS: usize = 6;
    const QUERIES_PER_THREAD: usize = 12;

    let base = test_graph(80, 61);
    let config = test_config();
    // The delta rewires the neighborhood of every queried source, so the
    // pre- and post-commit columns differ and "never a mix" is observable.
    let insertions = [(0u32, 70u32), (1, 71), (2, 72), (3, 73)];
    let deletions: Vec<(u32, u32)> = (0..SOURCES)
        .map(|s| {
            (
                s,
                *base.out_neighbors(s).first().expect("BA graphs are dense"),
            )
        })
        .collect();

    // Ground truth for both epochs: the post-commit graph through the merge
    // the store's commit runs, on the in-rows it serves.
    let mut sorted_ins = insertions.to_vec();
    sorted_ins.sort_unstable();
    let mut sorted_del = deletions.clone();
    sorted_del.sort_unstable();
    let updated =
        base.in_graph()
            .apply_deltas_into(base.num_nodes(), &[(&sorted_ins, &sorted_del)], None);
    let pre: Vec<Vec<f64>> = (0..SOURCES)
        .map(|s| {
            ExactSim::new(base.as_ref(), config.exactsim.clone())
                .unwrap()
                .query(s)
                .unwrap()
                .scores
        })
        .collect();
    let post: Vec<Vec<f64>> = (0..SOURCES)
        .map(|s| {
            ExactSim::new(&updated, config.exactsim.clone())
                .unwrap()
                .query(s)
                .unwrap()
                .scores
        })
        .collect();
    for s in 0..SOURCES as usize {
        assert_ne!(pre[s], post[s], "delta must change source {s}'s column");
    }

    let store = Arc::new(GraphStore::new(Arc::clone(&base)));
    let service = SimRankService::with_store(Arc::clone(&store), config.clone()).unwrap();

    // Warm the epoch-0 cache so the commit demonstrably invalidates entries.
    for s in 0..SOURCES {
        let warm = service.query(AlgorithmKind::ExactSim, s).unwrap();
        assert_eq!(
            warm.scores(),
            pre[s as usize],
            "pre-commit must match epoch 0"
        );
    }

    // Race: THREADS query loops vs. one commit fired right after the start
    // barrier. In-flight queries finish on whatever epoch they captured.
    let start = Barrier::new(THREADS + 1);
    let committed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut checkers = Vec::new();
        for t in 0..THREADS {
            let service = service.clone();
            let (start, committed) = (&start, &committed);
            let (pre, post) = (&pre, &post);
            checkers.push(scope.spawn(move || {
                start.wait();
                // Loop until this thread has both done its quota of racing
                // queries AND observed the commit, so every thread provably
                // exercises the post-commit path (the loop terminates: the
                // main thread always commits).
                let mut i = 0usize;
                loop {
                    let source = ((t + i) as u32) % SOURCES;
                    let commit_was_done = committed.load(Ordering::SeqCst);
                    let response = service
                        .query(AlgorithmKind::ExactSim, source)
                        .expect("zero downtime: no query may fail during a commit");
                    let s = source as usize;
                    // Atomicity: each answer is exactly one epoch's column.
                    assert!(
                        response.scores() == pre[s] || response.scores() == post[s],
                        "thread {t} query {i}: answer matches neither epoch (a mix?)"
                    );
                    // Monotonicity: a query issued after the commit returned
                    // must see the new epoch (the service refreshes lazily
                    // but before answering).
                    if commit_was_done {
                        assert_eq!(
                            response.scores(),
                            post[s],
                            "thread {t} query {i}: stale answer after commit"
                        );
                    }
                    i += 1;
                    if i >= QUERIES_PER_THREAD && commit_was_done {
                        break;
                    }
                }
            }));
        }

        start.wait();
        for &(u, v) in &insertions {
            assert!(store.stage_insert(u, v).unwrap().changed());
        }
        for &(u, v) in &deletions {
            assert!(store.stage_delete(u, v).unwrap().changed());
        }
        let report = store.commit().unwrap();
        committed.store(true, Ordering::SeqCst);
        assert!(report.advanced());
        assert_eq!(report.epoch, 1);
        assert_eq!(report.edges_inserted, insertions.len());
        assert_eq!(report.edges_deleted, deletions.len());

        for checker in checkers {
            checker.join().unwrap();
        }
    });

    // Post-commit serving must be bit-identical to a from-scratch service
    // built on the new graph.
    let fresh = SimRankService::new(Arc::new(DiGraph::from_in_graph(updated)), config).unwrap();
    for s in 0..SOURCES {
        let live = service.query(AlgorithmKind::ExactSim, s).unwrap();
        let scratch = fresh.query(AlgorithmKind::ExactSim, s).unwrap();
        assert_eq!(
            live.scores(),
            scratch.scores(),
            "source {s}: post-commit service != fresh service on the new graph"
        );
        assert_eq!(live.scores(), post[s as usize]);
    }

    let snap = service.stats();
    assert_eq!(snap.epoch, 1, "commit must bump the served epoch");
    assert_eq!(snap.errors, 0, "zero serving-loop downtime");
    assert_eq!(snap.epoch_refreshes, 1, "exactly one generation swap");
    assert!(
        snap.invalidations >= SOURCES as u64,
        "the warmed epoch-0 entries must have been swept (got {})",
        snap.invalidations
    );
    assert_eq!(service.in_flight(), 0, "in-flight table must drain");
}

#[test]
fn eviction_under_pressure_keeps_serving_correct_answers() {
    let graph = test_graph(100, 53);
    // A cache of 4 entries under 20 distinct sources: constant eviction,
    // every answer still correct.
    let config = ServiceConfig {
        cache_capacity: 4,
        ..test_config()
    };
    let service = SimRankService::new(Arc::clone(&graph), config.clone()).unwrap();
    let solver = ExactSim::new(graph.as_ref(), config.exactsim.clone()).unwrap();
    for round in 0..2 {
        for source in 0..20u32 {
            let served = service.query(AlgorithmKind::ExactSim, source).unwrap();
            assert_eq!(
                served.scores(),
                solver.query(source).unwrap().scores,
                "round {round} source {source}"
            );
        }
    }
    let snap = service.stats();
    assert!(snap.evictions > 0, "capacity 4 under 20 sources must evict");
    assert!(snap.cached_entries <= 4);
    assert_eq!(snap.queries, 40);
}
