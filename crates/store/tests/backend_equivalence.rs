//! Backend-equivalence property: every solver produces **bit-identical**
//! score vectors whether the graph is served from the in-memory CSR or
//! streamed from a page file through the buffer pool.
//!
//! This is the paged backend's core correctness contract. Pages store
//! exactly the same sorted neighbor lists as the CSR, and every solver is
//! deterministic given the adjacency, so `f64::to_bits` equality must hold —
//! not approximate equality. The sweep crosses all five solvers with three
//! graph families, and runs the paged side through a pool far smaller than
//! the page count, so eviction churn happens *mid-query* and is asserted.

use std::sync::Arc;

use exactsim::exactsim::{ExactSim, ExactSimConfig};
use exactsim::linearization::LinearizationConfig;
use exactsim::mc::MonteCarloConfig;
use exactsim::parsim::ParSimConfig;
use exactsim::prsim::PrSimConfig;
use exactsim::scratch::Scratch;

/// Cheap solver parameters: equivalence is about *determinism across
/// backends*, not accuracy, so paper-fidelity sample counts (the defaults,
/// e.g. ExactSim's ε = 1e-7) would only burn CPU without strengthening the
/// test. Every config keeps its default fixed seed.
fn exactsim_config() -> ExactSimConfig {
    ExactSimConfig {
        epsilon: 1e-2,
        walk_budget: Some(20_000),
        ..ExactSimConfig::default()
    }
}

fn parsim_config() -> ParSimConfig {
    ParSimConfig {
        iterations: 10,
        ..ParSimConfig::default()
    }
}

fn mc_config() -> MonteCarloConfig {
    MonteCarloConfig {
        walks_per_node: 8,
        walk_length: 8,
        ..MonteCarloConfig::default()
    }
}

fn linearization_config() -> LinearizationConfig {
    LinearizationConfig {
        epsilon: 0.25,
        walk_budget: Some(20_000),
        ..LinearizationConfig::default()
    }
}

fn prsim_config() -> PrSimConfig {
    PrSimConfig {
        epsilon: 0.25,
        walk_budget: Some(20_000),
        ..PrSimConfig::default()
    }
}
use exactsim::suite::{
    ExactSimAlgorithm, LinearizationAlgorithm, MonteCarloAlgorithm, ParSimAlgorithm,
    PrSimAlgorithm, SingleSourceAlgorithm,
};
use exactsim_graph::generators::{barabasi_albert, cycle, erdos_renyi_directed};
use exactsim_graph::{DiGraph, NodeId};
use exactsim_store::{BufferPool, GraphHandle, PagedGraph};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "exactsim-equiv-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The three graph families of the sweep: scale-free, uniform-random, and a
/// degenerate ring (every in-degree exactly 1 — an edge case for the
/// `(in-degree product)` weighting every solver shares).
fn families() -> Vec<(&'static str, DiGraph)> {
    vec![
        (
            "barabasi-albert",
            barabasi_albert(160, 3, true, 17).unwrap(),
        ),
        ("erdos-renyi", erdos_renyi_directed(150, 0.03, 29).unwrap()),
        ("cycle", cycle(48)),
    ]
}

/// Runs one solver on both backends and requires bit-identical scores.
fn assert_identical(
    name: &str,
    family: &str,
    mem: &dyn SingleSourceAlgorithm,
    paged: &dyn SingleSourceAlgorithm,
    sources: &[NodeId],
) {
    for &source in sources {
        let a = mem.query(source).unwrap().scores;
        let b = paged.query(source).unwrap().scores;
        assert_eq!(a.len(), b.len(), "{name}/{family}: length mismatch");
        for (v, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{name}/{family}: score for node {v} (source {source}) differs \
                 between backends: {x} vs {y}"
            );
        }
    }
}

/// ExactSim through a scratch held here, on both backends: requires
/// bit-identical scores and the same walk-distribution levels stored, and
/// returns those levels summed over `sources`, as `[index lists, bitmaps]`,
/// so a caller can see which arena encodings the paged side read.
fn exactsim_stored_levels(
    family: &str,
    mem: &GraphHandle,
    paged: &GraphHandle,
    sources: &[NodeId],
) -> [usize; 2] {
    let n = mem.num_nodes();
    let mut stored = [0; 2];
    for &source in sources {
        let mut runs = Vec::new();
        for graph in [mem, paged] {
            let mut scratch = Scratch::new(n);
            let solver = ExactSim::new(graph.clone(), exactsim_config()).unwrap();
            let scores = solver.query_with(source, &mut scratch).unwrap().scores;
            let bits: Vec<u64> = scores.iter().map(|x| x.to_bits()).collect();
            runs.push((bits, scratch.diagonal().stored_levels()));
        }
        assert_eq!(
            runs[0], runs[1],
            "ExactSim/{family}: scores or stored levels (source {source}) differ between backends"
        );
        stored[0] += runs[1].1[0];
        stored[1] += runs[1].1[1];
    }
    stored
}

#[test]
fn all_solvers_are_bit_identical_across_backends() {
    for (family, graph) in families() {
        let dir = TempDir::new(family);
        let path = dir.0.join("epoch-0.pages");
        let graph = Arc::new(graph.into_in_graph());
        // Tiny pages (4 neighbor ids) + a pool of 4 frames: far below the
        // page count even for the sparse ring, so the clock replacer must
        // evict continuously while queries run. A page file holds one
        // orientation, so 4-id pages give the page counts that 8-id pages
        // gave a file of both.
        PagedGraph::build(&path, &graph, 0, 16).unwrap();
        let pool = Arc::new(BufferPool::new(4));
        let paged = PagedGraph::open(&path, Arc::clone(&pool)).unwrap();
        assert!(
            paged.num_pages() > 8,
            "{family}: want many pages, got {}",
            paged.num_pages()
        );
        let mem = GraphHandle::Mem(Arc::clone(&graph));
        let paged = GraphHandle::Paged(Arc::new(paged));
        let sources: Vec<NodeId> = vec![1, (graph.num_nodes() / 2) as NodeId];

        assert_identical(
            "ExactSim",
            family,
            &ExactSimAlgorithm::new(mem.clone(), exactsim_config()).unwrap(),
            &ExactSimAlgorithm::new(paged.clone(), exactsim_config()).unwrap(),
            &sources,
        );
        // Every in-degree of the ring is 1, so Algorithm 3 builds nothing
        // there; on the other two families its deep levels are dense
        // enough to be stored as bitmaps, its shallow ones as index lists.
        let stored = exactsim_stored_levels(family, &mem, &paged, &sources);
        if family != "cycle" {
            assert!(
                stored[0] > 0 && stored[1] > 0,
                "{family}: index-list/bitmap levels {stored:?}"
            );
        }
        assert_identical(
            "ParSim",
            family,
            &ParSimAlgorithm::new(mem.clone(), parsim_config()).unwrap(),
            &ParSimAlgorithm::new(paged.clone(), parsim_config()).unwrap(),
            &sources,
        );
        assert_identical(
            "MC",
            family,
            &MonteCarloAlgorithm::build(mem.clone(), mc_config()).unwrap(),
            &MonteCarloAlgorithm::build(paged.clone(), mc_config()).unwrap(),
            &sources,
        );
        assert_identical(
            "Linearization",
            family,
            &LinearizationAlgorithm::build(mem.clone(), linearization_config()).unwrap(),
            &LinearizationAlgorithm::build(paged.clone(), linearization_config()).unwrap(),
            &sources,
        );
        assert_identical(
            "PrSim",
            family,
            &PrSimAlgorithm::build(mem.clone(), prsim_config()).unwrap(),
            &PrSimAlgorithm::build(paged.clone(), prsim_config()).unwrap(),
            &sources,
        );

        let stats = pool.stats();
        assert!(
            stats.evictions > 0,
            "{family}: pool (4 frames, {} pages) must have evicted mid-query",
            paged.as_paged().unwrap().num_pages()
        );
        assert!(stats.hits > 0 && stats.misses > 0);
    }
}

#[test]
fn exactsim_needs_one_frame_per_query() {
    // A query holds at most one page at a time. Algorithm 3 reads a node's
    // first step straight off its in-row and copies the row out before
    // scattering it into the next level, so its pin is gone before the
    // scatter pins other rows' pages; a one-frame pool must do.
    let dir = TempDir::new("one-frame");
    let path = dir.0.join("epoch-0.pages");
    let graph = Arc::new(barabasi_albert(160, 3, true, 17).unwrap().into_in_graph());
    PagedGraph::build(&path, &graph, 0, 32).unwrap();
    let pool = Arc::new(BufferPool::new(1));
    let paged = PagedGraph::open(&path, Arc::clone(&pool)).unwrap();
    let sources: Vec<NodeId> = (0..graph.num_nodes() as NodeId).step_by(9).collect();
    assert_identical(
        "ExactSim",
        "one-frame",
        &ExactSimAlgorithm::new(GraphHandle::Mem(graph), exactsim_config()).unwrap(),
        &ExactSimAlgorithm::new(GraphHandle::Paged(Arc::new(paged)), exactsim_config()).unwrap(),
        &sources,
    );
    assert!(pool.stats().evictions > 0);
}
