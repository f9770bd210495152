//! Erdős–Rényi style random graphs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::distinct::{distinct_keys, graph_of_keys};
use crate::builder::GraphBuilder;
use crate::digraph::DiGraph;
use crate::error::GraphError;
use crate::NodeId;

/// Directed `G(n, p)`: every ordered pair `(u, v)`, `u ≠ v`, is an edge
/// independently with probability `p`.
///
/// Uses geometric skipping so the cost is `O(n + m)` rather than `O(n²)` for
/// small `p`.
pub fn erdos_renyi_directed(n: usize, p: f64, seed: u64) -> Result<DiGraph, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidGeneratorParams(format!(
            "edge probability must be in [0,1], got {p}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    if n == 0 || p == 0.0 {
        return Ok(builder.build());
    }
    if p >= 1.0 {
        for u in 0..n as NodeId {
            for v in 0..n as NodeId {
                if u != v {
                    builder.add_edge(u, v);
                }
            }
        }
        return Ok(builder.build());
    }
    // Geometric skipping over the n*(n-1) ordered non-diagonal pairs.
    let total_pairs = (n as u128) * (n as u128 - 1);
    let log_q = (1.0 - p).ln();
    let mut pos: u128 = 0;
    loop {
        let r: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (r.ln() / log_q).floor() as u128 + 1;
        pos += skip;
        if pos > total_pairs {
            break;
        }
        let linear = pos - 1;
        let u = (linear / (n as u128 - 1)) as NodeId;
        let mut v = (linear % (n as u128 - 1)) as NodeId;
        if v >= u {
            v += 1; // skip the diagonal
        }
        builder.add_edge(u, v);
    }
    Ok(builder.build())
}

/// Undirected `G(n, p)`: every unordered pair is an (undirected) edge with
/// probability `p`; both directions are materialised.
pub fn erdos_renyi_undirected(n: usize, p: f64, seed: u64) -> Result<DiGraph, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidGeneratorParams(format!(
            "edge probability must be in [0,1], got {p}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n).symmetric(true);
    for u in 0..n as NodeId {
        for v in (u + 1)..n as NodeId {
            if rng.gen::<f64>() < p {
                builder.add_edge(u, v);
            }
        }
    }
    Ok(builder.build())
}

/// Directed `G(n, m)`: exactly `m` distinct directed edges (no self-loops)
/// chosen uniformly at random.
///
/// Candidate pairs `(u, v)` are drawn uniformly from `n × n`; a self-loop or
/// a pair already accepted is skipped, and drawing goes on, with no budget,
/// until the `m`-th distinct pair is accepted. The expected number of
/// candidates is about `n²·ln(M / (M − m))` for `M = n(n − 1)` ordered pairs:
/// close to `m` for sparse requests, `n²·ln M` for the complete digraph.
pub fn gnm_directed(n: usize, m: usize, seed: u64) -> Result<DiGraph, GraphError> {
    let max_edges = n.saturating_mul(n.saturating_sub(1));
    if m > max_edges {
        return Err(GraphError::InvalidGeneratorParams(format!(
            "requested {m} edges but only {max_edges} ordered pairs exist for n={n}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = distinct_keys(n, m, usize::MAX, move || {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        (u, v)
    });
    Ok(graph_of_keys(n, keys))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_directed_is_deterministic_per_seed() {
        let a = erdos_renyi_directed(100, 0.05, 7).unwrap();
        let b = erdos_renyi_directed(100, 0.05, 7).unwrap();
        let c = erdos_renyi_directed(100, 0.05, 8).unwrap();
        assert_eq!(a.num_edges(), b.num_edges());
        let ea: Vec<_> = a.iter_edges().collect();
        let eb: Vec<_> = b.iter_edges().collect();
        assert_eq!(ea, eb);
        // Different seed should (overwhelmingly) produce a different graph.
        assert_ne!(
            ea,
            c.iter_edges().collect::<Vec<_>>(),
            "different seeds should differ"
        );
    }

    #[test]
    fn gnp_edge_count_is_near_expectation() {
        let n = 200;
        let p = 0.05;
        let g = erdos_renyi_directed(n, p, 42).unwrap();
        let expected = (n * (n - 1)) as f64 * p;
        let actual = g.num_edges() as f64;
        assert!(
            (actual - expected).abs() < 4.0 * expected.sqrt() + 10.0,
            "edge count {actual} too far from expectation {expected}"
        );
    }

    #[test]
    fn gnp_extremes() {
        let empty = erdos_renyi_directed(10, 0.0, 1).unwrap();
        assert_eq!(empty.num_edges(), 0);
        let full = erdos_renyi_directed(6, 1.0, 1).unwrap();
        assert_eq!(full.num_edges(), 6 * 5);
        let nothing = erdos_renyi_directed(0, 0.5, 1).unwrap();
        assert!(nothing.is_empty());
    }

    #[test]
    fn gnp_rejects_bad_probability() {
        assert!(erdos_renyi_directed(10, 1.5, 1).is_err());
        assert!(erdos_renyi_directed(10, -0.1, 1).is_err());
    }

    #[test]
    fn gnp_has_no_self_loops() {
        let g = erdos_renyi_directed(50, 0.2, 3).unwrap();
        for v in g.nodes() {
            assert!(!g.has_edge(v, v));
        }
    }

    #[test]
    fn undirected_gnp_is_symmetric() {
        let g = erdos_renyi_undirected(60, 0.1, 11).unwrap();
        for (u, v) in g.iter_edges() {
            assert!(g.has_edge(v, u), "missing reverse edge {v}->{u}");
        }
        assert_eq!(g.num_edges() % 2, 0);
    }

    #[test]
    fn gnm_has_exact_edge_count() {
        let g = gnm_directed(40, 123, 5).unwrap();
        assert_eq!(g.num_edges(), 123);
        for v in g.nodes() {
            assert!(!g.has_edge(v, v));
        }
    }

    /// `gnm_directed` as it was first written: one candidate at a time into
    /// a hash set, then the builder.
    fn gnm_hash_set_reference(n: usize, m: usize, seed: u64) -> DiGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = GraphBuilder::with_capacity(n, m);
        let mut seen = std::collections::HashSet::new();
        while seen.len() < m {
            let u = rng.gen_range(0..n) as NodeId;
            let v = rng.gen_range(0..n) as NodeId;
            if u != v && seen.insert((u, v)) {
                builder.add_edge(u, v);
            }
        }
        builder.build()
    }

    #[test]
    fn gnm_equals_the_hash_set_loop_from_sparse_to_complete() {
        let mut rng = StdRng::seed_from_u64(26);
        for case in 0..48 {
            let n = rng.gen_range(1..60usize);
            let pairs = n * (n - 1);
            let m = match case % 4 {
                0 => pairs,
                1 => rng.gen_range(0..=pairs.min(2 * n)),
                _ => rng.gen_range(0..=pairs),
            };
            let seed = rng.gen::<u64>();
            let got = gnm_directed(n, m, seed).unwrap();
            let want = gnm_hash_set_reference(n, m, seed);
            assert_eq!(got.out_csr(), want.out_csr(), "n={n} m={m} seed={seed}");
            assert_eq!(got.in_csr(), want.in_csr(), "n={n} m={m} seed={seed}");
        }
    }

    #[test]
    fn a_complete_gnm_request_builds_the_complete_digraph() {
        // About n²·ln(n²) ≈ 1M candidates, most of them in rounds that
        // accept a key or two: no round may pay a merge the size of the graph.
        let n = 300;
        let complete = crate::generators::complete(n);
        for seed in 0..2 {
            let g = gnm_directed(n, n * (n - 1), seed).unwrap();
            assert_eq!(g.out_csr(), complete.out_csr());
            assert_eq!(g.in_csr(), complete.in_csr());
        }
    }

    #[test]
    fn gnm_rejects_impossible_m() {
        assert!(gnm_directed(3, 7, 1).is_err());
        assert!(gnm_directed(3, 6, 1).is_ok());
    }
}
