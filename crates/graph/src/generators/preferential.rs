//! Scale-free (power-law) graph generators.
//!
//! The accuracy/efficiency behaviour the ExactSim paper reports on real graphs
//! is driven by their scale-free structure: the Personalized PageRank vector of
//! a node on such graphs follows a power law (the paper cites Bahmani et al.),
//! which is what makes the `‖π_i‖²` sampling optimisation (Lemma 3) and
//! PRSim's average-case bound effective. The generators here reproduce that
//! structure with controllable node count, average degree and skew.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::distinct::{distinct_keys, graph_of_keys};
use crate::builder::GraphBuilder;
use crate::digraph::DiGraph;
use crate::error::GraphError;
use crate::NodeId;

/// Barabási–Albert preferential attachment.
///
/// Starts from a small seed clique of `m_attach` nodes and attaches every new
/// node to `m_attach` existing nodes chosen proportionally to their current
/// degree. `undirected = true` symmetrises each attachment edge (this is the
/// stand-in used for the co-authorship datasets GQ/HT/HP/DB); with
/// `undirected = false` the new node points at the chosen targets, producing a
/// citation-style directed graph with power-law in-degrees (stand-in for
/// WV/IC/IT/TW).
pub fn barabasi_albert(
    n: usize,
    m_attach: usize,
    undirected: bool,
    seed: u64,
) -> Result<DiGraph, GraphError> {
    if m_attach == 0 {
        return Err(GraphError::InvalidGeneratorParams(
            "attachment degree m_attach must be >= 1".into(),
        ));
    }
    if n < m_attach + 1 {
        return Err(GraphError::InvalidGeneratorParams(format!(
            "need at least m_attach+1 = {} nodes, got {n}",
            m_attach + 1
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_capacity(n, n * m_attach * 2).symmetric(undirected);

    // `attachment_pool` holds one entry per edge endpoint, so sampling a
    // uniform element of the pool samples nodes proportionally to degree.
    let mut attachment_pool: Vec<NodeId> = Vec::with_capacity(2 * n * m_attach);

    // Seed clique over the first m_attach + 1 nodes.
    let seed_nodes = m_attach + 1;
    for u in 0..seed_nodes as NodeId {
        for v in 0..seed_nodes as NodeId {
            if u < v {
                builder.add_edge(u, v);
                attachment_pool.push(u);
                attachment_pool.push(v);
            }
        }
    }

    let mut chosen: Vec<NodeId> = Vec::with_capacity(m_attach);
    for new in seed_nodes..n {
        let new = new as NodeId;
        chosen.clear();
        // Sample m_attach distinct targets by preferential attachment.
        let mut guard = 0usize;
        while chosen.len() < m_attach {
            let pick = attachment_pool[rng.gen_range(0..attachment_pool.len())];
            if !chosen.contains(&pick) {
                chosen.push(pick);
            }
            guard += 1;
            if guard > 100 * m_attach {
                // Extremely unlikely; fall back to uniform distinct picks.
                let fallback = rng.gen_range(0..new);
                if !chosen.contains(&fallback) {
                    chosen.push(fallback);
                }
            }
        }
        for &t in &chosen {
            builder.add_edge(new, t);
            attachment_pool.push(new);
            attachment_pool.push(t);
        }
    }
    // The pool is as long as the edge list: free it before the build.
    drop(attachment_pool);
    Ok(builder.build())
}

/// Parameters for [`power_law_digraph`].
#[derive(Clone, Copy, Debug)]
pub struct PowerLawConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of distinct directed edges wanted: the graph has exactly this
    /// many unless the candidate budget runs out first, and then fewer (see
    /// [`power_law_digraph`]).
    pub edges: usize,
    /// Power-law exponent of the in-degree distribution (typically 2.0–3.0;
    /// smaller means more skew / heavier hubs).
    pub gamma_in: f64,
    /// Power-law exponent of the out-degree distribution.
    pub gamma_out: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        PowerLawConfig {
            nodes: 10_000,
            edges: 50_000,
            gamma_in: 2.2,
            gamma_out: 2.5,
            seed: 0,
        }
    }
}

/// Directed configuration-model graph with power-law in- and out-degree
/// sequences.
///
/// Each node draws an in-weight and an out-weight from a Zipf-like
/// distribution with the configured exponents; edges are then created by
/// sampling source nodes proportionally to out-weight and target nodes
/// proportionally to in-weight (a Chung–Lu style construction).
///
/// Candidate edges are drawn one pair at a time; a self-loop or a pair
/// already accepted is skipped. Drawing stops at the `edges`-th distinct
/// pair, so the graph has exactly `edges` edges, or once `max(20·edges,
/// 1000)` candidates have been drawn, whichever comes first. When the budget
/// runs out first (a request close to `n(n − 1)` on skewed weights, whose
/// light pairs are almost never drawn) the graph has fewer edges, and nothing
/// reports it: compare `num_edges()` with the request.
pub fn power_law_digraph(config: PowerLawConfig) -> Result<DiGraph, GraphError> {
    let PowerLawConfig {
        nodes: n,
        edges: m,
        gamma_in,
        gamma_out,
        seed,
    } = config;
    if n == 0 {
        return Ok(GraphBuilder::new(0).build());
    }
    if gamma_in <= 1.0 || gamma_out <= 1.0 {
        return Err(GraphError::InvalidGeneratorParams(
            "power-law exponents must be > 1".into(),
        ));
    }
    if m > n.saturating_mul(n.saturating_sub(1)) {
        return Err(GraphError::InvalidGeneratorParams(format!(
            "requested {m} edges but only {} ordered pairs exist",
            n * (n.saturating_sub(1))
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let (out_sampler, in_sampler) = endpoint_samplers(n, gamma_in, gamma_out, &mut rng);
    let budget = m.saturating_mul(20).max(1000);
    let keys = distinct_keys(n, m, budget, move || {
        let u = out_sampler.sample(&mut rng) as NodeId;
        let v = in_sampler.sample(&mut rng) as NodeId;
        (u, v)
    });
    Ok(graph_of_keys(n, keys))
}

/// The `(source, target)` samplers of [`power_law_digraph`]: node ranked `r`
/// gets weight `(r+1)^(-1/(gamma-1))`, and a random permutation per side
/// decouples in-rank from out-rank, so hubs for in-degree are not
/// automatically hubs for out-degree.
fn endpoint_samplers(
    n: usize,
    gamma_in: f64,
    gamma_out: f64,
    rng: &mut StdRng,
) -> (AliasTable, AliasTable) {
    let mut in_rank: Vec<usize> = (0..n).collect();
    let mut out_rank: Vec<usize> = (0..n).collect();
    shuffle(&mut in_rank, rng);
    shuffle(&mut out_rank, rng);

    let in_alpha = 1.0 / (gamma_in - 1.0);
    let out_alpha = 1.0 / (gamma_out - 1.0);
    let mut in_weights = vec![0.0f64; n];
    let mut out_weights = vec![0.0f64; n];
    for r in 0..n {
        in_weights[in_rank[r]] = ((r + 1) as f64).powf(-in_alpha);
        out_weights[out_rank[r]] = ((r + 1) as f64).powf(-out_alpha);
    }
    (AliasTable::new(&out_weights), AliasTable::new(&in_weights))
}

/// Fisher–Yates shuffle with the supplied RNG.
fn shuffle(xs: &mut [usize], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

/// Walker alias table for O(1) sampling from a fixed discrete distribution.
struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "alias table needs positive total weight");
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        AliasTable { prob, alias }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ba_undirected_is_symmetric_and_connected_enough() {
        let g = barabasi_albert(200, 3, true, 1).unwrap();
        assert_eq!(g.num_nodes(), 200);
        for (u, v) in g.iter_edges() {
            assert!(g.has_edge(v, u));
        }
        // Every non-seed node attaches to 3 targets; undirected doubling.
        assert!(g.num_edges() >= 2 * 3 * (200 - 4));
        // No isolated nodes in BA.
        for v in g.nodes() {
            assert!(g.in_degree(v) + g.out_degree(v) > 0);
        }
    }

    #[test]
    fn ba_directed_has_no_dangling_out_nodes_beyond_seed() {
        let g = barabasi_albert(100, 2, false, 9).unwrap();
        // Directed BA: each new node has out-degree >= 2.
        for v in 3..100u32 {
            assert!(g.out_degree(v) >= 2, "node {v} has out-degree < m_attach");
        }
    }

    #[test]
    fn ba_is_deterministic_per_seed() {
        let a = barabasi_albert(150, 2, false, 5).unwrap();
        let b = barabasi_albert(150, 2, false, 5).unwrap();
        assert_eq!(
            a.iter_edges().collect::<Vec<_>>(),
            b.iter_edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn ba_produces_skewed_degrees() {
        let g = barabasi_albert(1000, 2, false, 3).unwrap();
        let max_in = g.max_in_degree();
        let avg = g.average_degree();
        assert!(
            max_in as f64 > 5.0 * avg,
            "expected a hub: max_in={max_in}, avg={avg}"
        );
    }

    #[test]
    fn ba_rejects_bad_parameters() {
        assert!(barabasi_albert(5, 0, false, 1).is_err());
        assert!(barabasi_albert(2, 3, false, 1).is_err());
    }

    #[test]
    fn power_law_hits_requested_size_approximately() {
        let cfg = PowerLawConfig {
            nodes: 2000,
            edges: 10_000,
            seed: 17,
            ..Default::default()
        };
        let g = power_law_digraph(cfg).unwrap();
        assert_eq!(g.num_nodes(), 2000);
        assert!(
            g.num_edges() as f64 >= 0.9 * 10_000.0,
            "only {} edges generated",
            g.num_edges()
        );
        for v in g.nodes() {
            assert!(!g.has_edge(v, v));
        }
    }

    #[test]
    fn power_law_in_degrees_are_heavy_tailed() {
        let cfg = PowerLawConfig {
            nodes: 3000,
            edges: 15_000,
            gamma_in: 2.0,
            gamma_out: 2.5,
            seed: 23,
        };
        let g = power_law_digraph(cfg).unwrap();
        let max_in = g.max_in_degree() as f64;
        let avg = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            max_in > 10.0 * avg,
            "expected heavy tail: max_in={max_in}, avg={avg}"
        );
    }

    #[test]
    fn power_law_is_deterministic_per_seed() {
        let cfg = PowerLawConfig {
            nodes: 500,
            edges: 2000,
            seed: 99,
            ..Default::default()
        };
        let a = power_law_digraph(cfg).unwrap();
        let b = power_law_digraph(cfg).unwrap();
        assert_eq!(
            a.iter_edges().collect::<Vec<_>>(),
            b.iter_edges().collect::<Vec<_>>()
        );
    }

    /// `power_law_digraph` as it was first written: one candidate at a
    /// time into a hash set, then the builder.
    fn power_law_hash_set_reference(config: PowerLawConfig) -> DiGraph {
        let n = config.nodes;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (out_sampler, in_sampler) =
            endpoint_samplers(n, config.gamma_in, config.gamma_out, &mut rng);
        let mut builder = GraphBuilder::with_capacity(n, config.edges);
        let mut seen = std::collections::HashSet::new();
        let budget = config.edges.saturating_mul(20).max(1000);
        let mut attempts = 0usize;
        while seen.len() < config.edges && attempts < budget {
            attempts += 1;
            let u = out_sampler.sample(&mut rng) as NodeId;
            let v = in_sampler.sample(&mut rng) as NodeId;
            if u != v && seen.insert((u, v)) {
                builder.add_edge(u, v);
            }
        }
        builder.build()
    }

    #[test]
    fn power_law_equals_the_hash_set_loop() {
        let mut rng = StdRng::seed_from_u64(26);
        for _ in 0..24 {
            let nodes = rng.gen_range(2..400usize);
            let pairs = nodes * (nodes - 1);
            let config = PowerLawConfig {
                nodes,
                edges: rng.gen_range(0..=pairs.min(8 * nodes)),
                gamma_in: rng.gen_range(1.8..3.0),
                gamma_out: rng.gen_range(1.8..3.0),
                seed: rng.gen(),
            };
            let got = power_law_digraph(config).unwrap();
            let want = power_law_hash_set_reference(config);
            assert_eq!(got.out_csr(), want.out_csr(), "{config:?}");
            assert_eq!(got.in_csr(), want.in_csr(), "{config:?}");
        }
    }

    #[test]
    fn power_law_returns_fewer_edges_when_its_budget_runs_out() {
        // 2,000 of the 2,450 ordered pairs on skewed weights: the light pairs
        // are almost never drawn, and the 40,000-candidate budget runs out.
        let config = PowerLawConfig {
            nodes: 50,
            edges: 2_000,
            gamma_in: 1.5,
            gamma_out: 1.6,
            seed: 5,
        };
        let g = power_law_digraph(config).unwrap();
        assert!(g.num_edges() < config.edges, "{} edges", g.num_edges());
        let want = power_law_hash_set_reference(config);
        assert_eq!(g.out_csr(), want.out_csr());
        assert_eq!(g.in_csr(), want.in_csr());
        // A request the budget can fill gets exactly its edges.
        let filled = PowerLawConfig {
            edges: 300,
            ..config
        };
        assert_eq!(power_law_digraph(filled).unwrap().num_edges(), 300);
    }

    #[test]
    fn power_law_rejects_bad_exponents() {
        let cfg = PowerLawConfig {
            gamma_in: 0.9,
            ..Default::default()
        };
        assert!(power_law_digraph(cfg).is_err());
    }

    #[test]
    fn power_law_empty_graph() {
        let cfg = PowerLawConfig {
            nodes: 0,
            edges: 0,
            ..Default::default()
        };
        let g = power_law_digraph(cfg).unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn alias_table_sampling_is_roughly_proportional() {
        let weights = vec![1.0, 2.0, 7.0];
        let table = AliasTable::new(&weights);
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 3];
        let trials = 50_000;
        for _ in 0..trials {
            counts[table.sample(&mut rng)] += 1;
        }
        let f2 = counts[2] as f64 / trials as f64;
        assert!((f2 - 0.7).abs() < 0.02, "hub frequency {f2} should be ~0.7");
    }
}
