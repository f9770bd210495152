//! PageRank following out-edges, computed from in-rows.
//!
//! PRSim (Wei et al., SIGMOD 2019) selects index ("hub") nodes by PageRank and
//! its average query cost is `O(n·‖π‖²·log n / ε²)` where `π` is the PageRank
//! vector; the ExactSim paper's §2 discussion reuses that quantity. This module
//! provides the standard damped power-iteration PageRank used for both.

use crate::access::NeighborAccess;
use crate::NodeId;

/// Parameters for [`pagerank`].
#[derive(Clone, Copy, Debug)]
pub struct PageRankConfig {
    /// Damping factor (probability of following an edge instead of teleporting).
    pub damping: f64,
    /// Maximum number of power iterations.
    pub max_iterations: usize,
    /// Stop when the L1 change between successive iterations drops below this.
    pub tolerance: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            max_iterations: 100,
            tolerance: 1e-10,
        }
    }
}

/// Computes the PageRank vector (L1-normalised to 1) following out-edges,
/// with uniform teleportation and dangling-node mass redistributed uniformly.
///
/// The walk follows out-edges, but [`NeighborAccess`] serves in-rows, so each
/// iteration gathers: `next(w) = Σ_{u ∈ I(w)} rank(u) / dout(u)`, with the
/// out-degrees counted once from the in-rows. `I(w)` is ascending with its
/// duplicates adjacent, so every `next(w)` receives the same shares in the
/// same order as a scatter along ascending out-rows would add them: the
/// same bits.
///
/// Returns an empty vector for the empty graph.
pub fn pagerank<G: NeighborAccess>(graph: &G, config: PageRankConfig) -> Vec<f64> {
    let n = graph.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let mut out_degree = vec![0usize; n];
    graph.for_each_in_neighbors(0..n as NodeId, |_, sources| {
        for &u in sources {
            out_degree[u as usize] += 1;
        }
    });
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0; n];
    // rank(u) / dout(u), the share u passes along each of its out-edges.
    let mut share = vec![0.0; n];
    let d = config.damping;

    for _ in 0..config.max_iterations {
        let mut dangling_mass = 0.0;
        for (u, &r) in rank.iter().enumerate() {
            if out_degree[u] == 0 {
                dangling_mass += r;
            } else {
                share[u] = r / out_degree[u] as f64;
            }
        }
        graph.for_each_in_neighbors(0..n as NodeId, |w, sources| {
            let mut acc = 0.0;
            for &u in sources {
                acc += share[u as usize];
            }
            next[w as usize] = acc;
        });
        let teleport = (1.0 - d) * uniform + d * dangling_mass * uniform;
        let mut delta = 0.0;
        for v in 0..n {
            let new_val = d * next[v] + teleport;
            delta += (new_val - rank[v]).abs();
            next[v] = new_val;
        }
        std::mem::swap(&mut rank, &mut next);
        if delta < config.tolerance {
            break;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, complete, cycle, star};

    fn sums_to_one(rank: &[f64]) -> bool {
        (rank.iter().sum::<f64>() - 1.0).abs() < 1e-9
    }

    #[test]
    fn uniform_on_symmetric_graphs() {
        for g in [complete(6), cycle(7)] {
            let rank = pagerank(&g, PageRankConfig::default());
            assert!(sums_to_one(&rank));
            let expected = 1.0 / g.num_nodes() as f64;
            for &r in &rank {
                assert!((r - expected).abs() < 1e-9, "rank {r} != {expected}");
            }
        }
    }

    #[test]
    fn hub_dominates_on_star() {
        // All leaves point at the hub, so the hub should hold much more rank.
        let g = star(11, false);
        let rank = pagerank(&g, PageRankConfig::default());
        assert!(sums_to_one(&rank));
        for leaf in 1..11 {
            assert!(rank[0] > 3.0 * rank[leaf]);
        }
    }

    #[test]
    fn values_are_positive_and_normalised_on_scale_free_graph() {
        let g = barabasi_albert(2000, 3, false, 1).unwrap();
        let rank = pagerank(&g, PageRankConfig::default());
        assert!(sums_to_one(&rank));
        assert!(rank.iter().all(|&r| r > 0.0));
        // Scale-free graph ⇒ small squared norm (the PRSim quantity).
        let norm_sq: f64 = rank.iter().map(|r| r * r).sum();
        assert!(norm_sq < 0.05, "‖π‖² = {norm_sq} should be ≪ 1");
    }

    /// PageRank as a scatter along each node's out-row, in ascending node
    /// order: the form the in-row gather must reproduce bit for bit.
    fn scattered(g: &crate::DiGraph, config: PageRankConfig) -> Vec<f64> {
        let n = g.num_nodes();
        let uniform = 1.0 / n as f64;
        let (mut rank, mut next) = (vec![uniform; n], vec![0.0; n]);
        let d = config.damping;
        for _ in 0..config.max_iterations {
            let mut dangling_mass = 0.0;
            next.iter_mut().for_each(|v| *v = 0.0);
            for u in 0..n as NodeId {
                let (out, r) = (g.out_neighbors(u), rank[u as usize]);
                if out.is_empty() {
                    dangling_mass += r;
                } else {
                    for &w in out {
                        next[w as usize] += r / out.len() as f64;
                    }
                }
            }
            let teleport = (1.0 - d) * uniform + d * dangling_mass * uniform;
            let mut delta = 0.0;
            for v in 0..n {
                let new_val = d * next[v] + teleport;
                delta += (new_val - rank[v]).abs();
                next[v] = new_val;
            }
            std::mem::swap(&mut rank, &mut next);
            if delta < config.tolerance {
                break;
            }
        }
        rank
    }

    #[test]
    fn the_in_row_gather_equals_the_out_row_scatter_bit_for_bit() {
        // Parallel edges, self-loops, sinks and sources.
        let multigraph = crate::DiGraph::from_edges(
            7,
            &[
                (0, 1),
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 2),
                (3, 1),
                (3, 4),
                (3, 4),
                (5, 3),
            ],
        );
        for g in [
            multigraph,
            barabasi_albert(500, 3, false, 9).unwrap(),
            star(9, true),
        ] {
            let config = PageRankConfig::default();
            let bits = |rank: Vec<f64>| rank.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(pagerank(&g, config)), bits(scattered(&g, config)));
            assert_eq!(
                bits(pagerank(g.in_graph(), config)),
                bits(scattered(&g, config))
            );
        }
    }

    #[test]
    fn empty_graph_gives_empty_vector() {
        let g = crate::GraphBuilder::new(0).build();
        assert!(pagerank(&g, PageRankConfig::default()).is_empty());
    }

    #[test]
    fn dangling_mass_is_conserved() {
        // A path has a sink; total rank must still be 1.
        let g = crate::generators::path(10);
        let rank = pagerank(&g, PageRankConfig::default());
        assert!(sums_to_one(&rank));
    }

    #[test]
    fn respects_iteration_budget() {
        let g = cycle(5);
        let config = PageRankConfig {
            max_iterations: 1,
            tolerance: 0.0,
            ..Default::default()
        };
        // One iteration on a cycle keeps the uniform vector (it's stationary).
        let rank = pagerank(&g, config);
        assert!(sums_to_one(&rank));
    }
}
