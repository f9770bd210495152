//! Degree statistics.

use crate::digraph::DiGraph;

/// Summary statistics of a graph's in- and out-degree distributions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DegreeStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Average degree `m / n`.
    pub average_degree: f64,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Number of nodes with in-degree zero (the √c-walk stops immediately).
    pub zero_in_degree: usize,
    /// Number of nodes with out-degree zero.
    pub zero_out_degree: usize,
    /// Estimated power-law exponent of the in-degree distribution via the
    /// Hill / maximum-likelihood estimator over degrees ≥ `xmin = 2`
    /// (`None` when there are too few qualifying nodes to estimate).
    pub in_degree_power_law_exponent: Option<f64>,
}

impl DegreeStats {
    /// Computes the statistics for a graph.
    pub fn compute(graph: &DiGraph) -> Self {
        let n = graph.num_nodes();
        let mut max_in = 0usize;
        let mut max_out = 0usize;
        let mut zero_in = 0usize;
        let mut zero_out = 0usize;
        for v in graph.nodes() {
            let din = graph.in_degree(v);
            let dout = graph.out_degree(v);
            max_in = max_in.max(din);
            max_out = max_out.max(dout);
            if din == 0 {
                zero_in += 1;
            }
            if dout == 0 {
                zero_out += 1;
            }
        }
        DegreeStats {
            nodes: n,
            edges: graph.num_edges(),
            average_degree: graph.average_degree(),
            max_in_degree: max_in,
            max_out_degree: max_out,
            zero_in_degree: zero_in,
            zero_out_degree: zero_out,
            in_degree_power_law_exponent: estimate_power_law_exponent(graph),
        }
    }
}

/// Hill estimator for the in-degree power-law exponent with `xmin = 2`.
fn estimate_power_law_exponent(graph: &DiGraph) -> Option<f64> {
    const XMIN: f64 = 2.0;
    let mut count = 0usize;
    let mut log_sum = 0.0f64;
    for v in graph.nodes() {
        let d = graph.in_degree(v) as f64;
        if d >= XMIN {
            count += 1;
            log_sum += (d / XMIN).ln();
        }
    }
    if count < 10 || log_sum <= 0.0 {
        return None;
    }
    Some(1.0 + count as f64 / log_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, complete, star};

    #[test]
    fn stats_on_star() {
        let g = star(10, false);
        let stats = DegreeStats::compute(&g);
        assert_eq!(stats.nodes, 10);
        assert_eq!(stats.edges, 9);
        assert_eq!(stats.max_in_degree, 9);
        assert_eq!(stats.max_out_degree, 1);
        assert_eq!(stats.zero_in_degree, 9);
        assert_eq!(stats.zero_out_degree, 1);
    }

    #[test]
    fn stats_on_complete_graph() {
        let g = complete(6);
        let stats = DegreeStats::compute(&g);
        assert_eq!(stats.max_in_degree, 5);
        assert_eq!(stats.zero_in_degree, 0);
        assert!((stats.average_degree - 5.0).abs() < 1e-12);
    }

    #[test]
    fn power_law_exponent_detected_on_ba_graph() {
        let g = barabasi_albert(3000, 3, false, 5).unwrap();
        let stats = DegreeStats::compute(&g);
        let gamma = stats
            .in_degree_power_law_exponent
            .expect("BA graph should yield an exponent estimate");
        // BA in-degree tails are power-law-ish; the Hill estimate should land
        // in a broad but sane range.
        assert!(
            (1.2..5.0).contains(&gamma),
            "unexpected exponent estimate {gamma}"
        );
    }

    #[test]
    fn exponent_is_none_for_tiny_graphs() {
        let g = star(4, false);
        let stats = DegreeStats::compute(&g);
        assert!(stats.in_degree_power_law_exponent.is_none());
    }

    #[test]
    fn empty_graph_stats() {
        let g = crate::GraphBuilder::new(0).build();
        let stats = DegreeStats::compute(&g);
        assert_eq!(stats.nodes, 0);
        assert_eq!(stats.max_in_degree, 0);
    }
}
