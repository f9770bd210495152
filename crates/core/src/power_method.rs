//! The Power Method: exact all-pairs SimRank on small graphs.
//!
//! This is the paper's reference point: the only previously known way to
//! obtain exact SimRank values, with `O(n²)` space and `O(L·n·m)` time, which
//! is what makes it infeasible beyond ~10⁵–10⁶ nodes and motivates ExactSim.
//! We use it (a) as ground truth for the small-graph experiments (Figures
//! 1–4) and (b) to extract the *exact* diagonal correction matrix `D` for
//! validating the estimators of Algorithms 2 and 3.
//!
//! The iteration is `S_{t+1} = (c · Pᵀ · S_t · P) ∨ I` with `S_0 = I`, where
//! `∨ I` pins the diagonal to 1 (Kusumoto et al.'s formulation, cited by the
//! paper). After `L` iterations the truncation error is at most `c^L`.

use exactsim_graph::{DiGraph, NodeId};

use crate::config::SimRankConfig;
use crate::error::SimRankError;

/// Configuration for [`PowerMethod`].
#[derive(Clone, Copy, Debug)]
pub struct PowerMethodConfig {
    /// Shared SimRank parameters (decay factor; the seed is unused — the
    /// Power Method is deterministic).
    pub simrank: SimRankConfig,
    /// Target additive error; the iteration count is `⌈log_{1/c}(1/tolerance)⌉`.
    pub tolerance: f64,
    /// Upper bound on `n²·8` bytes the dense matrix may occupy. Guards against
    /// accidentally running the `O(n²)` method on a large graph (the very
    /// mistake the paper is about). Default: 2 GiB.
    pub max_matrix_bytes: usize,
}

impl Default for PowerMethodConfig {
    fn default() -> Self {
        PowerMethodConfig {
            simrank: SimRankConfig::default(),
            tolerance: 1e-10,
            max_matrix_bytes: 2 << 30,
        }
    }
}

/// Exact all-pairs SimRank via the power iteration.
#[derive(Clone, Debug)]
pub struct PowerMethod {
    n: usize,
    decay: f64,
    /// Row-major `n × n` SimRank matrix.
    matrix: Vec<f64>,
    iterations_run: usize,
}

impl PowerMethod {
    /// Runs the power iteration to convergence (`tolerance`) and stores the
    /// full SimRank matrix.
    pub fn compute(graph: &DiGraph, config: PowerMethodConfig) -> Result<Self, SimRankError> {
        config.simrank.validate()?;
        if config.tolerance <= 0.0 {
            return Err(SimRankError::InvalidParameter {
                name: "tolerance",
                message: "tolerance must be positive".into(),
            });
        }
        let n = graph.num_nodes();
        if n == 0 {
            return Err(SimRankError::EmptyGraph);
        }
        let bytes = n
            .checked_mul(n)
            .and_then(|sq| sq.checked_mul(std::mem::size_of::<f64>()))
            .unwrap_or(usize::MAX);
        if bytes > config.max_matrix_bytes {
            return Err(SimRankError::GraphTooLarge {
                algorithm: "PowerMethod",
                message: format!(
                    "dense matrix would need {bytes} bytes (> limit {}); use ExactSim instead",
                    config.max_matrix_bytes
                ),
            });
        }

        let c = config.simrank.decay;
        let iterations = ((1.0 / config.tolerance).ln() / (1.0 / c).ln())
            .ceil()
            .max(1.0) as usize;

        let mut current = identity(n);
        let mut scratch_sp = vec![0.0; n * n];
        let mut next = vec![0.0; n * n];
        for _ in 0..iterations {
            // scratch_sp = S · P  (column j of S·P averages S's columns over I(j)).
            compute_s_times_p(graph, &current, &mut scratch_sp);
            // next = c · Pᵀ · (S · P), then pin the diagonal to 1.
            compute_pt_times(graph, &scratch_sp, &mut next, c);
            for d in 0..n {
                next[d * n + d] = 1.0;
            }
            std::mem::swap(&mut current, &mut next);
        }
        crate::counters::add(&crate::counters::SOLVER_ITERATIONS, iterations as u64);
        Ok(PowerMethod {
            n,
            decay: c,
            matrix: current,
            iterations_run: iterations,
        })
    }

    /// Number of nodes of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of power iterations that were run.
    pub fn iterations_run(&self) -> usize {
        self.iterations_run
    }

    /// The SimRank similarity `S(i, j)`.
    pub fn similarity(&self, i: NodeId, j: NodeId) -> f64 {
        self.matrix[i as usize * self.n + j as usize]
    }

    /// The single-source vector `S(·, source)` as a dense vector of length `n`.
    pub fn single_source(&self, source: NodeId) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n);
        for i in 0..self.n {
            out.push(self.matrix[i * self.n + source as usize]);
        }
        out
    }

    /// The exact diagonal correction matrix `D`: `D(k,k) = 1 − c·(PᵀSP)(k,k)`,
    /// i.e. one minus the probability that two √c-walks from `k` ever meet.
    /// Nodes with `din(k) = 0` get `D(k,k) = 1`.
    pub fn exact_diagonal(&self, graph: &DiGraph) -> Vec<f64> {
        let n = self.n;
        let mut d = vec![1.0; n];
        for k in 0..n as NodeId {
            let in_nbrs = graph.in_neighbors(k);
            let din = in_nbrs.len();
            if din == 0 {
                continue;
            }
            let mut acc = 0.0;
            for &a in in_nbrs {
                for &b in in_nbrs {
                    acc += self.similarity(a, b);
                }
            }
            d[k as usize] = 1.0 - self.decay * acc / (din * din) as f64;
        }
        d
    }

    /// Raw row-major matrix access (row `i` holds `S(i, ·)`).
    pub fn matrix(&self) -> &[f64] {
        &self.matrix
    }
}

fn identity(n: usize) -> Vec<f64> {
    let mut m = vec![0.0; n * n];
    for d in 0..n {
        m[d * n + d] = 1.0;
    }
    m
}

/// `out = S · P`, i.e. `out(i, j) = (1/din(j)) Σ_{k ∈ I(j)} S(i, k)`.
fn compute_s_times_p(graph: &DiGraph, s: &[f64], out: &mut [f64]) {
    let n = graph.num_nodes();
    out.iter_mut().for_each(|v| *v = 0.0);
    for j in 0..n as NodeId {
        let in_nbrs = graph.in_neighbors(j);
        if in_nbrs.is_empty() {
            continue;
        }
        let inv = 1.0 / in_nbrs.len() as f64;
        for i in 0..n {
            let row = &s[i * n..(i + 1) * n];
            let mut acc = 0.0;
            for &k in in_nbrs {
                acc += row[k as usize];
            }
            out[i * n + j as usize] = acc * inv;
        }
    }
}

/// `out = c · Pᵀ · M`, i.e. `out(i, j) = c·(1/din(i)) Σ_{k ∈ I(i)} M(k, j)`.
fn compute_pt_times(graph: &DiGraph, m: &[f64], out: &mut [f64], c: f64) {
    let n = graph.num_nodes();
    out.iter_mut().for_each(|v| *v = 0.0);
    for i in 0..n as NodeId {
        let in_nbrs = graph.in_neighbors(i);
        if in_nbrs.is_empty() {
            continue;
        }
        let scale = c / in_nbrs.len() as f64;
        let out_row = &mut out[i as usize * n..(i as usize + 1) * n];
        for &k in in_nbrs {
            let m_row = &m[k as usize * n..(k as usize + 1) * n];
            for (o, v) in out_row.iter_mut().zip(m_row.iter()) {
                *o += v;
            }
        }
        for o in out_row.iter_mut() {
            *o *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exactsim_graph::generators::{complete, cycle, star};
    use exactsim_graph::DiGraph;

    fn compute(graph: &DiGraph) -> PowerMethod {
        PowerMethod::compute(graph, PowerMethodConfig::default()).unwrap()
    }

    #[test]
    fn diagonal_is_one_and_values_in_range() {
        let g = complete(6);
        let pm = compute(&g);
        for i in 0..6u32 {
            assert_eq!(pm.similarity(i, i), 1.0);
            for j in 0..6u32 {
                let s = pm.similarity(i, j);
                assert!((0.0..=1.0 + 1e-12).contains(&s), "S({i},{j}) = {s}");
            }
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        let g = complete(5);
        let pm = compute(&g);
        for i in 0..5u32 {
            for j in 0..5u32 {
                assert!(
                    (pm.similarity(i, j) - pm.similarity(j, i)).abs() < 1e-12,
                    "asymmetry at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn bidirectional_star_leaves_have_similarity_c() {
        // In a bidirectional star every leaf's only in-neighbor is the hub, so
        // for distinct leaves S(a, b) = c·S(hub, hub) = c exactly.
        let g = star(6, true);
        let pm = compute(&g);
        let c = 0.6;
        for a in 1..6u32 {
            for b in 1..6u32 {
                if a != b {
                    assert!(
                        (pm.similarity(a, b) - c).abs() < 1e-9,
                        "S({a},{b}) = {} != c",
                        pm.similarity(a, b)
                    );
                }
            }
        }
        // S(hub, leaf) solves t = c·t (the hub's in-neighbors are leaves, the
        // leaf's in-neighbor is the hub), hence t = 0.
        for leaf in 1..6u32 {
            assert!(pm.similarity(0, leaf).abs() < 1e-12);
        }
    }

    #[test]
    fn directed_star_leaves_are_dissimilar() {
        // In the directed star nothing points at a leaf, so leaves have empty
        // in-neighborhoods and zero similarity to everything else.
        let g = star(6, false);
        let pm = compute(&g);
        for a in 1..6u32 {
            for b in 0..6u32 {
                if a != b {
                    assert!(pm.similarity(a, b).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn disconnected_nodes_have_zero_similarity() {
        let g = DiGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let pm = compute(&g);
        assert_eq!(pm.similarity(1, 3), 0.0);
        assert_eq!(pm.similarity(0, 2), 0.0);
    }

    #[test]
    fn complete_graph_matches_closed_form() {
        // On the complete graph K_n (directed, no self-loops) symmetry forces
        // all off-diagonal similarities to a common value s solving
        //   s = c * [ (n-2)(n-3) s + (n-2)·1 + ... ] / (n-1)^2
        // Derive directly: for i≠j, neighbors are V\{i}, V\{j}.
        // Σ_{i'∈I(i), j'∈I(j)} S(i',j') = Σ over pairs; count pairs with i'=j':
        // |I(i) ∩ I(j)| = n-2 pairs contributing 1 each; remaining
        // (n-1)^2 - (n-2) pairs contribute s each.
        // s = c [ (n-2) + ((n-1)^2 - (n-2)) s ] / (n-1)^2.
        let n = 7usize;
        let c = 0.6;
        let g = complete(n);
        let pm = compute(&g);
        let pairs = ((n - 1) * (n - 1)) as f64;
        let same = (n - 2) as f64;
        let s_closed = c * same / (pairs - c * (pairs - same));
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                if i != j {
                    assert!(
                        (pm.similarity(i, j) - s_closed).abs() < 1e-9,
                        "S({i},{j}) = {} vs closed form {s_closed}",
                        pm.similarity(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn cycle_nodes_are_dissimilar() {
        // On a directed cycle every node has exactly one in-neighbor and the
        // walks from distinct nodes always stay the same distance apart, so
        // they never meet: S(i, j) = 0 for i ≠ j.
        let g = cycle(5);
        let pm = compute(&g);
        for i in 0..5u32 {
            for j in 0..5u32 {
                if i != j {
                    assert!(pm.similarity(i, j).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn single_source_extracts_a_column() {
        let g = star(5, false);
        let pm = compute(&g);
        let col = pm.single_source(2);
        assert_eq!(col.len(), 5);
        for i in 0..5u32 {
            assert_eq!(col[i as usize], pm.similarity(i, 2));
        }
    }

    #[test]
    fn exact_diagonal_matches_hand_computed_values() {
        let g = star(6, false);
        let pm = compute(&g);
        let d = pm.exact_diagonal(&g);
        // Leaves have din = 0 → D = 1. The hub has the 5 leaves as
        // in-neighbors; distinct leaves have S = 0 (nothing points at them),
        // identical leaves S = 1, so D(hub) = 1 - c·5/25 = 1 - c/5.
        // (Walk view: two √c-walks from the hub meet iff both continue and
        // pick the same leaf: probability c·(1/5).)
        let c: f64 = 0.6;
        let expected_hub = 1.0 - c / 5.0;
        assert!((d[0] - expected_hub).abs() < 1e-9);
        for leaf in &d[1..6] {
            assert_eq!(*leaf, 1.0);
        }
    }

    #[test]
    fn exact_diagonal_is_within_bounds() {
        // D(k,k) ∈ [1-c, 1] always.
        let g = complete(8);
        let pm = compute(&g);
        for &dk in &pm.exact_diagonal(&g) {
            assert!((1.0 - 0.6 - 1e-9..=1.0 + 1e-12).contains(&dk), "D = {dk}");
        }
    }

    #[test]
    fn refuses_oversized_graphs() {
        let g = complete(100);
        let config = PowerMethodConfig {
            max_matrix_bytes: 1024,
            ..Default::default()
        };
        assert!(matches!(
            PowerMethod::compute(&g, config),
            Err(SimRankError::GraphTooLarge { .. })
        ));
    }

    #[test]
    fn rejects_empty_graph_and_bad_tolerance() {
        let empty = DiGraph::from_edges(0, &[]);
        assert!(matches!(
            PowerMethod::compute(&empty, PowerMethodConfig::default()),
            Err(SimRankError::EmptyGraph)
        ));
        let g = complete(3);
        let config = PowerMethodConfig {
            tolerance: 0.0,
            ..Default::default()
        };
        assert!(PowerMethod::compute(&g, config).is_err());
    }

    #[test]
    fn tolerance_controls_iteration_count() {
        let g = complete(4);
        let loose = PowerMethod::compute(
            &g,
            PowerMethodConfig {
                tolerance: 1e-2,
                ..Default::default()
            },
        )
        .unwrap();
        let tight = PowerMethod::compute(
            &g,
            PowerMethodConfig {
                tolerance: 1e-12,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(tight.iterations_run() > loose.iterations_run());
        // Both should agree to within the looser tolerance.
        for i in 0..4u32 {
            for j in 0..4u32 {
                assert!((loose.similarity(i, j) - tight.similarity(i, j)).abs() < 1e-2);
            }
        }
    }
}
