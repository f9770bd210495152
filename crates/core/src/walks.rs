//! The √c-walk sampling engine.
//!
//! A √c-walk from node `v` repeatedly moves to a uniformly random in-neighbor
//! of its current node with probability `√c` and stops otherwise (it also
//! stops when the current node has no in-neighbors). The probabilistic
//! interpretation of SimRank (eq. 2 of the paper) is
//!
//! ```text
//! S(i, j) = Pr[ two independent √c-walks from i and j meet ]
//! ```
//!
//! where *meet* means "visit the same node at the same step (step ≥ 1) while
//! both walks are still alive". The Monte-Carlo baseline and the diagonal
//! estimators of ExactSim (Algorithms 2 and 3) are built from the primitives
//! in this module.

use exactsim_graph::{NeighborAccess, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A recorded √c-walk: the sequence of nodes visited *after* the start node
/// (`positions[0]` is the node reached at step 1). Empty if the walk stopped
/// immediately.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Walk {
    /// Node visited at step `t + 1` for each index `t`.
    pub positions: Vec<NodeId>,
}

impl Walk {
    /// Number of steps the walk survived.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` iff the walk stopped before making a single step.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Node occupied at step `t` (1-based); `None` if the walk had stopped.
    pub fn at_step(&self, t: usize) -> Option<NodeId> {
        if t == 0 {
            None
        } else {
            self.positions.get(t - 1).copied()
        }
    }
}

/// Creates the RNG used by every sampling component.
///
/// A dedicated constructor keeps seeding logic in one place: per-node
/// streams combine the user seed with the node id through [`derive_seed`].
pub fn make_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Derives a per-node seed from a base seed and a node id (SplitMix64-style
/// mixing). Each node's samples then depend only on `(base, index)`, never on
/// which nodes were sampled before it, so a solver may visit nodes in any
/// order without changing a bit.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advances a walk by one step: returns the next node, or `None` if the walk
/// stops (either by the `1 − √c` coin or because the node has no in-neighbor).
#[inline]
pub fn step<G: NeighborAccess>(
    graph: &G,
    current: NodeId,
    sqrt_c: f64,
    rng: &mut SmallRng,
) -> Option<NodeId> {
    if rng.gen::<f64>() >= sqrt_c {
        return None;
    }
    step_forced(graph, current, rng)
}

/// Moves to a uniformly random in-neighbor without the stopping coin (used by
/// the "non-stop" walks of Algorithm 3). Returns `None` only when the node has
/// no in-neighbors.
#[inline]
pub fn step_forced<G: NeighborAccess>(
    graph: &G,
    current: NodeId,
    rng: &mut SmallRng,
) -> Option<NodeId> {
    let neighbors = graph.in_neighbors(current);
    if neighbors.is_empty() {
        None
    } else {
        Some(neighbors[rng.gen_range(0..neighbors.len())])
    }
}

/// Samples a full √c-walk from `start`, optionally truncated at `max_steps`.
pub fn sample_walk<G: NeighborAccess>(
    graph: &G,
    start: NodeId,
    sqrt_c: f64,
    max_steps: usize,
    rng: &mut SmallRng,
) -> Walk {
    let mut positions = Vec::new();
    let mut current = start;
    for _ in 0..max_steps {
        match step(graph, current, sqrt_c, rng) {
            Some(next) => {
                positions.push(next);
                current = next;
            }
            None => break,
        }
    }
    Walk { positions }
}

/// Outcome of simulating one pair of √c-walks from the same start node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairOutcome {
    /// The walks met (same node, same step, both alive) at the recorded step.
    Met {
        /// The 1-based step at which the first meeting happened.
        step: usize,
    },
    /// At least one walk stopped before any meeting occurred.
    NoMeeting,
}

/// Simulates two independent √c-walks from `start` *simultaneously* and
/// reports whether they meet. This is the Bernoulli trial of Algorithm 2:
/// `D(k,k) = Pr[no meeting]`.
///
/// Walking both chains in lock-step and stopping at the first meeting (or the
/// first death) is equivalent to sampling both full walks and comparing, but
/// does `O(expected meeting time)` work instead of `O(walk length)`.
pub fn sample_meeting_pair<G: NeighborAccess>(
    graph: &G,
    start: NodeId,
    sqrt_c: f64,
    max_steps: usize,
    rng: &mut SmallRng,
) -> PairOutcome {
    let mut a = start;
    let mut b = start;
    for step_idx in 1..=max_steps {
        let next_a = step(graph, a, sqrt_c, rng);
        let next_b = step(graph, b, sqrt_c, rng);
        match (next_a, next_b) {
            (Some(na), Some(nb)) => {
                if na == nb {
                    return PairOutcome::Met { step: step_idx };
                }
                a = na;
                b = nb;
            }
            _ => return PairOutcome::NoMeeting,
        }
    }
    PairOutcome::NoMeeting
}

/// Checks whether two recorded walks meet (same node at the same step while
/// both are alive). Used by the Monte-Carlo single-source baseline, which
/// pairs the r-th stored walk of the source with the r-th stored walk of every
/// candidate node.
pub fn walks_meet(a: &Walk, b: &Walk) -> bool {
    a.positions
        .iter()
        .zip(b.positions.iter())
        .any(|(x, y)| x == y)
}

/// The first meeting step of two recorded walks, if any (1-based).
pub fn first_meeting_step(a: &Walk, b: &Walk) -> Option<usize> {
    a.positions
        .iter()
        .zip(b.positions.iter())
        .position(|(x, y)| x == y)
        .map(|idx| idx + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exactsim_graph::generators::{complete, cycle, star};
    use exactsim_graph::DiGraph;

    const SQRT_C: f64 = 0.774_596_669_241_483_4; // sqrt(0.6)

    #[test]
    fn walk_on_source_node_stops_immediately() {
        // Leaves of a directed star have no in-neighbors.
        let g = star(5, false);
        let mut rng = make_rng(1);
        let w = sample_walk(&g, 1, SQRT_C, 100, &mut rng);
        assert!(w.is_empty());
        assert_eq!(w.at_step(1), None);
    }

    #[test]
    fn walk_respects_max_steps() {
        let g = cycle(4);
        let mut rng = make_rng(2);
        let w = sample_walk(&g, 0, 1.0, 7, &mut rng);
        assert_eq!(w.len(), 7);
    }

    #[test]
    fn walk_follows_in_edges() {
        // Cycle 0→1→2→0: the only in-neighbor of 0 is 2, of 2 is 1, of 1 is 0.
        let g = cycle(3);
        let mut rng = make_rng(3);
        let w = sample_walk(&g, 0, 1.0, 3, &mut rng);
        assert_eq!(w.positions, vec![2, 1, 0]);
    }

    #[test]
    fn stop_probability_matches_sqrt_c() {
        // On a cycle the walk never dies structurally, so the length is
        // geometric with success probability sqrt(c).
        let g = cycle(10);
        let mut rng = make_rng(4);
        let trials = 20_000;
        let total_len: usize = (0..trials)
            .map(|_| sample_walk(&g, 0, SQRT_C, 1000, &mut rng).len())
            .sum();
        let mean = total_len as f64 / trials as f64;
        let expected = SQRT_C / (1.0 - SQRT_C); // mean of geometric(1 - sqrt_c)
        assert!(
            (mean - expected).abs() < 0.1,
            "mean walk length {mean} vs expected {expected}"
        );
    }

    #[test]
    fn derive_seed_produces_distinct_streams() {
        let s1 = derive_seed(42, 0);
        let s2 = derive_seed(42, 1);
        let s3 = derive_seed(43, 0);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        // Deterministic.
        assert_eq!(derive_seed(42, 0), s1);
    }

    #[test]
    fn meeting_pair_on_single_in_neighbor_meets_with_probability_c() {
        // Directed path 0→1: node 1 has a single in-neighbor (0), so two
        // √c-walks from 1 meet iff both take the first step: probability c.
        let g = DiGraph::from_edges(2, &[(0, 1)]);
        let mut rng = make_rng(5);
        let trials = 40_000;
        let met = (0..trials)
            .filter(|_| {
                matches!(
                    sample_meeting_pair(&g, 1, SQRT_C, 100, &mut rng),
                    PairOutcome::Met { .. }
                )
            })
            .count();
        let freq = met as f64 / trials as f64;
        assert!(
            (freq - 0.6).abs() < 0.02,
            "meeting frequency {freq} should be ~c = 0.6"
        );
    }

    #[test]
    fn meeting_pair_never_meets_from_a_source_node() {
        let g = star(6, false);
        let mut rng = make_rng(6);
        for _ in 0..100 {
            assert_eq!(
                sample_meeting_pair(&g, 2, SQRT_C, 50, &mut rng),
                PairOutcome::NoMeeting
            );
        }
    }

    #[test]
    fn meeting_step_is_at_least_one() {
        let g = complete(5);
        let mut rng = make_rng(7);
        for _ in 0..200 {
            if let PairOutcome::Met { step } = sample_meeting_pair(&g, 0, SQRT_C, 50, &mut rng) {
                assert!(step >= 1);
            }
        }
    }

    #[test]
    fn recorded_walk_meeting_detection() {
        let a = Walk {
            positions: vec![3, 5, 7],
        };
        let b = Walk {
            positions: vec![4, 5],
        };
        assert!(walks_meet(&a, &b));
        assert_eq!(first_meeting_step(&a, &b), Some(2));

        let c = Walk {
            positions: vec![5, 4],
        };
        assert!(!walks_meet(&a, &c));
        assert_eq!(first_meeting_step(&a, &c), None);

        let empty = Walk::default();
        assert!(!walks_meet(&a, &empty));
    }

    #[test]
    fn forced_step_ignores_the_coin() {
        let g = cycle(3);
        let mut rng = make_rng(8);
        for _ in 0..20 {
            assert!(step_forced(&g, 0, &mut rng).is_some());
        }
        let star_graph = star(3, false);
        assert_eq!(step_forced(&star_graph, 1, &mut rng), None);
    }
}
