//! Distinct random edges, accepted without a hash set.
//!
//! [`power_law_digraph`](super::power_law_digraph) and
//! [`gnm_directed`](super::gnm_directed) draw candidate edges `c_1, c_2, …`
//! until enough distinct ones are accepted. The rule is that of a loop over
//! single candidates: `c_i` is accepted iff it is not a self-loop and no
//! earlier candidate was accepted with the same pair, and the loop stops at
//! the `wanted`-th acceptance or once `budget` candidates have been drawn.
//!
//! [`distinct_keys`] returns the accepted pairs as sorted `u64` keys
//! `(u << 32) | v`, the order the out-CSR wants ([`graph_of_keys`]), and
//! holds them in one of two forms, whichever is smaller:
//!
//! - **A pair bitmap** when its `n²` bits take no more room than the `wanted`
//!   keys (`n² ≤ 64·wanted`): a request close to the complete digraph. The
//!   loop runs as written, one candidate at a time, a bit test and set per
//!   candidate, and the keys are read back off the bitmap in ascending order.
//! - **Sorted runs** otherwise: every stand-in, whose `n²` is far larger than
//!   its edge count. Candidates are drawn in rounds. A round draws exactly
//!   `min(wanted − accepted, budget − drawn)` candidates, so it can accept at
//!   most as many pairs as are still missing: it never passes the loop's stop
//!   point, and after every round the accepted set is the loop's after the
//!   same candidates. The sort that finds a round's duplicates is the only
//!   sort the graph needs. The accepted keys live in sorted runs whose lengths
//!   more than halve from one run to the next, merged like a binary counter:
//!   a round that accepts a handful of keys pays a binary search per
//!   candidate and a merge the size of its own run, never a merge the size of
//!   the graph.

use crate::csr::CsrAdjacency;
use crate::digraph::DiGraph;
use crate::NodeId;

/// The accepted keys of every candidate `draw` returns, under the module's
/// rule: sorted and unique, at most `wanted` of them (exactly `wanted` unless
/// `budget` candidates run out first). `draw` returns ids below `num_nodes`.
///
/// `draw` is dropped before the keys are returned, so whatever it owns (the
/// samplers, the RNG) is freed before the graph is built.
pub(super) fn distinct_keys(
    num_nodes: usize,
    wanted: usize,
    budget: usize,
    draw: impl FnMut() -> (NodeId, NodeId),
) -> Vec<u64> {
    if num_nodes.saturating_mul(num_nodes) <= wanted.saturating_mul(64) {
        keys_by_bitmap(num_nodes, wanted, budget, draw)
    } else {
        keys_by_runs(wanted, budget, draw)
    }
}

/// [`distinct_keys`] through an `n²`-bit map of the accepted pairs: bit
/// `u·n + v` is pair `(u, v)`, so the set bits in ascending order are the
/// keys in ascending order.
fn keys_by_bitmap(
    n: usize,
    wanted: usize,
    budget: usize,
    mut draw: impl FnMut() -> (NodeId, NodeId),
) -> Vec<u64> {
    let mut bits = vec![0u64; (n * n).div_ceil(64)];
    let (mut accepted, mut drawn) = (0usize, 0usize);
    while accepted < wanted && drawn < budget {
        drawn += 1;
        let (u, v) = draw();
        if u != v {
            let bit = u as usize * n + v as usize;
            let (word, mask) = (bit / 64, 1u64 << (bit % 64));
            if bits[word] & mask == 0 {
                bits[word] |= mask;
                accepted += 1;
            }
        }
    }
    drop(draw);
    let mut keys = Vec::with_capacity(accepted);
    for (w, &word) in bits.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            let bit = 64 * w + rest.trailing_zeros() as usize;
            rest &= rest - 1;
            keys.push(((bit / n) as u64) << 32 | (bit % n) as u64);
        }
    }
    keys
}

/// [`distinct_keys`] in rounds over sorted runs (see the module docs).
fn keys_by_runs(
    wanted: usize,
    budget: usize,
    mut draw: impl FnMut() -> (NodeId, NodeId),
) -> Vec<u64> {
    // Sorted, unique, pairwise disjoint; each run is more than twice as long
    // as the one after it.
    let mut runs: Vec<Vec<u64>> = Vec::new();
    let (mut accepted, mut drawn) = (0usize, 0usize);
    loop {
        let round = (wanted - accepted).min(budget - drawn);
        if round == 0 {
            break;
        }
        drawn += round;
        // The first round's buffer becomes the first run, with room for
        // every key: the merges into it never reallocate.
        let mut batch = Vec::with_capacity(round);
        for _ in 0..round {
            let (u, v) = draw();
            if u != v {
                batch.push((u64::from(u) << 32) | u64::from(v));
            }
        }
        batch.sort_unstable();
        batch.dedup();
        // The largest run goes first: it holds most of what is held.
        batch.retain(|key| !runs.iter().any(|run| run.binary_search(key).is_ok()));
        if batch.is_empty() {
            continue;
        }
        accepted += batch.len();
        runs.push(batch);
        while let [.., longer, shorter] = &runs[..] {
            if 2 * shorter.len() < longer.len() {
                break;
            }
            let shorter = runs.pop().expect("two runs");
            merge_into(runs.last_mut().expect("one run"), &shorter);
        }
    }
    drop(draw);
    while runs.len() > 1 {
        let shorter = runs.pop().expect("two runs");
        merge_into(runs.last_mut().expect("one run"), &shorter);
    }
    runs.pop().unwrap_or_default()
}

/// Merges the sorted run `src` into the sorted run `dst`, which holds none of
/// its keys, in place from the back: only the keys of `dst` above `src`'s
/// smallest move.
fn merge_into(dst: &mut Vec<u64>, src: &[u64]) {
    let (mut i, mut j) = (dst.len(), src.len());
    dst.resize(i + j, 0);
    while j > 0 {
        let slot = i + j - 1;
        if i > 0 && dst[i - 1] > src[j - 1] {
            dst[slot] = dst[i - 1];
            i -= 1;
        } else {
            dst[slot] = src[j - 1];
            j -= 1;
        }
    }
}

/// The graph on `num_nodes` nodes whose edges are the sorted unique `keys`.
/// The keys are freed once the out-CSR is counted from them, before the
/// in-CSR is transposed, so the build peaks at the keys plus the out-CSR.
pub(super) fn graph_of_keys(num_nodes: usize, keys: Vec<u64>) -> DiGraph {
    let edges = keys
        .iter()
        .map(|&key| ((key >> 32) as NodeId, key as NodeId));
    let out_adj = CsrAdjacency::from_edges(num_nodes, edges);
    drop(keys);
    DiGraph::from_out_csr(out_adj)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// The loop the rounds replace: one candidate at a time into a hash set.
    fn hash_set_loop(
        wanted: usize,
        budget: usize,
        mut draw: impl FnMut() -> (NodeId, NodeId),
    ) -> Vec<u64> {
        let mut seen = HashSet::new();
        let mut attempts = 0usize;
        while seen.len() < wanted && attempts < budget {
            attempts += 1;
            let (u, v) = draw();
            if u != v {
                seen.insert((u64::from(u) << 32) | u64::from(v));
            }
        }
        let mut keys: Vec<u64> = seen.into_iter().collect();
        keys.sort_unstable();
        keys
    }

    fn uniform(n: usize, seed: u64) -> impl FnMut() -> (NodeId, NodeId) {
        let mut rng = StdRng::seed_from_u64(seed);
        move || {
            let u = rng.gen_range(0..n) as NodeId;
            (u, rng.gen_range(0..n) as NodeId)
        }
    }

    /// Node `i` drawn with probability ∝ 1/(i+1)²: a few pairs take most
    /// draws, so a budget of 20 per wanted edge can run out.
    fn skewed(n: usize, seed: u64) -> impl FnMut() -> (NodeId, NodeId) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powi(2);
            cumulative.push(total);
        }
        move || {
            let mut pick = || {
                let x = rng.gen::<f64>() * total;
                cumulative.partition_point(|&c| c <= x).min(n - 1) as NodeId
            };
            let u = pick();
            (u, pick())
        }
    }

    #[test]
    fn rounds_accept_exactly_what_the_hash_set_loop_accepts() {
        let mut rng = StdRng::seed_from_u64(26);
        for case in 0..60 {
            let n = rng.gen_range(2..40usize);
            let pairs = n * (n - 1);
            // Sparse to complete, and every tenth case the complete digraph.
            let wanted = if case % 10 == 0 {
                pairs
            } else {
                rng.gen_range(0..=pairs)
            };
            let seed = rng.gen::<u64>();
            for budget in [
                usize::MAX,
                wanted.saturating_mul(20).max(1000),
                wanted / 2 + 1,
            ] {
                let got = distinct_keys(n, wanted, budget, uniform(n, seed));
                let want = hash_set_loop(wanted, budget, uniform(n, seed));
                assert_eq!(
                    got, want,
                    "n={n} wanted={wanted} budget={budget} seed={seed}"
                );
                // Whichever side of the switch the case falls on, the
                // other form accepts the same keys.
                assert_eq!(keys_by_runs(wanted, budget, uniform(n, seed)), want);
                assert_eq!(keys_by_bitmap(n, wanted, budget, uniform(n, seed)), want);
                if budget == usize::MAX {
                    assert_eq!(got.len(), wanted);
                }
            }
        }
    }

    #[test]
    fn a_budget_that_runs_out_stops_where_the_loop_stops() {
        let (n, wanted) = (60, 3_000);
        let budget = wanted * 20;
        for seed in 0..4 {
            let got = distinct_keys(n, wanted, budget, skewed(n, seed));
            assert!(
                got.len() < wanted,
                "the budget should run out: {}",
                got.len()
            );
            assert_eq!(got, hash_set_loop(wanted, budget, skewed(n, seed)));
            assert_eq!(got, keys_by_runs(wanted, budget, skewed(n, seed)));
        }
    }

    #[test]
    fn both_sides_of_the_switch_accept_what_the_hash_set_loop_accepts() {
        // The bitmap side takes requests with n² ≤ 64·wanted.
        for (n, wanted, bitmap) in [
            (400, 2_000, false),
            (400, 2_500, true),
            (2_000, 9_000, false),
            (40, 1_400, true),
            (1, 0, false),
            (0, 0, true),
        ] {
            assert_eq!(n * n <= 64 * wanted, bitmap, "n={n} wanted={wanted}");
            let want = hash_set_loop(wanted, usize::MAX, uniform(n.max(1), 7));
            assert_eq!(
                distinct_keys(n, wanted, usize::MAX, uniform(n.max(1), 7)),
                want
            );
            if n > 1 {
                let budget = wanted * 20;
                let want = hash_set_loop(wanted, budget, skewed(n, 3));
                assert_eq!(distinct_keys(n, wanted, budget, skewed(n, 3)), want);
            }
        }
    }
}
