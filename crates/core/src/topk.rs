//! Top-k extraction from a single-source similarity vector.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One entry of a top-k answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopKEntry {
    /// The node id.
    pub node: u32,
    /// Its SimRank similarity to the query source.
    pub score: f64,
}

/// Returns the `k` nodes most similar to `source`, excluding `source` itself,
/// ordered by decreasing score with ties broken by increasing node id.
///
/// The deterministic tie-break keeps top-k answers stable across runs and
/// algorithms, which matters when computing Precision@k at the paper's
/// `k = 500` where the tail of the ranking often contains equal scores.
///
/// One pass over `scores` with a bounded max-heap of the best entries so far,
/// whose root is the current k-th entry: O(n log k) worst case. The heap
/// holds at most `min(k, n)` entries whatever `k` the caller asks for. Nodes
/// arrive in ascending id order, so a candidate that ties the k-th entry's
/// score ranks after it: only a strictly greater score displaces the root.
/// The k-th score never falls, so the scan tests a whole block of eight
/// scores against it with branch-free compares and visits the block's
/// entries one by one only when one of them is above it. The answer equals a
/// full sort truncated to `k`, bit for bit.
pub fn top_k(scores: &[f64], source: u32, k: usize) -> Vec<TopKEntry> {
    let k = k.min(scores.len());
    let mut best: BinaryHeap<Ranked> = BinaryHeap::with_capacity(k);
    let mut next = 0;
    while best.len() < k {
        let Some(&score) = scores.get(next) else {
            break;
        };
        if next as u32 != source {
            best.push(Ranked(TopKEntry {
                node: next as u32,
                score,
            }));
        }
        next += 1;
    }
    let Some(root) = best.peek() else {
        return Vec::new();
    };
    let mut kth = root.0.score;
    let (blocks, tail) = scores[next..].as_chunks::<BLOCK>();
    for block in blocks {
        if block
            .iter()
            .fold(false, |above, &score| above | (score > kth))
        {
            for &score in block {
                offer(&mut best, &mut kth, source, next, score);
                next += 1;
            }
        } else {
            next += BLOCK;
        }
    }
    for &score in tail {
        offer(&mut best, &mut kth, source, next, score);
        next += 1;
    }
    best.into_sorted_vec().into_iter().map(|r| r.0).collect()
}

/// Scores the [`top_k`] scan compares per step: 64 bytes of `f64`.
const BLOCK: usize = 8;

/// Offers node `node` to the full heap `best`: a score strictly above the
/// k-th entry's displaces the root, and `kth` follows the new root.
fn offer(best: &mut BinaryHeap<Ranked>, kth: &mut f64, source: u32, node: usize, score: f64) {
    if score > *kth && node as u32 != source {
        if let Some(mut root) = best.peek_mut() {
            *root = Ranked(TopKEntry {
                node: node as u32,
                score,
            });
        }
        *kth = best.peek().map_or(*kth, |root| root.0.score);
    }
}

/// Score descending, then node id ascending: the ranking order, so `Less`
/// means "ranks ahead of".
fn compare(a: &TopKEntry, b: &TopKEntry) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then(a.node.cmp(&b.node))
}

/// A [`TopKEntry`] ordered by [`compare`], so a max-heap of them keeps the
/// worst-ranked entry at its root.
struct Ranked(TopKEntry);

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        compare(&self.0, &other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_score_then_node_id() {
        let scores = vec![1.0, 0.3, 0.9, 0.9, 0.1];
        let top = top_k(&scores, 0, 3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].node, 2);
        assert_eq!(top[1].node, 3);
        assert_eq!(top[2].node, 1);
        assert!((top[0].score - 0.9).abs() < 1e-15);
    }

    #[test]
    fn excludes_the_source() {
        let scores = vec![0.5, 1.0, 0.2];
        let top = top_k(&scores, 1, 2);
        assert!(top.iter().all(|e| e.node != 1));
        assert_eq!(top[0].node, 0);
    }

    #[test]
    fn k_larger_than_candidates_returns_all() {
        let scores = vec![1.0, 0.4, 0.2];
        let top = top_k(&scores, 0, 100);
        assert_eq!(top.len(), 2);
        assert_eq!(top_k(&scores, 0, usize::MAX), top);
    }

    #[test]
    fn k_zero_and_empty_inputs() {
        assert!(top_k(&[1.0, 0.5], 0, 0).is_empty());
        assert!(top_k(&[], 0, 5).is_empty());
        assert!(top_k(&[1.0], 0, 5).is_empty());
    }

    #[test]
    fn deterministic_under_many_ties() {
        let scores = vec![1.0; 50];
        let top = top_k(&scores, 7, 10);
        let nodes: Vec<u32> = top.iter().map(|e| e.node).collect();
        // With all scores tied, the smallest ids (excluding source 7) win.
        assert_eq!(nodes, vec![0, 1, 2, 3, 4, 5, 6, 8, 9, 10]);
    }

    #[test]
    fn selection_matches_full_sort_on_random_input() {
        // Cross-check the one-pass selection against a straightforward sort.
        let scores: Vec<f64> = (0..200)
            .map(|i| ((i * 7919) % 997) as f64 / 997.0)
            .collect();
        let fast = top_k(&scores, 3, 25);
        let mut slow: Vec<TopKEntry> = scores
            .iter()
            .enumerate()
            .filter(|&(n, _)| n != 3)
            .map(|(n, &s)| TopKEntry {
                node: n as u32,
                score: s,
            })
            .collect();
        slow.sort_unstable_by(compare);
        slow.truncate(25);
        assert_eq!(fast, slow);
    }
}
