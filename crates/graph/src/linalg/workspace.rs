//! The sparse accumulator every sparse kernel reduces through.

use crate::linalg::sparse_vec::SparseVec;
use crate::NodeId;

/// A drain sorts the touched list while it holds fewer than one entry per
/// this many bitmap words, and scans the bitmap otherwise. Sorting `t`
/// entries costs `~t·log t` data-dependent branches; a scan costs one
/// sequential read and write per 64 slots plus one step per entry. Timed
/// on random touched sets (2-vCPU VM, `n` from 1,000 to 1,000,000), the
/// two cost the same at 1.5–4 words per entry (~400 entries at the
/// IC@0.005 stand-in's 580 words), and neither loses much near the switch.
const WORDS_PER_SORTED_ENTRY: usize = 2;

/// `true` iff a drain of `touched` entries over `words` bitmap words sorts
/// the touched list (rather than scanning the words).
fn drain_sorts(touched: usize, words: usize) -> bool {
    touched * WORDS_PER_SORTED_ENTRY < words
}

/// Reusable dense scratch space for the sparse kernels: the sparse
/// accumulator every Scratch-based kernel in this workspace builds on.
///
/// The sparse kernels accumulate into a dense `f64` buffer plus a "touched"
/// list (the classic sparse-accumulator pattern), so a sequence of
/// sparse-matrix × sparse-vector products performs no per-call allocation
/// beyond the output vector. A bitmap marks the live slots, one bit per
/// node: the first touch of a slot sets its bit and *assigns* the value, so
/// the dense buffer is never zeroed, and a value that cancels to exactly
/// `0.0` cannot re-enter the touched list twice. A reset clears only the
/// bitmap words of touched slots, so it is `O(touched)` regardless of `n`.
///
/// Draining always visits the touched indices in **ascending order** — that
/// is the determinism contract: float accumulations performed through a
/// workspace reduce in ascending-index order, exactly like the `BTreeMap`
/// accumulators these workspaces replaced, so results are bit-identical
/// between the two representations. A drain of `t` entries gets that order
/// by sorting the touched list while `t` is small next to the `n/64`
/// bitmap words (`O(t log t)`), and otherwise by scanning the bitmap word
/// by word and clearing each word as it goes (`O(n/64 + t)`, which is
/// `O(t)` there).
#[derive(Clone, Debug)]
pub struct Workspace {
    accum: Vec<f64>,
    /// Bit `i % 64` of word `i / 64` is set iff slot `i` is live.
    live: Vec<u64>,
    touched: Vec<NodeId>,
}

impl Workspace {
    /// Creates a workspace for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        Workspace {
            accum: vec![0.0; n],
            live: vec![0; n.div_ceil(64)],
            touched: Vec::new(),
        }
    }

    /// Number of nodes this workspace supports.
    pub fn len(&self) -> usize {
        self.accum.len()
    }

    /// `true` iff the workspace covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.accum.is_empty()
    }

    /// Number of distinct indices touched since the last drain/reset.
    pub fn num_touched(&self) -> usize {
        self.touched.len()
    }

    /// Adds `v` into slot `i`. The first touch of a slot since the last
    /// drain/reset *assigns* (it does not read the stale value), so no
    /// zeroing pass is ever needed.
    #[inline]
    pub fn add(&mut self, i: NodeId, v: f64) {
        let idx = i as usize;
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if self.live[word] & bit != 0 {
            self.accum[idx] += v;
        } else {
            self.live[word] |= bit;
            self.accum[idx] = v;
            self.touched.push(i);
        }
    }

    /// Current value of slot `i` (`0.0` if untouched since the last
    /// drain/reset).
    pub fn value(&self, i: NodeId) -> f64 {
        let idx = i as usize;
        if self.live[idx / 64] & (1u64 << (idx % 64)) != 0 {
            self.accum[idx]
        } else {
            0.0
        }
    }

    /// Discards any accumulated entries.
    pub fn reset(&mut self) {
        for &i in &self.touched {
            self.live[i as usize / 64] = 0;
        }
        self.touched.clear();
    }

    /// Visits every touched `(index, value)` pair in ascending index order —
    /// including entries that cancelled to `0.0` — then resets the workspace.
    /// This is the primitive the deterministic kernels reduce through.
    pub fn drain_sorted(&mut self, mut f: impl FnMut(NodeId, f64)) {
        let Workspace {
            accum,
            live,
            touched,
        } = self;
        if drain_sorts(touched.len(), live.len()) {
            touched.sort_unstable();
            for &i in touched.iter() {
                live[i as usize / 64] = 0;
                f(i, accum[i as usize]);
            }
        } else {
            for (w, word) in live.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let idx = w * 64 + bits.trailing_zeros() as usize;
                    f(idx as NodeId, accum[idx]);
                    bits &= bits - 1;
                }
            }
        }
        touched.clear();
    }

    /// Drains the accumulated entries into `out` (cleared first) in sorted
    /// index order and resets the workspace for reuse. Entries that cancelled
    /// to exactly 0.0 are kept out of the result.
    pub fn drain_into(&mut self, out: &mut SparseVec) {
        out.clear();
        self.drain_sorted(|i, v| {
            if v != 0.0 {
                out.push_sorted(i, v);
            }
        });
    }

    /// Appends the accumulated entries to the parallel `indices`/`values`
    /// arrays in sorted index order — without clearing them — and resets
    /// the workspace. Like [`Workspace::drain_into`], entries that cancelled
    /// to exactly 0.0 are left out. This is how an arena of many sparse
    /// vectors grows one vector at a time.
    pub fn drain_append(&mut self, indices: &mut Vec<NodeId>, values: &mut Vec<f64>) {
        self.drain_sorted(|i, v| {
            if v != 0.0 {
                indices.push(i);
                values.push(v);
            }
        });
    }

    /// Drains the accumulated entries into a freshly allocated sorted
    /// [`SparseVec`] and resets the workspace for reuse.
    pub(super) fn drain_sparse(&mut self) -> SparseVec {
        let mut out = SparseVec::with_capacity(self.touched.len());
        self.drain_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn sorts(touched: usize, n: usize) -> bool {
        drain_sorts(touched, n.div_ceil(64))
    }

    fn bits(entries: impl IntoIterator<Item = (NodeId, f64)>) -> Vec<(NodeId, u64)> {
        entries.into_iter().map(|(i, v)| (i, v.to_bits())).collect()
    }

    /// Adds to `ws` and to the ordered-map reference in the same order. The
    /// first add to a slot assigns, later ones accumulate, in both.
    fn add_both(ws: &mut Workspace, map: &mut BTreeMap<NodeId, f64>, i: NodeId, v: f64) {
        ws.add(i, v);
        map.entry(i).and_modify(|acc| *acc += v).or_insert(v);
    }

    fn assert_fresh(ws: &Workspace, context: &str) {
        assert_eq!(ws.num_touched(), 0, "{context}: touched list not emptied");
        for i in 0..ws.len() as NodeId {
            assert_eq!(ws.value(i).to_bits(), 0, "{context}: slot {i} still live");
        }
    }

    #[test]
    fn drains_match_an_ordered_map_on_both_drain_paths() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0019);
        // Sizes below, at and past one word, and ones that end in a partial
        // word; only the larger ones have room for a sorted drain.
        for n in [1usize, 63, 64, 129, 1_000, 20_037] {
            let mut ws = Workspace::new(n);
            // Touched-set sizes around the switch point: the largest that
            // sorts is `switch - 1`.
            let switch = n.div_ceil(64).div_ceil(WORDS_PER_SORTED_ENTRY);
            let sizes = [1, switch.saturating_sub(1), switch, switch + 1, n / 3, n];
            let mut paths = [0usize; 2];
            // Each size meets each way of draining twice.
            for round in 0..8 * sizes.len() {
                let target = sizes[round / 8].clamp(1, n);
                // `target` distinct slots in random order; the last slot sits
                // in the last (possibly partial) word.
                let mut slots = vec![(n - 1) as NodeId];
                let mut chosen = vec![false; n];
                chosen[n - 1] = true;
                while slots.len() < target {
                    let i = rng.gen_range(0..n);
                    if !std::mem::replace(&mut chosen[i], true) {
                        slots.push(i as NodeId);
                    }
                }
                // Every slot once, then duplicates.
                let mut map = BTreeMap::new();
                for k in 0..3 * target {
                    let i = match slots.get(k) {
                        Some(&i) => i,
                        None => slots[rng.gen_range(0..target)],
                    };
                    let v = match rng.gen_range(0u32..8) {
                        0 => -0.0,
                        1 => -map.get(&i).copied().unwrap_or(1.0),
                        _ => rng.gen_range(-2.0..2.0),
                    };
                    add_both(&mut ws, &mut map, i, v);
                }
                assert_eq!(ws.num_touched(), target, "n={n} round {round}");
                for i in 0..n as NodeId {
                    let want = map.get(&i).copied().unwrap_or(0.0);
                    assert_eq!(ws.value(i).to_bits(), want.to_bits(), "n={n} slot {i}");
                }
                paths[usize::from(!sorts(target, n))] += 1;
                let live = bits(map.iter().map(|(&i, &v)| (i, v)));
                let nonzero: Vec<_> = live
                    .iter()
                    .copied()
                    .filter(|&(_, v)| f64::from_bits(v) != 0.0)
                    .collect();
                let context = format!("n={n} round {round} ({target} touched)");
                match round % 4 {
                    0 => {
                        let mut seen = Vec::new();
                        ws.drain_sorted(|i, v| seen.push((i, v)));
                        assert_eq!(bits(seen), live, "{context}: drain_sorted");
                    }
                    1 => {
                        let mut out = SparseVec::unit(7, 7.0);
                        ws.drain_into(&mut out);
                        assert_eq!(bits(out.iter()), nonzero, "{context}: drain_into");
                    }
                    2 => {
                        let (mut indices, mut values) = (vec![u32::MAX], vec![9.0]);
                        ws.drain_append(&mut indices, &mut values);
                        assert_eq!((indices[0], values[0]), (u32::MAX, 9.0));
                        let appended = indices[1..].iter().copied().zip(values[1..].to_vec());
                        assert_eq!(bits(appended), nonzero, "{context}: drain_append");
                    }
                    _ => ws.reset(),
                }
                assert_fresh(&ws, &context);
            }
            if switch > 1 {
                assert!(sorts(switch - 1, n) && !sorts(switch, n));
                assert!(
                    paths[0] > 0 && paths[1] > 0,
                    "n={n}: drains sorted/scanned {paths:?}"
                );
            }
        }
    }
}
