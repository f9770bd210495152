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

/// A scatter runs wide when it makes at least this many adds per bitmap
/// word. A narrow add pays a first-touch branch and a touched-list push; a
/// wide add pays neither, but its drain must scan all `n/64` words. Timed
/// as scatter plus `drain_append` (2-vCPU VM, one pinned CPU) on random
/// inputs over uniform random digraphs (`n` from 10,000 to 1,000,000) and
/// on the walk distributions `P^t·e_q` (`t` ≤ 4, 300 sources) of the
/// IC@0.005 stand-in (580 words), the two modes cost the same at 1/8–1/4
/// adds per word. Above 1/4 wide is 20–45% faster; below 1/8 narrow wins,
/// because a handful of adds cannot pay for the ~1 µs scan of 580 words. A
/// switch at 1 sits inside wide's winning range, and the builds it leaves
/// narrow cost a few microseconds either way. At `n` = 1,000 (16 words)
/// the modes time the same.
const ADDS_PER_WIDE_WORD: usize = 1;

/// `true` iff a drain of `touched` entries over `words` bitmap words sorts
/// the touched list (rather than scanning the words).
fn drain_sorts(touched: usize, words: usize) -> bool {
    touched * WORDS_PER_SORTED_ENTRY < words
}

/// Reusable dense scratch space for the sparse kernels: the sparse
/// accumulator every Scratch-based kernel in this workspace builds on.
///
/// The sparse kernels accumulate into a dense `f64` buffer plus a bitmap of
/// live slots, one bit per node (the classic sparse-accumulator pattern),
/// so a sequence of sparse-matrix × sparse-vector products performs no
/// per-call allocation beyond the output vector.
///
/// **Invariant:** every slot outside the live set holds `+0.0`. `new`
/// zeroes the buffer, and every drain and [`Workspace::reset`] zeroes each
/// slot it visits, so no pass over all `n` slots is ever needed.
///
/// Two ways to add, chosen per scatter by
/// [`Workspace::scatters_wide`]:
/// - **Narrow** ([`Workspace::add`]): the first touch of a slot sets its
///   bit, *assigns* the value and pushes the index on a touched list; a
///   later touch adds. A value that cancels to exactly `0.0` stays live, so
///   it cannot enter the touched list twice.
/// - **Wide** (the `P·x` scatter of
///   [`crate::linalg::p_multiply_accumulate`] when it makes at least one
///   add per bitmap word, a timed constant): every add sets its bit and
///   adds to the slot, `+0.0` or not, with no branch and no touched list.
///   The drain then scans the bitmap.
///
/// The two modes give the same bits after a drain that drops exact zeros
/// ([`Workspace::drain_into`], [`Workspace::drain_append`],
/// [`Workspace::drain_bitmap`]): a slot
/// receives its adds in the same order, and `0.0 + v == v` for every `v`
/// but `−0.0`. The `P·x` scatter skips `x(j) == 0.0`, so a `−0.0` share
/// comes only from underflow; it can change only the sign of a slot that
/// stays zero, and those drains drop it either way.
///
/// Draining always visits the live indices in **ascending order** — that
/// is the determinism contract: float accumulations performed through a
/// workspace reduce in ascending-index order, exactly like the `BTreeMap`
/// accumulators these workspaces replaced, so results are bit-identical
/// between the two representations. A narrow drain of `t` entries gets
/// that order by sorting the touched list while `t` is small next to the
/// `n/64` bitmap words (`O(t log t)`); a wide drain, and a narrow one past
/// that point, scans the bitmap word by word and clears each word as it
/// goes (`O(n/64 + t)`, which is `O(t)` there). [`Workspace::drain_bitmap`]
/// always scans, and hands out the scanned words themselves, cleared of
/// exact zeros, in place of an index list: for a dense result, `n/64`
/// words take fewer bytes than 4 per entry.
#[derive(Clone, Debug)]
pub struct Workspace {
    accum: Vec<f64>,
    /// Bit `i % 64` of word `i / 64` is set iff slot `i` is live.
    live: Vec<u64>,
    /// The live slots, in first-touch order, while no wide add has run
    /// since the last drain/reset.
    touched: Vec<NodeId>,
    /// A wide add ran since the last drain/reset: `touched` is incomplete,
    /// and the next drain scans the bitmap.
    wide: bool,
}

impl Workspace {
    /// Creates a workspace for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        Workspace {
            accum: vec![0.0; n],
            live: vec![0; n.div_ceil(64)],
            touched: Vec::new(),
            wide: false,
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
        self.live
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum()
    }

    /// `true` iff a scatter of `adds` adds into this workspace runs wide:
    /// at least one per bitmap word (`ADDS_PER_WIDE_WORD`). The one place
    /// the mode is decided.
    pub fn scatters_wide(&self, adds: u64) -> bool {
        adds >= (ADDS_PER_WIDE_WORD * self.live.len()) as u64
    }

    /// Adds `v` into slot `i`. The first touch of a slot since the last
    /// drain/reset *assigns* (it does not read the slot).
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

    /// Adds `v` into every slot of `targets`, in order, the wide way: set
    /// the slot's bit and add, with no branch and no touched-list push.
    /// The next drain scans the bitmap.
    #[inline]
    pub(crate) fn add_wide(&mut self, targets: &[NodeId], v: f64) {
        self.wide = true;
        for &i in targets {
            let idx = i as usize;
            self.live[idx / 64] |= 1u64 << (idx % 64);
            self.accum[idx] += v;
        }
    }

    /// Current value of slot `i` (`0.0` if untouched since the last
    /// drain/reset).
    pub fn value(&self, i: NodeId) -> f64 {
        self.accum[i as usize]
    }

    /// Discards any accumulated entries.
    pub fn reset(&mut self) {
        self.drain_sorted(|_, _| {});
    }

    /// Visits every live `(index, value)` pair in ascending index order —
    /// including entries that cancelled to `0.0` — then resets the workspace.
    /// This is the primitive the deterministic kernels reduce through.
    pub fn drain_sorted(&mut self, mut f: impl FnMut(NodeId, f64)) {
        let Workspace {
            accum,
            live,
            touched,
            wide,
        } = self;
        if !*wide && drain_sorts(touched.len(), live.len()) {
            touched.sort_unstable();
            for &i in touched.iter() {
                live[i as usize / 64] = 0;
                f(i, std::mem::take(&mut accum[i as usize]));
            }
        } else {
            for (w, word) in live.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let idx = w * 64 + bits.trailing_zeros() as usize;
                    f(idx as NodeId, std::mem::take(&mut accum[idx]));
                    bits &= bits - 1;
                }
            }
        }
        touched.clear();
        *wide = false;
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

    /// Appends the accumulated entries as a bitmap plus values, and resets
    /// the workspace: one word per 64 slots goes to `words` (`n/64` of
    /// them, bit `i % 64` of the `i / 64`-th set iff slot `i` is an entry),
    /// and the entries' values go to `values` in ascending index order.
    /// Like [`Workspace::drain_append`], entries that cancelled to exactly
    /// 0.0 are left out (their bit is cleared), so the set bits read in
    /// ascending order with `values` give `drain_append`'s pairs, bit for
    /// bit. The words are the workspace's live bitmap, taken as the drain
    /// scans it.
    pub fn drain_bitmap(&mut self, words: &mut Vec<u64>, values: &mut Vec<f64>) {
        let Workspace {
            accum,
            live,
            touched,
            wide,
        } = self;
        words.extend(live.iter_mut().enumerate().map(|(w, word)| {
            let mut kept = std::mem::take(word);
            let mut bits = kept;
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                let v = std::mem::take(&mut accum[w * 64 + bit.trailing_zeros() as usize]);
                if v != 0.0 {
                    values.push(v);
                } else {
                    kept ^= bit;
                }
                bits ^= bit;
            }
            kept
        }));
        touched.clear();
        *wide = false;
    }

    /// Drains the accumulated entries into a freshly allocated sorted
    /// [`SparseVec`] and resets the workspace for reuse.
    pub(super) fn drain_sparse(&mut self) -> SparseVec {
        let mut out = SparseVec::with_capacity(self.num_touched());
        self.drain_into(&mut out);
        out
    }
}

/// The `(index, value)` pairs a bitmap plus values holds, read bit by bit
/// (the reference the bitmap drain's tests decode with): the k-th set bit,
/// in ascending order, with the k-th value.
#[cfg(test)]
pub(crate) fn bitmap_pairs(words: &[u64], values: &[f64]) -> Vec<(NodeId, f64)> {
    let mut values = values.iter();
    let mut pairs = Vec::new();
    for (w, &word) in words.iter().enumerate() {
        for bit in 0..64 {
            if word >> bit & 1 == 1 {
                let v = values.next().expect("a value for every set bit");
                pairs.push(((w * 64 + bit) as NodeId, *v));
            }
        }
    }
    assert!(values.next().is_none(), "a set bit for every value");
    pairs
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
    /// first narrow add to a slot assigns and later ones accumulate, in
    /// both; a wide add accumulates onto the slot's `+0.0`.
    fn add_both(
        ws: &mut Workspace,
        map: &mut BTreeMap<NodeId, f64>,
        i: NodeId,
        v: f64,
        wide: bool,
    ) {
        if wide {
            ws.add_wide(&[i], v);
        } else {
            ws.add(i, v);
        }
        let first = if wide { 0.0 + v } else { v };
        map.entry(i).and_modify(|acc| *acc += v).or_insert(first);
    }

    fn assert_fresh(ws: &Workspace, context: &str) {
        assert!(ws.touched.is_empty(), "{context}: touched list not emptied");
        assert!(!ws.wide, "{context}: wide mode not cleared");
        assert_eq!(ws.num_touched(), 0, "{context}: bitmap not cleared");
        for (i, v) in ws.accum.iter().enumerate() {
            assert_eq!(v.to_bits(), 0, "{context}: slot {i} holds {v}, not +0.0");
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
            // Drains that sorted, scanned after narrow adds only, and
            // scanned after wide adds.
            let mut paths = [0usize; 3];
            // Each size meets each of the five ways of draining twice: once
            // after narrow adds, once after wide adds mixed with narrow ones.
            const DRAINS: usize = 5;
            for round in 0..2 * DRAINS * sizes.len() {
                let target = sizes[round / (2 * DRAINS)].clamp(1, n);
                let wide = round / DRAINS % 2 == 1;
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
                    // Zeros of both signs, negations that cancel a slot to
                    // exactly 0.0, subnormals, and plain values.
                    let v = match rng.gen_range(0u32..10) {
                        0 => -0.0,
                        1 => 0.0,
                        2 => -map.get(&i).copied().unwrap_or(1.0),
                        3 => {
                            f64::from_bits(rng.gen_range(1..4))
                                * if rng.gen_bool(0.5) { -1.0 } else { 1.0 }
                        }
                        _ => rng.gen_range(-2.0..2.0),
                    };
                    add_both(&mut ws, &mut map, i, v, wide && k % 3 != 2);
                }
                assert_eq!(ws.num_touched(), target, "n={n} round {round}");
                for i in 0..n as NodeId {
                    let want = map.get(&i).copied().unwrap_or(0.0);
                    assert_eq!(ws.value(i).to_bits(), want.to_bits(), "n={n} slot {i}");
                }
                let path = if wide {
                    2
                } else {
                    usize::from(!sorts(target, n))
                };
                // The bitmap drain always scans.
                if round % DRAINS != 3 {
                    paths[path] += 1;
                }
                let live = bits(map.iter().map(|(&i, &v)| (i, v)));
                let nonzero: Vec<_> = live
                    .iter()
                    .copied()
                    .filter(|&(_, v)| f64::from_bits(v) != 0.0)
                    .collect();
                let context = format!("n={n} round {round} ({target} touched)");
                match round % DRAINS {
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
                    3 => {
                        let (mut words, mut values) = (vec![u64::MAX], vec![9.0]);
                        ws.drain_bitmap(&mut words, &mut values);
                        assert_eq!((words[0], values[0]), (u64::MAX, 9.0));
                        assert_eq!(
                            words.len(),
                            1 + n.div_ceil(64),
                            "{context}: one word per 64 slots"
                        );
                        let pairs = bitmap_pairs(&words[1..], &values[1..]);
                        assert_eq!(bits(pairs), nonzero, "{context}: drain_bitmap");
                    }
                    _ => ws.reset(),
                }
                assert_fresh(&ws, &context);
            }
            assert!(
                paths[1] > 0 && paths[2] > 0,
                "n={n}: drains sorted/scanned/wide {paths:?}"
            );
            if switch > 1 {
                assert!(sorts(switch - 1, n) && !sorts(switch, n));
                assert!(paths[0] > 0, "n={n}: drains sorted/scanned/wide {paths:?}");
            }
        }
    }
}
