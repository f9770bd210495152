//! Deterministic node-to-shard partitioning for the sharded serving tier.
//!
//! A [`PartitionMap`] assigns every node id an *owning shard* with a pure
//! function of `(node, num_shards)` — no table, no state, no I/O. Every
//! shard is a full replica, so ownership decides *where* a read runs, not
//! what it answers: the router sends `query` and `topk` for a source to the
//! source's owner, which keeps each replica's result cache warm for a
//! disjoint slice of the source space.
//!
//! The assignment is a Fibonacci multiply-shift hash of the node id reduced
//! modulo the shard count. Consecutive node ids therefore scatter across
//! shards (a range split would put every high-degree hub of a
//! preferential-attachment graph — the low ids — on shard 0), and the map
//! stays balanced within a fraction of a percent for any realistic `n`.
//!
//! Changing this function moves most sources to another replica, so every
//! cache in a deployed sharded tier starts cold after the upgrade. The unit
//! tests pin the exact assignment for a handful of ids so an accidental
//! change fails loudly.

use crate::NodeId;

/// The multiplicative constant of the Fibonacci hash: `2^64 / φ`, odd, with
/// well-mixed high bits (Knuth, TAOCP vol. 3 §6.4).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Returns the shard owning `node` in a `num_shards`-way partition.
///
/// Pure and total: every `(node, num_shards ≥ 1)` pair maps to a shard in
/// `0..num_shards`, identically in every process that links this crate.
#[inline]
pub fn shard_of(node: NodeId, num_shards: usize) -> usize {
    debug_assert!(num_shards >= 1, "a partition needs at least one shard");
    if num_shards <= 1 {
        return 0;
    }
    // Multiply-shift spreads the low-entropy id through the high bits; the
    // final modulo keeps the map total for any shard count (shard counts are
    // tiny, so the modulo bias over 32 hashed bits is negligible).
    let mixed = (node as u64).wrapping_mul(FIB) >> 32;
    (mixed % num_shards as u64) as usize
}

/// A deterministic `num_shards`-way node partition.
///
/// Thin, copyable wrapper around [`shard_of`] carrying the shard count, so
/// callers pass one value instead of threading a bare `usize` whose meaning
/// the type system cannot check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionMap {
    num_shards: usize,
}

impl PartitionMap {
    /// Creates a partition over `num_shards` shards.
    ///
    /// # Panics
    /// If `num_shards` is zero — an empty partition owns nothing and every
    /// caller would have to special-case it.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards >= 1, "a partition needs at least one shard");
        PartitionMap { num_shards }
    }

    /// Number of shards in the partition.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard owning `node`.
    #[inline]
    pub fn owner(&self, node: NodeId) -> usize {
        shard_of(node, self.num_shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_owns_everything() {
        let p = PartitionMap::new(1);
        for node in [0u32, 1, 17, 4_294_967_295] {
            assert_eq!(p.owner(node), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        PartitionMap::new(0);
    }

    #[test]
    fn every_node_lands_in_range_and_deterministically() {
        for shards in 1..=8 {
            let p = PartitionMap::new(shards);
            for node in 0..5_000u32 {
                let owner = p.owner(node);
                assert!(owner < shards);
                assert_eq!(owner, p.owner(node), "pure function of the id");
                assert_eq!(owner, shard_of(node, shards), "wrapper == free fn");
            }
        }
    }

    #[test]
    fn shards_stay_balanced() {
        let n = 100_000;
        for shards in [2usize, 3, 4, 7] {
            let p = PartitionMap::new(shards);
            let mut sizes = vec![0usize; shards];
            for node in 0..n as NodeId {
                sizes[p.owner(node)] += 1;
            }
            let ideal = n / shards;
            for (shard, &size) in sizes.iter().enumerate() {
                let skew = (size as f64 - ideal as f64).abs() / ideal as f64;
                assert!(
                    skew < 0.05,
                    "shard {shard}/{shards} holds {size} of {n} (skew {skew:.3})"
                );
            }
        }
    }

    #[test]
    fn consecutive_ids_scatter_across_shards() {
        // The hub guard: BA generators hand low ids the highest degrees, so
        // a contiguous split would concentrate them. The hash must not.
        let p = PartitionMap::new(4);
        let first_sixteen: Vec<usize> = (0..16u32).map(|v| p.owner(v)).collect();
        for shard in 0..4 {
            assert!(
                first_sixteen.contains(&shard),
                "shard {shard} owns none of the first 16 ids: {first_sixteen:?}"
            );
        }
    }

    #[test]
    fn assignment_is_pinned_as_a_wire_contract() {
        // Changing shard_of silently would desynchronize routers and shards
        // that were built from different revisions. Pin a sample.
        let p = PartitionMap::new(4);
        let assigned: Vec<usize> = (0..8u32).map(|v| p.owner(v)).collect();
        assert_eq!(assigned, vec![0, 1, 2, 0, 1, 3, 0, 2]);
    }
}
