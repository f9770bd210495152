//! A compact, versionless binary codec for [`DiGraph`].
//!
//! This is the *payload* format used by the persistence layer
//! (`exactsim-store`): the store wraps these bytes in a versioned,
//! checksummed snapshot file, so the codec itself stays minimal — it
//! serializes exactly the information needed to reconstruct a graph
//! bit-identically and validates every structural invariant on decode.
//!
//! ## Layout (little-endian throughout)
//!
//! ```text
//! num_nodes  u64
//! num_edges  u64
//! offsets    u64 × (num_nodes + 1)   out-CSR offsets
//! targets    u32 × num_edges         out-CSR targets (sorted per source)
//! ```
//!
//! Only the out-orientation is stored: the in-orientation is a pure function
//! of it. Decoding rebuilds it with [`CsrAdjacency::transpose`], whose rows
//! come out ascending by source with duplicates kept, which is exactly the
//! in-CSR every constructor of this crate builds, so the original is
//! reproduced bit for bit. This halves the on-disk size relative to storing
//! both orientations, and a decode allocates the graph and nothing else.
//!
//! Decoding never trusts the input: lengths, offset monotonicity, and target
//! ranges are all checked, and any violation is a typed
//! [`GraphError::Decode`] — never a panic or a structurally invalid graph.

use std::io::Write;

use crate::csr::CsrAdjacency;
use crate::digraph::DiGraph;
use crate::error::GraphError;
use crate::NodeId;

/// Serializes `graph` into `out` (appending). See the module docs for the
/// layout. The encoding is deterministic: equal graphs produce equal bytes.
pub fn encode_digraph(graph: &DiGraph, out: &mut Vec<u8>) {
    out.reserve(encoded_len(graph));
    write_digraph(graph, out).expect("writing into a Vec cannot fail");
}

/// Streams the bytes [`encode_digraph`] would produce into `out`, a few
/// kilobytes at a time: the encoding is never held whole, so a writer that
/// goes to a file costs its own buffer and nothing the size of the graph.
pub fn write_digraph<W: Write>(graph: &DiGraph, out: &mut W) -> std::io::Result<()> {
    let csr = graph.out_csr();
    out.write_all(&(graph.num_nodes() as u64).to_le_bytes())?;
    out.write_all(&(graph.num_edges() as u64).to_le_bytes())?;
    write_words(out, csr.offsets().iter().map(|&o| (o as u64).to_le_bytes()))?;
    write_words(out, csr.targets().iter().map(|t| t.to_le_bytes()))
}

/// Writes `words` back to back, gathered into 8-KiB chunks.
fn write_words<W: Write, const N: usize>(
    out: &mut W,
    words: impl Iterator<Item = [u8; N]>,
) -> std::io::Result<()> {
    let mut chunk = [0u8; 8192];
    let mut len = 0;
    for word in words {
        chunk[len..len + N].copy_from_slice(&word);
        len += N;
        if len + N > chunk.len() {
            out.write_all(&chunk[..len])?;
            len = 0;
        }
    }
    out.write_all(&chunk[..len])
}

/// The exact encoded size of `graph` in bytes.
pub fn encoded_len(graph: &DiGraph) -> usize {
    16 + 8 * (graph.num_nodes() + 1) + 4 * graph.num_edges()
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], GraphError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(GraphError::Decode(format!(
                "truncated input: needed {n} bytes for {what} at offset {}, only {} remain",
                self.pos,
                self.bytes.len() - self.pos
            ))),
        }
    }

    fn u64(&mut self, what: &str) -> Result<u64, GraphError> {
        let bytes = self.take(8, what)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn u32(&mut self, what: &str) -> Result<u32, GraphError> {
        let bytes = self.take(4, what)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }
}

/// Decodes a graph previously written by [`encode_digraph`], validating
/// every structural invariant (see the module docs). The whole input must be
/// consumed: trailing bytes are an error, so a truncated or padded payload
/// can never decode successfully.
pub fn decode_digraph(bytes: &[u8]) -> Result<DiGraph, GraphError> {
    let mut r = Reader { bytes, pos: 0 };
    let num_nodes = r.u64("num_nodes")?;
    let num_edges = r.u64("num_edges")?;
    let n = usize::try_from(num_nodes)
        .map_err(|_| GraphError::Decode(format!("num_nodes {num_nodes} exceeds usize")))?;
    let m = usize::try_from(num_edges)
        .map_err(|_| GraphError::Decode(format!("num_edges {num_edges} exceeds usize")))?;
    // Cheap structural bound before allocating: the remaining byte count must
    // match the declared shape exactly.
    let expected = n
        .checked_add(1)
        .and_then(|n1| n1.checked_mul(8))
        .and_then(|o| m.checked_mul(4).and_then(|t| o.checked_add(t)))
        .ok_or_else(|| GraphError::Decode("declared sizes overflow".to_string()))?;
    if bytes.len() - r.pos != expected {
        return Err(GraphError::Decode(format!(
            "payload length mismatch: {} bytes after header, expected {expected} \
             for {n} nodes / {m} edges",
            bytes.len() - r.pos
        )));
    }
    let mut offsets = Vec::with_capacity(n + 1);
    for i in 0..=n {
        let offset = r.u64("offset")?;
        let offset = usize::try_from(offset)
            .map_err(|_| GraphError::Decode(format!("offset {offset} exceeds usize")))?;
        if let Some(&prev) = offsets.last() {
            if offset < prev {
                return Err(GraphError::Decode(format!(
                    "offsets not monotonic at index {i}: {offset} < {prev}"
                )));
            }
        } else if offset != 0 {
            return Err(GraphError::Decode(format!(
                "first offset must be 0, found {offset}"
            )));
        }
        offsets.push(offset);
    }
    if *offsets.last().expect("n + 1 offsets") != m {
        return Err(GraphError::Decode(format!(
            "final offset {} does not match num_edges {m}",
            offsets.last().expect("n + 1 offsets")
        )));
    }
    let mut targets: Vec<NodeId> = Vec::with_capacity(m);
    for _ in 0..m {
        let target = r.u32("target")?;
        if u64::from(target) >= num_nodes {
            return Err(GraphError::Decode(format!(
                "target {target} out of range for {num_nodes} nodes"
            )));
        }
        targets.push(target);
    }
    // Per-source neighbor lists must be sorted (the encoder always writes
    // them sorted; anything else is corruption).
    for v in 0..n {
        let list = &targets[offsets[v]..offsets[v + 1]];
        if list.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::Decode(format!(
                "neighbor list of node {v} is not sorted"
            )));
        }
    }
    // Every target is in range, so the transpose cannot panic; its rows are
    // the in-CSR the graph was originally built with.
    Ok(DiGraph::from_out_csr(CsrAdjacency::from_raw_parts(
        offsets, targets,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::barabasi_albert;

    fn sample() -> DiGraph {
        DiGraph::from_edges(4, &[(0, 2), (1, 2), (2, 3), (3, 0)])
    }

    fn encode(graph: &DiGraph) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_digraph(graph, &mut bytes);
        bytes
    }

    #[test]
    fn round_trip_is_bit_identical() {
        for graph in [
            sample(),
            DiGraph::from_edges(0, &[]),
            DiGraph::from_edges(7, &[]),
            barabasi_albert(200, 3, true, 42).unwrap(),
        ] {
            let bytes = encode(&graph);
            assert_eq!(bytes.len(), encoded_len(&graph));
            let decoded = decode_digraph(&bytes).unwrap();
            assert_eq!(decoded.out_csr(), graph.out_csr());
            assert_eq!(decoded.in_csr(), graph.in_csr());
            assert!(decoded.validate());
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let g = barabasi_albert(100, 2, true, 7).unwrap();
        assert_eq!(encode(&g), encode(&g.clone()));
    }

    /// A writer that accepts at most `limit` bytes per call, so `write_all`
    /// has to come back for the rest of every chunk.
    struct Trickle {
        bytes: Vec<u8>,
        limit: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.limit);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The layout of the module docs, one field at a time.
    fn reference_encoding(graph: &DiGraph) -> Vec<u8> {
        let csr = graph.out_csr();
        let mut out = Vec::new();
        out.extend_from_slice(&(graph.num_nodes() as u64).to_le_bytes());
        out.extend_from_slice(&(graph.num_edges() as u64).to_le_bytes());
        for &offset in csr.offsets() {
            out.extend_from_slice(&(offset as u64).to_le_bytes());
        }
        for &target in csr.targets() {
            out.extend_from_slice(&target.to_le_bytes());
        }
        out
    }

    #[test]
    fn streamed_bytes_equal_the_encoding_across_chunk_boundaries() {
        // 3,000 offsets and ~9,000 targets span several 8-KiB chunks of
        // each word size.
        for graph in [
            DiGraph::from_edges(0, &[]),
            sample(),
            barabasi_albert(3_000, 3, true, 5).unwrap(),
        ] {
            let encoded = reference_encoding(&graph);
            assert_eq!(encode(&graph), encoded);
            for limit in [1, 7, 4096, usize::MAX] {
                let mut out = Trickle {
                    bytes: Vec::new(),
                    limit,
                };
                write_digraph(&graph, &mut out).unwrap();
                assert_eq!(out.bytes, encoded, "limit {limit}");
            }
        }
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = encode(&sample());
        for cut in [0, 7, 15, 16, bytes.len() - 1] {
            let err = decode_digraph(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, GraphError::Decode(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&sample());
        bytes.push(0);
        assert!(matches!(decode_digraph(&bytes), Err(GraphError::Decode(_))));
    }

    #[test]
    fn out_of_range_target_is_rejected() {
        let mut bytes = encode(&sample());
        let last_target = bytes.len() - 4;
        bytes[last_target..].copy_from_slice(&99u32.to_le_bytes());
        let err = decode_digraph(&bytes).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn non_monotonic_offsets_are_rejected() {
        let mut bytes = encode(&sample());
        // Offsets start at byte 16; corrupt the second one (index 1) to a
        // huge value so monotonicity breaks at index 2.
        bytes[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_digraph(&bytes).unwrap_err();
        assert!(matches!(err, GraphError::Decode(_)), "{err}");
    }

    #[test]
    fn unsorted_neighbor_list_is_rejected() {
        // 0 -> {1, 2} encoded with the list reversed.
        let g = DiGraph::from_edges(3, &[(0, 1), (0, 2)]);
        let mut bytes = encode(&g);
        let targets_start = bytes.len() - 8;
        bytes[targets_start..targets_start + 4].copy_from_slice(&2u32.to_le_bytes());
        bytes[targets_start + 4..].copy_from_slice(&1u32.to_le_bytes());
        let err = decode_digraph(&bytes).unwrap_err();
        assert!(err.to_string().contains("not sorted"), "{err}");
    }

    #[test]
    fn huge_declared_sizes_are_rejected_without_panicking() {
        // A corrupt header declaring astronomically large counts must come
        // back as a typed Decode error — the size arithmetic is checked, so
        // this cannot panic even with debug overflow checks on.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // num_nodes
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // num_edges
        assert!(matches!(decode_digraph(&bytes), Err(GraphError::Decode(_))));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&(u64::MAX / 4).to_le_bytes());
        assert!(matches!(decode_digraph(&bytes), Err(GraphError::Decode(_))));
    }

    #[test]
    fn declared_size_mismatch_is_rejected() {
        let mut bytes = encode(&sample());
        // Claim one more edge than the payload carries.
        bytes[8..16].copy_from_slice(&5u64.to_le_bytes());
        assert!(matches!(decode_digraph(&bytes), Err(GraphError::Decode(_))));
    }
}
