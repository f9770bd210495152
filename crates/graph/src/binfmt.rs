//! A compact, versionless binary codec for a graph's in-rows.
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
//! offsets    u64 × (num_nodes + 1)   in-CSR offsets
//! targets    u32 × num_edges         in-CSR sources (sorted per target)
//! ```
//!
//! Only the in-orientation is stored: it is everything a SimRank query
//! reads, and the out-orientation is a pure function of it. The codec is one
//! pair of streaming functions: [`write_in_graph`] encodes (into a file, or
//! into a `Vec<u8>` for bytes in memory) and [`read_in_graph`] decodes (from
//! a file, or from a `&[u8]` with its length) straight into an [`InGraph`],
//! with no transpose at all. Where a caller wants the out-rows too,
//! [`crate::DiGraph::from_in_graph`] adds them with one
//! [`CsrAdjacency::transpose`], whose rows come out ascending with
//! duplicates kept, which is exactly the out-CSR every constructor of this
//! crate builds, so the original `DiGraph` is reproduced bit for bit.
//! Storing one orientation halves the on-disk size relative to storing
//! both, and a decode allocates the graph and nothing else.
//!
//! Until format version 3 of the store's files the payload held the
//! out-rows in this same shape, so an older reader would take these bytes
//! for the transposed graph; the store's version field, not this codec,
//! tells the two apart.
//!
//! Decoding never trusts the input: lengths, offset monotonicity, and target
//! ranges are all checked, and any violation is a typed
//! [`GraphError::Decode`] — never a panic or a structurally invalid graph.

use std::io::{Read, Write};

use crate::csr::CsrAdjacency;
use crate::error::GraphError;
use crate::ingraph::InGraph;
use crate::NodeId;

/// Streams the payload of `graph` into `out`, a few kilobytes at a time:
/// the encoding is never held whole, so a writer that goes to a file costs
/// its own buffer and nothing the size of the graph. The encoding is
/// deterministic: equal graphs produce equal bytes, [`encoded_len`] of them.
/// A [`crate::DiGraph`] writes the same bytes through
/// [`crate::DiGraph::in_graph`].
pub fn write_in_graph<W: Write>(graph: &InGraph, out: &mut W) -> std::io::Result<()> {
    let csr = graph.in_csr();
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
pub fn encoded_len(graph: &InGraph) -> usize {
    16 + 8 * (graph.num_nodes() + 1) + 4 * graph.num_edges()
}

/// Reads the payload's little-endian words from `input`, 8 KiB at a time.
struct Reader<R> {
    input: R,
    chunk: [u8; 8192],
    /// Unread bytes are `chunk[start..end]`.
    start: usize,
    end: usize,
    /// Bytes handed out so far, for error messages.
    offset: u64,
}

impl<R: Read> Reader<R> {
    fn word<const N: usize>(&mut self, what: &str) -> Result<[u8; N], GraphError> {
        if self.end - self.start < N {
            self.refill(N, what)?;
        }
        let word = self.chunk[self.start..self.start + N]
            .try_into()
            .expect("N bytes");
        self.start += N;
        self.offset += N as u64;
        Ok(word)
    }

    /// Moves the unread bytes to the front of the chunk and reads until at
    /// least `need` are buffered.
    fn refill(&mut self, need: usize, what: &str) -> Result<(), GraphError> {
        self.chunk.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        while self.end < need {
            match self.input.read(&mut self.chunk[self.end..]) {
                Ok(0) => {
                    return Err(GraphError::Decode(format!(
                        "truncated input: needed {need} bytes for {what} at offset {}, \
                         only {} remain",
                        self.offset, self.end
                    )))
                }
                Ok(read) => self.end += read,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(GraphError::Io(e)),
            }
        }
        Ok(())
    }

    fn u64(&mut self, what: &str) -> Result<u64, GraphError> {
        self.word(what).map(u64::from_le_bytes)
    }

    fn u32(&mut self, what: &str) -> Result<u32, GraphError> {
        self.word(what).map(u32::from_le_bytes)
    }
}

/// Reads the in-rows of a payload of exactly `len` bytes from `input`,
/// validating every structural invariant (see the module docs), a few
/// kilobytes at a time: a decode from a file holds its chunk and the graph,
/// never the encoding. The declared sizes must account for exactly `len`
/// bytes, which is checked before anything the size of the graph is
/// allocated, so a payload with trailing bytes or one cut short never
/// decodes (to decode a slice, pass `&mut &bytes[..]` and `bytes.len()`).
/// A read failure other than running out of input is [`GraphError::Io`];
/// everything else is [`GraphError::Decode`].
pub fn read_in_graph<R: Read>(input: &mut R, len: u64) -> Result<InGraph, GraphError> {
    let mut r = Reader {
        input,
        chunk: [0; 8192],
        start: 0,
        end: 0,
        offset: 0,
    };
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
    let remaining = len.saturating_sub(r.offset);
    if remaining != expected as u64 {
        return Err(GraphError::Decode(format!(
            "payload length mismatch: {remaining} bytes after header, expected {expected} \
             for {n} nodes / {m} edges"
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
    // Every in-row must be sorted (the encoder always writes them sorted;
    // anything else is corruption).
    for v in 0..n {
        let list = &targets[offsets[v]..offsets[v + 1]];
        if list.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::Decode(format!(
                "neighbor list of node {v} is not sorted"
            )));
        }
    }
    Ok(InGraph::from_in_csr(CsrAdjacency::from_raw_parts(
        offsets, targets,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::barabasi_albert;
    use crate::DiGraph;

    fn sample() -> DiGraph {
        DiGraph::from_edges(4, &[(0, 2), (1, 2), (2, 3), (3, 0)])
    }

    /// The payload of `graph`, written into memory.
    fn encode(graph: &DiGraph) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_in_graph(graph.in_graph(), &mut bytes).expect("writing into a Vec cannot fail");
        bytes
    }

    /// The in-rows of the whole of `bytes`.
    fn decode(bytes: &[u8]) -> Result<InGraph, GraphError> {
        read_in_graph(&mut &bytes[..], bytes.len() as u64)
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
            assert_eq!(bytes.len(), encoded_len(graph.in_graph()));
            let in_rows = decode(&bytes).unwrap();
            assert_eq!(&in_rows, graph.in_graph());
            // The out-rows follow from the in-rows, bit for bit.
            let decoded = DiGraph::from_in_graph(in_rows);
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
        let csr = graph.in_csr();
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
                write_in_graph(graph.in_graph(), &mut out).unwrap();
                assert_eq!(out.bytes, encoded, "limit {limit}");
            }
        }
    }

    /// A reader that hands out at most `limit` bytes per call, then fails
    /// once `fail_at` bytes are gone.
    struct Dribble<'a> {
        bytes: &'a [u8],
        limit: usize,
        fail_at: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.fail_at == 0 {
                return Err(std::io::Error::other("disk gone"));
            }
            let n = buf
                .len()
                .min(self.limit)
                .min(self.bytes.len())
                .min(self.fail_at);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            self.fail_at -= n;
            Ok(n)
        }
    }

    #[test]
    fn a_streamed_read_equals_the_decode_across_chunk_boundaries() {
        let graph = barabasi_albert(3_000, 3, true, 5).unwrap();
        let bytes = encode(&graph);
        for limit in [1, 7, 4096, usize::MAX] {
            let mut input = Dribble {
                bytes: &bytes,
                limit,
                fail_at: usize::MAX,
            };
            let read = read_in_graph(&mut input, bytes.len() as u64).unwrap();
            assert_eq!(&read, graph.in_graph(), "limit {limit}");
        }
        // A failing reader is an I/O error, running dry a decode error.
        let mut failing = Dribble {
            bytes: &bytes,
            limit: 4096,
            fail_at: bytes.len() / 2,
        };
        let err = read_in_graph(&mut failing, bytes.len() as u64).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "{err}");
        let mut short = &bytes[..bytes.len() - 1];
        let err = read_in_graph(&mut short, bytes.len() as u64).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = encode(&sample());
        for cut in [0, 7, 15, 16, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, GraphError::Decode(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&sample());
        bytes.push(0);
        assert!(matches!(decode(&bytes), Err(GraphError::Decode(_))));
    }

    #[test]
    fn out_of_range_target_is_rejected() {
        let mut bytes = encode(&sample());
        let last_target = bytes.len() - 4;
        bytes[last_target..].copy_from_slice(&99u32.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn non_monotonic_offsets_are_rejected() {
        let mut bytes = encode(&sample());
        // Offsets start at byte 16; corrupt the second one (index 1) to a
        // huge value so monotonicity breaks at index 2.
        bytes[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, GraphError::Decode(_)), "{err}");
    }

    #[test]
    fn unsorted_neighbor_list_is_rejected() {
        // {1, 2} -> 0: node 0's in-row, the last two targets, reversed.
        let g = DiGraph::from_edges(3, &[(1, 0), (2, 0)]);
        let mut bytes = encode(&g);
        let targets_start = bytes.len() - 8;
        bytes[targets_start..targets_start + 4].copy_from_slice(&2u32.to_le_bytes());
        bytes[targets_start + 4..].copy_from_slice(&1u32.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
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
        assert!(matches!(decode(&bytes), Err(GraphError::Decode(_))));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&(u64::MAX / 4).to_le_bytes());
        assert!(matches!(decode(&bytes), Err(GraphError::Decode(_))));
    }

    #[test]
    fn declared_size_mismatch_is_rejected() {
        let mut bytes = encode(&sample());
        // Claim one more edge than the payload carries.
        bytes[8..16].copy_from_slice(&5u64.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(GraphError::Decode(_))));
    }
}
