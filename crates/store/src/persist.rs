//! Durable snapshots and the delta write-ahead log (WAL).
//!
//! A durable [`crate::GraphStore`] keeps its state in one data directory:
//!
//! ```text
//! <data-dir>/
//!   snapshot-<epoch>.snap   full graph image at <epoch> (the newest wins)
//!   wal.log                 edge deltas committed after that snapshot
//! ```
//!
//! ## Snapshot file format (version 3, little-endian)
//!
//! ```text
//! magic        "ESSN"                       4 bytes
//! version      u32                          4 bytes
//! epoch        u64                          8 bytes
//! payload_len  u64                          8 bytes
//! payload      exactsim_graph::binfmt bytes payload_len bytes
//! crc32        u32 over everything above    4 bytes
//! ```
//!
//! The payload is the graph's in-rows ([`exactsim_graph::InGraph`]: `n`,
//! `m`, in-CSR offsets, in-CSR sources), which is what the store serves, so
//! recovery decodes it with no transpose. Version 2 stored the out-rows in
//! the same shape, so the bump to 3 is mandatory: without it an older build
//! would accept a new file and serve the transposed graph, and a new build
//! an old one. Files of another version are refused with
//! [`StoreError::UnsupportedVersion`].
//!
//! Snapshots are written to a `*.tmp` file, fsynced, then atomically renamed
//! into place (and the directory fsynced), so a crash mid-write never leaves
//! a half-visible snapshot — only an ignored temp file. The write streams:
//! header and payload pass through a 64-KiB buffer
//! ([`exactsim_graph::binfmt::write_in_graph`] encodes a few kilobytes at a
//! time) while a running CRC32 follows every byte, and the checksum goes
//! last. A snapshot write therefore allocates its buffer, not the ~4 bytes
//! per edge of the whole encoding, and its bytes equal those of the encoding
//! built whole. The read streams the same way ([`read_snapshot`]), so a
//! recovery holds the graph it decodes and not the file too.
//!
//! ## WAL format (version 3, little-endian)
//!
//! An 8-byte file header (`"ESWL"` + `u32` version) followed by
//! length-prefixed, checksummed records:
//!
//! ```text
//! payload_len  u32
//! crc32        u32 over the payload
//! payload:
//!   epoch      u64      the epoch this commit published
//!   added      u64      nodes appended to the id space by this commit
//!   n_ins      u32
//!   n_del      u32
//!   insertions (u32, u32) × n_ins   sorted by (source, target)
//!   deletions  (u32, u32) × n_del   sorted by (source, target)
//! ```
//!
//! (Version 2 added the `added` field for `addnode` id-space growth; replay
//! grows the graph *before* applying the edge delta, so insertions may
//! reference the new ids. Version 3 changed the snapshot payload only; the
//! WAL shares the version number, so a directory is one version throughout.)
//!
//! A commit appends its record and fsyncs *before* the new epoch is
//! published — the WAL is the durability point.
//!
//! ## Recovery protocol
//!
//! 1. Load the newest snapshot that validates (magic, version, length,
//!    checksum, payload decode). No snapshot at all is [`StoreError::NoSnapshot`];
//!    a directory whose every snapshot is corrupt reports the newest one's error.
//! 2. Scan the WAL. An *incomplete* final record (fewer bytes than its
//!    header declares, or a half-written header) is a **torn tail** — the
//!    expected residue of a crash mid-append; it is truncated away and
//!    recovery proceeds. A record that is fully present but fails its
//!    checksum or is structurally invalid is **corruption** and recovery
//!    refuses with a typed [`StoreError::WalCorrupt`] — never a silent
//!    partial load.
//! 3. Check the records newer than the snapshot epoch in order; the first
//!    that fails is refused as [`StoreError::WalCorrupt`]. Each must
//!    publish exactly `epoch + 1`; its `added` growth may not take the node
//!    count past `u32::MAX` (the bound `addnode` staging enforces, so a
//!    larger count is damage that survived the checksum); and its endpoints
//!    must lie below the node count at that record. Records at or below the
//!    snapshot epoch are skipped (they are the residue of a crash between
//!    writing a compaction snapshot and truncating the WAL). The checked
//!    records are then applied in one pass: one
//!    [`InGraph::apply_deltas_into`] appends their summed `added` nodes and
//!    merges every delta in record order. Growth only appends isolated
//!    nodes, so growing first commutes with every delta, and a restart costs
//!    one copy of the graph rather than one per record (or two per
//!    `addnode` record).
//!
//! ## Compaction
//!
//! [`crate::GraphStore::save`] folds the WAL into a fresh snapshot: write
//! `snapshot-<current-epoch>.snap`, truncate the WAL to its header, delete
//! older snapshot files (best-effort). Crash windows are safe: a snapshot
//! without the truncate merely leaves stale records that replay as no-ops
//! (step 3 above).

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use exactsim_graph::binfmt::{encoded_len, read_in_graph, write_in_graph};
use exactsim_graph::{EdgeDelta, GraphError, InGraph, NodeId};
use exactsim_obs::fault;

use crate::error::StoreError;

/// The on-disk format version this build writes and reads. Version 2 added
/// the `added_nodes` field to WAL records (`addnode` growth); version 3 made
/// the snapshot payload the in-rows instead of the out-rows, in the same
/// shape (see the module docs). Files of any other version are refused with
/// a typed [`StoreError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 3;

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"ESSN";

/// WAL file magic.
pub const WAL_MAGIC: &[u8; 4] = b"ESWL";

/// WAL file header length: magic + version.
const WAL_HEADER_LEN: u64 = 8;

/// Snapshot header length: magic + version + epoch + payload_len.
const SNAPSHOT_HEADER_LEN: usize = 24;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial) — implemented locally; the offline build has
// no checksum crate.
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC32_TABLES[0]` is the byte-wise table, and
/// `CRC32_TABLES[k][b]` is the CRC state of byte `b` followed by `k` zero
/// bytes, so eight bytes fold into the state with eight lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// A running CRC32 (IEEE): feeding the bytes in any number of
/// [`Crc32::update`] calls gives the [`crc32`] of their concatenation.
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// The CRC of no bytes yet.
    pub(crate) fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running CRC, eight bytes per step (any
    /// alignment) and the last `len % 8` one at a time.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut c = self.state;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let lo = c ^ u32::from_le_bytes(word[..4].try_into().expect("4 bytes"));
            let hi = u32::from_le_bytes(word[4..].try_into().expect("4 bytes"));
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The CRC32 of every byte fed so far.
    pub(crate) fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// A reader that folds every byte it hands out into a running [`Crc32`].
struct CrcReader<R> {
    inner: R,
    crc: Crc32,
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let read = self.inner.read(buf)?;
        self.crc.update(&buf[..read]);
        Ok(read)
    }
}

/// A writer that passes every byte on to `inner` and folds the bytes
/// `inner` accepted into a running [`Crc32`].
struct CrcWriter<W> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let written = self.inner.write(buf)?;
        self.crc.update(&buf[..written]);
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------------

/// The file name of the snapshot holding `epoch`.
pub fn snapshot_file_name(epoch: u64) -> String {
    format!("snapshot-{epoch}.snap")
}

fn parse_snapshot_epoch(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// Lists the `(epoch, path)` of every snapshot file in `dir`, newest epoch
/// first. Files that do not match the naming scheme are ignored.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io(dir, "read_dir", e))?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(dir, "read_dir", e))?;
        if let Some(epoch) = entry.file_name().to_str().and_then(parse_snapshot_epoch) {
            found.push((epoch, entry.path()));
        }
    }
    found.sort_unstable_by_key(|&(epoch, _)| std::cmp::Reverse(epoch));
    Ok(found)
}

fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    // Persist the rename itself. Directory fsync is POSIX-specific; opening
    // a directory read-only and syncing works on the platforms we target.
    if let Ok(handle) = File::open(dir) {
        handle
            .sync_all()
            .map_err(|e| StoreError::io(dir, "sync", e))?;
    }
    Ok(())
}

/// Atomically writes `graph` as the snapshot of `epoch` into `dir` and
/// returns the final path. The bytes stream to the file through a 64-KiB
/// buffer while a running CRC follows them, so a snapshot write holds no
/// copy of the graph's encoding.
pub fn write_snapshot(dir: &Path, graph: &InGraph, epoch: u64) -> Result<PathBuf, StoreError> {
    let final_path = dir.join(snapshot_file_name(epoch));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(epoch)));
    if fault::check(fault::sites::SNAPSHOT_WRITE).is_some() {
        return Err(StoreError::io(
            &tmp_path,
            "create",
            fault::injected_io_error(fault::sites::SNAPSHOT_WRITE),
        ));
    }
    let file = File::create(&tmp_path).map_err(|e| StoreError::io(&tmp_path, "create", e))?;
    let file =
        stream_snapshot(file, graph, epoch).map_err(|e| StoreError::io(&tmp_path, "write", e))?;
    file.sync_all()
        .map_err(|e| StoreError::io(&tmp_path, "sync", e))?;
    drop(file);
    std::fs::rename(&tmp_path, &final_path)
        .map_err(|e| StoreError::io(&final_path, "rename", e))?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// Bytes a snapshot write buffers before they go to the file, and a read
/// after they come from it.
const SNAPSHOT_IO_BUFFER: usize = 64 << 10;

/// Writes the snapshot file of `graph` at `epoch` into `file` (header,
/// payload, then the CRC of both) and hands the file back unsynced.
fn stream_snapshot(file: File, graph: &InGraph, epoch: u64) -> std::io::Result<File> {
    let crc = CrcWriter {
        inner: file,
        crc: Crc32::new(),
    };
    let mut out = BufWriter::with_capacity(SNAPSHOT_IO_BUFFER, crc);
    out.write_all(SNAPSHOT_MAGIC)?;
    out.write_all(&FORMAT_VERSION.to_le_bytes())?;
    out.write_all(&epoch.to_le_bytes())?;
    out.write_all(&(encoded_len(graph) as u64).to_le_bytes())?;
    write_in_graph(graph, &mut out)?;
    // Flushed, every byte above has passed through the CRC.
    out.flush()?;
    let checksum = out.get_ref().crc.finish();
    let mut file = out.into_inner().map_err(|e| e.into_error())?.inner;
    file.write_all(&checksum.to_le_bytes())?;
    Ok(file)
}

fn corrupt(path: &Path, detail: impl Into<String>) -> StoreError {
    StoreError::SnapshotCorrupt {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// Reads and fully validates one snapshot file, returning its graph's
/// in-rows and epoch. Every validation failure is a typed error (see
/// [`StoreError`]).
///
/// The read streams, like the write: the payload is decoded from a 64-KiB
/// buffer ([`exactsim_graph::binfmt::read_in_graph`]) while a running CRC
/// follows every byte, so recovery holds the graph it decodes and not the
/// file as well. The checksum is still checked first: a decode that fails
/// part-way reads the rest of the body into the CRC before its error is
/// reported, so damage reads as a checksum mismatch.
pub fn read_snapshot(path: &Path) -> Result<(InGraph, u64), StoreError> {
    let io = |e| StoreError::io(path, "read", e);
    let file = File::open(path).map_err(io)?;
    let file_len = file.metadata().map_err(io)?.len();
    if file_len < (SNAPSHOT_HEADER_LEN + 4) as u64 {
        return Err(corrupt(
            path,
            format!("file too short ({file_len} bytes) to hold a snapshot header"),
        ));
    }
    let mut input = BufReader::with_capacity(SNAPSHOT_IO_BUFFER, file);
    let mut header = [0u8; SNAPSHOT_HEADER_LEN];
    input.read_exact(&mut header).map_err(io)?;
    if &header[0..4] != SNAPSHOT_MAGIC {
        return Err(corrupt(path, "bad magic (not a snapshot file)"));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let epoch = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let payload_len = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    let expected_total = (SNAPSHOT_HEADER_LEN as u64)
        .checked_add(payload_len)
        .and_then(|t| t.checked_add(4));
    if expected_total != Some(file_len) {
        return Err(corrupt(
            path,
            format!("declared payload of {payload_len} bytes does not match file size {file_len}"),
        ));
    }
    let mut crc = Crc32::new();
    crc.update(&header);
    let mut body = CrcReader {
        inner: input.take(payload_len),
        crc,
    };
    let decoded = read_in_graph(&mut body, payload_len);
    std::io::copy(&mut body, &mut std::io::sink()).map_err(io)?;
    let computed = body.crc.finish();
    let mut stored = [0u8; 4];
    body.inner
        .into_inner()
        .read_exact(&mut stored)
        .map_err(io)?;
    let stored = u32::from_le_bytes(stored);
    if stored != computed {
        return Err(corrupt(
            path,
            format!("checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"),
        ));
    }
    let graph = decoded.map_err(|e| match e {
        GraphError::Io(e) => io(e),
        e => corrupt(path, format!("payload decode failed: {e}")),
    })?;
    Ok((graph, epoch))
}

// ---------------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------------

/// One committed edge delta, as stored in the WAL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// The epoch this commit published.
    pub epoch: u64,
    /// Nodes appended to the id space by this commit (applied before the
    /// edge delta on replay).
    pub added_nodes: u64,
    /// Sorted, duplicate-free edge insertions.
    pub insertions: Vec<(NodeId, NodeId)>,
    /// Sorted, duplicate-free edge deletions.
    pub deletions: Vec<(NodeId, NodeId)>,
}

impl WalRecord {
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + 8 * (self.insertions.len() + self.deletions.len()));
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.added_nodes.to_le_bytes());
        out.extend_from_slice(&(self.insertions.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.deletions.len() as u32).to_le_bytes());
        for &(u, v) in self.insertions.iter().chain(&self.deletions) {
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn decode_payload(payload: &[u8]) -> Result<WalRecord, String> {
        if payload.len() < 24 {
            return Err(format!("payload of {} bytes is too short", payload.len()));
        }
        let epoch = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
        let added_nodes = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
        let n_ins = u32::from_le_bytes(payload[16..20].try_into().expect("4 bytes")) as usize;
        let n_del = u32::from_le_bytes(payload[20..24].try_into().expect("4 bytes")) as usize;
        let expected = 24 + 8 * (n_ins + n_del);
        if payload.len() != expected {
            return Err(format!(
                "payload length {} does not match declared {n_ins} insertions + {n_del} deletions",
                payload.len()
            ));
        }
        let read_pairs = |lo: usize, count: usize| -> Vec<(NodeId, NodeId)> {
            (0..count)
                .map(|i| {
                    let at = lo + 8 * i;
                    (
                        u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes")),
                        u32::from_le_bytes(payload[at + 4..at + 8].try_into().expect("4 bytes")),
                    )
                })
                .collect()
        };
        let insertions = read_pairs(24, n_ins);
        let deletions = read_pairs(24 + 8 * n_ins, n_del);
        for (name, list) in [("insertions", &insertions), ("deletions", &deletions)] {
            if list.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("{name} are not strictly sorted"));
            }
        }
        Ok(WalRecord {
            epoch,
            added_nodes,
            insertions,
            deletions,
        })
    }
}

/// `true` iff a complete record frame (length + matching CRC + decodable
/// payload) starts at any byte offset `>= from`. Used to tell a torn tail
/// (nothing valid follows) from a corrupted length field (durable records
/// follow). A false positive needs random bytes to pass both a CRC32 and
/// structural decode — ~2⁻³² per offset; WALs here are small (compaction
/// bounds them), so the quadratic worst case is irrelevant.
fn contains_valid_frame_after(bytes: &[u8], from: usize) -> bool {
    let end = bytes.len();
    for start in from..end.saturating_sub(7) {
        let len = u32::from_le_bytes(bytes[start..start + 4].try_into().expect("4 bytes")) as usize;
        let Some(payload_end) = start.checked_add(8).and_then(|s| s.checked_add(len)) else {
            continue;
        };
        if payload_end > end {
            continue;
        }
        let stored = u32::from_le_bytes(bytes[start + 4..start + 8].try_into().expect("4 bytes"));
        let payload = &bytes[start + 8..payload_end];
        if crc32(payload) == stored && WalRecord::decode_payload(payload).is_ok() {
            return true;
        }
    }
    false
}

/// The result of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// Every fully-valid record, in file order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix. Shorter than the file iff a torn
    /// tail was found; recovery truncates the file to this length.
    pub valid_len: u64,
    /// `true` iff a torn (incomplete) final record was skipped.
    pub torn_tail: bool,
}

/// Scans a WAL file: validates the header, decodes every record, detects
/// torn tails (returned for truncation, not an error) and rejects corrupt
/// records (a typed [`StoreError::WalCorrupt`]).
pub fn scan_wal(path: &Path) -> Result<WalScan, StoreError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| StoreError::io(path, "read", e))?;
    if bytes.len() < WAL_HEADER_LEN as usize {
        // A WAL so short it lacks even the header can only be the residue of
        // a crash during creation; treat the whole file as a torn tail.
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
            torn_tail: !bytes.is_empty(),
        });
    }
    if &bytes[0..4] != WAL_MAGIC {
        return Err(StoreError::WalCorrupt {
            path: path.to_path_buf(),
            offset: 0,
            detail: "bad magic (not a WAL file)".to_string(),
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    loop {
        if pos == bytes.len() {
            return Ok(WalScan {
                records,
                valid_len: pos as u64,
                torn_tail: false,
            });
        }
        if bytes.len() - pos < 8 {
            // Half-written record header.
            return Ok(WalScan {
                records,
                valid_len: pos as u64,
                torn_tail: true,
            });
        }
        let payload_len =
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if bytes.len() - pos - 8 < payload_len {
            // The declared payload overruns the file. Two ways that happens:
            // a crash mid-append (torn tail: these are the last bytes ever
            // written, nothing but this partial record follows) — or a
            // corrupted length field on a record that is NOT last, in which
            // case the durably-written records after it are still in the
            // file. Truncating the latter would silently destroy committed
            // epochs, so resync: if any complete checksum-valid record
            // frame exists later in the file, this is corruption.
            if contains_valid_frame_after(&bytes, pos + 1) {
                return Err(StoreError::WalCorrupt {
                    path: path.to_path_buf(),
                    offset: pos as u64,
                    detail: format!(
                        "declared payload of {payload_len} bytes overruns the file, but \
                         valid records follow (corrupted length field, not a torn tail)"
                    ),
                });
            }
            return Ok(WalScan {
                records,
                valid_len: pos as u64,
                torn_tail: true,
            });
        }
        let payload = &bytes[pos + 8..pos + 8 + payload_len];
        let computed = crc32(payload);
        if stored_crc != computed {
            return Err(StoreError::WalCorrupt {
                path: path.to_path_buf(),
                offset: pos as u64,
                detail: format!(
                    "checksum mismatch (stored {stored_crc:#010x}, computed {computed:#010x})"
                ),
            });
        }
        let record =
            WalRecord::decode_payload(payload).map_err(|detail| StoreError::WalCorrupt {
                path: path.to_path_buf(),
                offset: pos as u64,
                detail,
            })?;
        if let Some(prev) = records.last() {
            let prev: &WalRecord = prev;
            if record.epoch <= prev.epoch {
                return Err(StoreError::WalCorrupt {
                    path: path.to_path_buf(),
                    offset: pos as u64,
                    detail: format!(
                        "epochs not increasing: {} after {}",
                        record.epoch, prev.epoch
                    ),
                });
            }
        }
        records.push(record);
        pos += 8 + payload_len;
    }
}

// ---------------------------------------------------------------------------
// The durable log handle owned by a GraphStore
// ---------------------------------------------------------------------------

/// A point-in-time description of a store's durable state, surfaced through
/// service stats so operators can see durability without shelling into the
/// box.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurabilityInfo {
    /// The store's data directory.
    pub data_dir: PathBuf,
    /// Number of delta records currently in the WAL.
    pub wal_records: u64,
    /// Epoch of the newest on-disk snapshot file.
    pub last_snapshot_epoch: u64,
}

/// The open WAL + snapshot bookkeeping of a durable store. Owned behind the
/// store's commit lock, so appends and compactions are serialized.
pub(crate) struct DurableLog {
    dir: PathBuf,
    wal_path: PathBuf,
    wal: File,
    wal_records: u64,
    last_snapshot_epoch: u64,
    /// Fold the WAL into a fresh snapshot once it holds this many records
    /// (`0` disables auto-compaction).
    compact_every: u64,
}

impl DurableLog {
    /// Initializes a fresh data directory: snapshot of `graph` at `epoch`,
    /// empty WAL. Refuses directories that already hold a store.
    pub(crate) fn create(dir: &Path, graph: &InGraph, epoch: u64) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, "create_dir", e))?;
        let wal_path = dir.join("wal.log");
        if wal_path.exists() || !list_snapshots(dir)?.is_empty() {
            return Err(StoreError::StoreExists {
                dir: dir.to_path_buf(),
            });
        }
        write_snapshot(dir, graph, epoch)?;
        let wal = create_wal(&wal_path)?;
        lock_exclusive(&wal, dir, &wal_path)?;
        sync_dir(dir)?;
        Ok(DurableLog {
            dir: dir.to_path_buf(),
            wal_path,
            wal,
            wal_records: 0,
            last_snapshot_epoch: epoch,
            compact_every: crate::store::DEFAULT_COMPACT_EVERY,
        })
    }

    /// Recovers a data directory: newest valid snapshot + WAL replay.
    /// Returns the recovered graph and epoch alongside the open log.
    pub(crate) fn open(dir: &Path) -> Result<(InGraph, u64, Self), StoreError> {
        let snapshots = list_snapshots(dir)?;
        if snapshots.is_empty() {
            return Err(StoreError::NoSnapshot {
                dir: dir.to_path_buf(),
            });
        }
        // Newest-first: fall back across corrupt snapshot files. The
        // fallback is provisional — the newest snapshot's *filename* epoch
        // proves that epoch was durably committed, so recovery from an older
        // snapshot is only accepted if WAL replay re-reaches it (the
        // compaction crash window, where the WAL still holds everything).
        // Anything less would silently roll back committed epochs; in that
        // case the newest snapshot's own error is the honest answer.
        let newest_named_epoch = snapshots[0].0;
        let mut first_error: Option<StoreError> = None;
        let mut loaded = None;
        for (_, path) in &snapshots {
            match read_snapshot(path) {
                Ok(ok) => {
                    loaded = Some(ok);
                    break;
                }
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        let (mut graph, snapshot_epoch) = match loaded {
            Some(ok) => ok,
            None => return Err(first_error.expect("at least one snapshot failed")),
        };

        let wal_path = dir.join("wal.log");
        if !wal_path.exists() {
            drop(create_wal(&wal_path)?);
        }
        // Take the single-writer lock *before* scanning or repairing: two
        // processes appending to one WAL would interleave epochs and make
        // it unrecoverable.
        let mut wal = OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .map_err(|e| StoreError::io(&wal_path, "open", e))?;
        lock_exclusive(&wal, dir, &wal_path)?;
        let scan = scan_wal(&wal_path)?;
        if scan.torn_tail || scan.valid_len < WAL_HEADER_LEN {
            wal.set_len(scan.valid_len)
                .map_err(|e| StoreError::io(&wal_path, "truncate", e))?;
            if scan.valid_len < WAL_HEADER_LEN {
                // The torn tail swallowed even the header: rewrite it.
                wal.set_len(0)
                    .map_err(|e| StoreError::io(&wal_path, "truncate", e))?;
                wal.write_all(WAL_MAGIC)
                    .map_err(|e| StoreError::io(&wal_path, "write", e))?;
                wal.write_all(&FORMAT_VERSION.to_le_bytes())
                    .map_err(|e| StoreError::io(&wal_path, "write", e))?;
            }
            wal.sync_all()
                .map_err(|e| StoreError::io(&wal_path, "sync", e))?;
        }
        let wal_records = scan.records.len() as u64;
        let records = scan.records;

        // Every record is checked in order before anything is applied; the
        // replayed deltas are then merged into the snapshot in one pass.
        let mut epoch = snapshot_epoch;
        let mut n = graph.num_nodes() as u64; // the node count at this record
        let mut deltas: Vec<EdgeDelta> = Vec::new();
        for record in &records {
            if record.epoch <= snapshot_epoch {
                // Residue of a crash between compaction's snapshot write and
                // its WAL truncate: already folded into the snapshot.
                continue;
            }
            if record.epoch != epoch + 1 {
                // With a snapshot fallback in play the gap's root cause is
                // the unreadable newer snapshot, not the WAL — report that.
                if let Some(e) = &first_error {
                    return Err(e.clone());
                }
                return Err(StoreError::WalCorrupt {
                    path: wal_path.clone(),
                    offset: 0,
                    detail: format!(
                        "epoch gap: record publishes {} but recovery is at {epoch}",
                        record.epoch
                    ),
                });
            }
            // Id-space growth applies before the edge delta, so insertions
            // in the same record may reference the new ids. The node count
            // may not leave the u32 id space (the bound `addnode` staging
            // enforces): unchecked, a huge count (damage that survived
            // CRC32) wraps or aborts on allocation.
            n = match n.checked_add(record.added_nodes) {
                Some(grown) if grown <= u64::from(u32::MAX) => grown,
                _ => {
                    return Err(StoreError::WalCorrupt {
                        path: wal_path.clone(),
                        offset: 0,
                        detail: format!(
                            "record for epoch {} adds {} nodes to {n}, past the u32 id space",
                            record.epoch, record.added_nodes
                        ),
                    })
                }
            };
            // Endpoints must fit this graph's node space: the merge only
            // debug-asserts ranges, and in release an out-of-range id (a
            // WAL from a different store, or damage that survived CRC32)
            // would index past a row or store a source with no node.
            if let Some(&(u, v)) = record
                .insertions
                .iter()
                .chain(&record.deletions)
                .find(|&&(u, v)| u64::from(u) >= n || u64::from(v) >= n)
            {
                return Err(StoreError::WalCorrupt {
                    path: wal_path.clone(),
                    offset: 0,
                    detail: format!(
                        "record for epoch {} names edge {u} -> {v}, out of range for \
                         {n} nodes (WAL from a different store?)",
                        record.epoch
                    ),
                });
            }
            deltas.push((&record.insertions, &record.deletions));
            epoch = record.epoch;
        }
        if epoch < newest_named_epoch {
            // We recovered from an older snapshot and the WAL could not
            // re-reach the newest snapshot's (provenly committed) epoch:
            // refusing with the newest snapshot's error beats silently
            // publishing a rolled-back past.
            return Err(first_error.expect("fallback implies a snapshot error"));
        }
        // Growth only appends isolated nodes, so growing once up front
        // commutes with every delta on the older ids; the merge appends them
        // in its one copy. Every record grows the graph through its delta,
        // so no delta means no growth.
        if !deltas.is_empty() {
            graph = graph.apply_deltas_into(n as usize, &deltas, None);
        }

        Ok((
            graph,
            epoch,
            DurableLog {
                dir: dir.to_path_buf(),
                wal_path,
                wal,
                wal_records,
                last_snapshot_epoch: snapshot_epoch,
                compact_every: crate::store::DEFAULT_COMPACT_EVERY,
            },
        ))
    }

    /// Appends one commit record and fsyncs — the durability point of a
    /// commit. On error nothing is considered written (the caller keeps its
    /// staged delta). Returns how long the buffered write and the fsync each
    /// took, for the commit-stage timings in [`crate::store::CommitTimings`].
    pub(crate) fn append(
        &mut self,
        record: &WalRecord,
    ) -> Result<(std::time::Duration, std::time::Duration), StoreError> {
        let payload = record.encode_payload();
        let mut framed = Vec::with_capacity(8 + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        let base_len = self
            .wal
            .metadata()
            .map_err(|e| StoreError::io(&self.wal_path, "stat", e))?
            .len();
        if let Some(failure) = fault::check(fault::sites::WAL_FSYNC) {
            if failure == fault::Failure::Torn {
                // Power loss mid-append: a strict prefix of the frame reaches
                // disk and the process is presumed dead. Deliberately NOT
                // rolled back — reopening the store must go through the
                // torn-tail truncation in `DurableLog::open`.
                let _ = self.wal.write_all(&framed[..framed.len() / 2]);
                let _ = self.wal.sync_data();
            } else {
                // Fsync failure: the frame made it into the page cache but
                // never became durable. Roll the buffered write back so an
                // in-process retry starts from a clean frame boundary.
                let _ = self.wal.write_all(&framed);
                self.rollback_append(base_len);
            }
            return Err(StoreError::io(
                &self.wal_path,
                "sync",
                fault::injected_io_error(fault::sites::WAL_FSYNC),
            ));
        }
        let write_start = std::time::Instant::now();
        if let Err(e) = self.wal.write_all(&framed) {
            self.rollback_append(base_len);
            return Err(StoreError::io(&self.wal_path, "write", e));
        }
        let write_time = write_start.elapsed();
        let sync_start = std::time::Instant::now();
        if let Err(e) = self.wal.sync_data() {
            self.rollback_append(base_len);
            return Err(StoreError::io(&self.wal_path, "sync", e));
        }
        let fsync_time = sync_start.elapsed();
        self.wal_records += 1;
        Ok((write_time, fsync_time))
    }

    /// Best-effort undo of a failed append: truncate back to the pre-append
    /// length and restore the end-of-file cursor, so a retried commit cannot
    /// stack a duplicate-epoch frame on top of a half-written one (the scan
    /// would reject that whole tail as corrupt). If the rollback itself
    /// fails, the torn tail is truncated by the next `DurableLog::open`.
    fn rollback_append(&mut self, base_len: u64) {
        let _ = self.wal.set_len(base_len);
        let _ = self.wal.seek(SeekFrom::End(0));
        let _ = self.wal.sync_data();
    }

    /// Folds the WAL into a fresh snapshot of `graph` at `epoch`: write the
    /// snapshot, truncate the WAL to its header, delete older snapshots and
    /// the temp files of snapshot writes that failed or a crash cut short
    /// (best-effort). Safe against crashes at any point (see module docs).
    pub(crate) fn compact(&mut self, graph: &InGraph, epoch: u64) -> Result<(), StoreError> {
        write_snapshot(&self.dir, graph, epoch)?;
        self.last_snapshot_epoch = epoch;
        self.wal
            .set_len(WAL_HEADER_LEN)
            .map_err(|e| StoreError::io(&self.wal_path, "truncate", e))?;
        self.wal
            .seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io(&self.wal_path, "seek", e))?;
        self.wal
            .sync_all()
            .map_err(|e| StoreError::io(&self.wal_path, "sync", e))?;
        self.wal_records = 0;
        // This log holds the WAL lock, so no other writer has a temp file in
        // flight, and this write's own was renamed into place above.
        let entries =
            std::fs::read_dir(&self.dir).map_err(|e| StoreError::io(&self.dir, "read_dir", e))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let (stem, temp) = match name.strip_suffix(".tmp") {
                Some(stem) => (stem, true),
                None => (&*name, false),
            };
            if parse_snapshot_epoch(stem).is_some_and(|old| temp || old != epoch) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(())
    }

    pub(crate) fn should_compact(&self) -> bool {
        self.compact_every > 0 && self.wal_records >= self.compact_every
    }

    pub(crate) fn set_compact_every(&mut self, every: u64) {
        self.compact_every = every;
    }

    pub(crate) fn info(&self) -> DurabilityInfo {
        DurabilityInfo {
            data_dir: self.dir.clone(),
            wal_records: self.wal_records,
            last_snapshot_epoch: self.last_snapshot_epoch,
        }
    }
}

/// Takes the store's single-writer advisory lock on the WAL handle (held
/// for the store's lifetime, released automatically when the handle drops —
/// including on a crash, so there are no stale locks to clean up).
fn lock_exclusive(wal: &File, dir: &Path, wal_path: &Path) -> Result<(), StoreError> {
    match wal.try_lock() {
        Ok(()) => Ok(()),
        Err(std::fs::TryLockError::WouldBlock) => Err(StoreError::Locked {
            dir: dir.to_path_buf(),
        }),
        Err(std::fs::TryLockError::Error(e)) => Err(StoreError::io(wal_path, "lock", e)),
    }
}

fn create_wal(path: &Path) -> Result<File, StoreError> {
    let mut wal = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)
        .map_err(|e| StoreError::io(path, "create", e))?;
    wal.write_all(WAL_MAGIC)
        .map_err(|e| StoreError::io(path, "write", e))?;
    wal.write_all(&FORMAT_VERSION.to_le_bytes())
        .map_err(|e| StoreError::io(path, "write", e))?;
    wal.sync_all()
        .map_err(|e| StoreError::io(path, "sync", e))?;
    Ok(wal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-byte-per-step CRC32 that slicing-by-8 replaced.
    fn bytewise_crc32(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_reference_at_any_length_and_alignment() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let bytes: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        for case in 0..500 {
            let start = next() as usize % 8;
            let len = if case < 17 {
                case // every tail length, and one word plus every tail
            } else {
                next() as usize % 4097
            };
            let slice = &bytes[start..start + len];
            let want = bytewise_crc32(slice);
            assert_eq!(crc32(slice), want, "start {start}, len {len}");
            // Fed in pieces of any size, the running CRC agrees.
            let mut running = Crc32::new();
            let mut rest = slice;
            while !rest.is_empty() {
                let (piece, tail) = rest.split_at(next() as usize % (rest.len() + 1));
                running.update(piece);
                rest = tail;
            }
            assert_eq!(running.finish(), want, "pieces, start {start}, len {len}");
        }
        let mut running = Crc32::new();
        running.update(b"1234");
        running.update(b"56789");
        assert_eq!(running.finish(), 0xCBF4_3926);
    }

    #[test]
    fn a_streamed_snapshot_reads_back_with_its_checksum() {
        let dir =
            std::env::temp_dir().join(format!("exactsim-persist-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Offsets and targets longer than the write buffer, so the CRC
        // follows the bytes across several flushes.
        let n = SNAPSHOT_IO_BUFFER / 4;
        let edges: Vec<(NodeId, NodeId)> = (0..n as NodeId)
            .flat_map(|u| [(u, (u + 1) % n as NodeId), (u, (u * 7 + 3) % n as NodeId)])
            .collect();
        let graph = exactsim_graph::DiGraph::from_edges(n, &edges);
        let path = write_snapshot(&dir, graph.in_graph(), 9).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mut encoded = Vec::new();
        write_in_graph(graph.in_graph(), &mut encoded).unwrap();
        assert_eq!(&bytes[SNAPSHOT_HEADER_LEN..bytes.len() - 4], &encoded[..]);
        let body_end = bytes.len() - 4;
        assert_eq!(
            u32::from_le_bytes(bytes[body_end..].try_into().unwrap()),
            bytewise_crc32(&bytes[..body_end])
        );
        let (read, epoch) = read_snapshot(&path).unwrap();
        assert_eq!(epoch, 9);
        assert_eq!(&read, graph.in_graph());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_record_payload_round_trips() {
        let record = WalRecord {
            epoch: 7,
            added_nodes: 2,
            insertions: vec![(0, 1), (2, 3)],
            deletions: vec![(1, 0)],
        };
        let payload = record.encode_payload();
        assert_eq!(WalRecord::decode_payload(&payload).unwrap(), record);
    }

    #[test]
    fn wal_record_rejects_malformed_payloads() {
        let record = WalRecord {
            epoch: 1,
            added_nodes: 0,
            insertions: vec![(0, 1)],
            deletions: vec![],
        };
        let payload = record.encode_payload();
        assert!(WalRecord::decode_payload(&payload[..payload.len() - 1]).is_err());
        assert!(WalRecord::decode_payload(&[0u8; 3]).is_err());
        // Unsorted insertions are structural corruption.
        let bad = WalRecord {
            epoch: 1,
            added_nodes: 0,
            insertions: vec![(2, 3), (0, 1)],
            deletions: vec![],
        };
        assert!(WalRecord::decode_payload(&bad.encode_payload())
            .unwrap_err()
            .contains("not strictly sorted"));
    }

    #[test]
    fn snapshot_names_parse_round_trip() {
        assert_eq!(parse_snapshot_epoch(&snapshot_file_name(42)), Some(42));
        assert_eq!(parse_snapshot_epoch("snapshot-.snap"), None);
        assert_eq!(parse_snapshot_epoch("wal.log"), None);
        assert_eq!(parse_snapshot_epoch("snapshot-3.snap.tmp"), None);
    }
}
