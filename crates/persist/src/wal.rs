//! The write-ahead log: a command log of the *input* batches fed to a
//! maintained run — edge-event batches, node-churn batches, maintain
//! calls — appended in application order and replayed through the same
//! public API after a restore.
//!
//! Logging inputs (not resulting state) keeps records tiny and leans on
//! the workspace determinism contract for correctness: replaying the
//! same batches through [`qsc_core::rothko::RothkoRun::apply_edge_batch`]
//! / `apply_node_batch` / `maintain` reproduces the writer's state bit
//! for bit (for exactly representable weights — reweights are
//! reconstructed as `old + delta`, which equals the writer's weight
//! exactly in that regime, the same caveat the engine's own contract
//! carries).
//!
//! ## On-disk layout
//!
//! The log is a directory of segments `wal-<first_seq>.seg`. Each
//! segment starts with a 24-byte header (magic, version, first sequence
//! number, CRC of those) followed by records:
//!
//! ```text
//!   [len: u32]  [crc: u32]  [seq: u64]  [type: u8]  [payload: len-9 bytes]
//! ```
//!
//! `len` counts everything after `crc`; `crc` guards exactly those
//! bytes. Sequence numbers are global (they continue across segments),
//! start at 1, and must be contiguous — a gap means a lost segment and
//! fails recovery with [`PersistError::SequenceGap`].
//!
//! ## Torn tails
//!
//! Appends are buffered and fsynced in batches ([`WalWriter::sync`] and
//! a byte-count auto-sync), so a crash can leave a partial record at the
//! end of the *last* segment. Recovery handles this the standard way: it
//! scans records until the first one that fails to parse or checksum;
//! in the last segment that tail is dropped cleanly
//! (recover-to-last-complete-batch), in any earlier segment the same
//! condition is a hard [`PersistError`] — a non-last segment was sealed
//! by rotation and must be intact. The flip side (shared with every
//! scan-forward WAL): bytes after a damaged record in the last segment
//! are unreachable, so a mid-segment bit flip there reads as a shorter
//! log, not an error.
//!
//! Reopening a log for appending starts a new segment, which turns the
//! old last segment into a sealed one. So before it opens that segment,
//! the store's reopen path cuts a torn tail off the old last segment and
//! fsyncs it; otherwise the next recovery would read the torn bytes as
//! damage in a sealed segment.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use qsc_graph::delta::EdgeEvent;

use crate::codec::{crc32, get_varint, put_varint, unzigzag, zigzag};
use crate::error::PersistError;

/// WAL segment magic.
pub const WAL_MAGIC: &[u8; 8] = b"QSC_WAL\0";
/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;

const REC_EDGE_BATCH: u8 = 1;
const REC_NODE_BATCH: u8 = 2;
const REC_MAINTAIN: u8 = 3;

/// One logged command, in the order the writer applied it.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// An edge batch: the events passed to `RothkoRun::apply_edge_batch`.
    EdgeBatch(Vec<EdgeEvent>),
    /// A node-churn batch: the inputs that rebuild a
    /// `qsc_core::rothko::NodeChurnBatch` (the remap is recomputed by
    /// replaying the same mutations — it is a pure function of them).
    NodeBatch {
        /// Colors joined by the appended nodes, in insertion order.
        inserted_colors: Vec<u32>,
        /// The batch's edge events over the grown pre-compaction id space.
        edge_events: Vec<EdgeEvent>,
        /// Removed nodes (pre-compaction ids), in removal order.
        removed: Vec<u32>,
    },
    /// A `RothkoRun::maintain` call.
    Maintain,
}

fn encode_edge_events(out: &mut Vec<u8>, events: &[EdgeEvent]) {
    put_varint(out, events.len() as u64);
    let mut prev = 0i64;
    for e in events {
        put_varint(out, zigzag(i64::from(e.source) - prev));
        prev = i64::from(e.source);
    }
    let mut prev = 0i64;
    for e in events {
        put_varint(out, zigzag(i64::from(e.target) - prev));
        prev = i64::from(e.target);
    }
    for e in events {
        out.extend_from_slice(&e.delta.to_bits().to_le_bytes());
    }
}

fn decode_edge_events(buf: &[u8], pos: &mut usize) -> Result<Vec<EdgeEvent>, PersistError> {
    let count = usize::try_from(get_varint(buf, pos)?).map_err(|_| PersistError::Corrupt {
        context: "edge event count overflows usize",
    })?;
    // Cheap sanity bound before allocating: every event needs >= 10 bytes.
    if count > buf.len().saturating_sub(*pos) / 10 + 1 {
        return Err(PersistError::Corrupt {
            context: "edge event count exceeds record size",
        });
    }
    let decode_ids = |pos: &mut usize| -> Result<Vec<u32>, PersistError> {
        let mut ids = Vec::with_capacity(count);
        let mut prev = 0i64;
        for _ in 0..count {
            prev += unzigzag(get_varint(buf, pos)?);
            ids.push(u32::try_from(prev).map_err(|_| PersistError::Corrupt {
                context: "edge event node id out of range",
            })?);
        }
        Ok(ids)
    };
    let sources = decode_ids(pos)?;
    let targets = decode_ids(pos)?;
    let mut events = Vec::with_capacity(count);
    for i in 0..count {
        let raw = buf.get(*pos..*pos + 8).ok_or(PersistError::Truncated {
            context: "edge event delta missing",
        })?;
        *pos += 8;
        events.push(EdgeEvent {
            source: sources[i],
            target: targets[i],
            delta: crate::le::le_f64(raw)?,
        });
    }
    Ok(events)
}

fn encode_record(rec: &WalRecord) -> (u8, Vec<u8>) {
    let mut payload = Vec::new();
    match rec {
        WalRecord::EdgeBatch(events) => {
            encode_edge_events(&mut payload, events);
            (REC_EDGE_BATCH, payload)
        }
        WalRecord::NodeBatch {
            inserted_colors,
            edge_events,
            removed,
        } => {
            put_varint(&mut payload, inserted_colors.len() as u64);
            for &c in inserted_colors {
                put_varint(&mut payload, u64::from(c));
            }
            put_varint(&mut payload, removed.len() as u64);
            let mut prev = 0i64;
            for &v in removed {
                put_varint(&mut payload, zigzag(i64::from(v) - prev));
                prev = i64::from(v);
            }
            encode_edge_events(&mut payload, edge_events);
            (REC_NODE_BATCH, payload)
        }
        WalRecord::Maintain => (REC_MAINTAIN, payload),
    }
}

fn decode_record(kind: u8, payload: &[u8]) -> Result<WalRecord, PersistError> {
    let mut pos = 0;
    let rec = match kind {
        REC_EDGE_BATCH => WalRecord::EdgeBatch(decode_edge_events(payload, &mut pos)?),
        REC_NODE_BATCH => {
            let n_ins = usize::try_from(get_varint(payload, &mut pos)?).map_err(|_| {
                PersistError::Corrupt {
                    context: "inserted-node count overflows usize",
                }
            })?;
            if n_ins > payload.len().saturating_sub(pos) + 1 {
                return Err(PersistError::Corrupt {
                    context: "inserted-node count exceeds record size",
                });
            }
            let mut inserted_colors = Vec::with_capacity(n_ins);
            for _ in 0..n_ins {
                inserted_colors.push(u32::try_from(get_varint(payload, &mut pos)?).map_err(
                    |_| PersistError::Corrupt {
                        context: "inserted color out of range",
                    },
                )?);
            }
            let n_rem = usize::try_from(get_varint(payload, &mut pos)?).map_err(|_| {
                PersistError::Corrupt {
                    context: "removed-node count overflows usize",
                }
            })?;
            if n_rem > payload.len().saturating_sub(pos) + 1 {
                return Err(PersistError::Corrupt {
                    context: "removed-node count exceeds record size",
                });
            }
            let mut removed = Vec::with_capacity(n_rem);
            let mut prev = 0i64;
            for _ in 0..n_rem {
                prev += unzigzag(get_varint(payload, &mut pos)?);
                removed.push(u32::try_from(prev).map_err(|_| PersistError::Corrupt {
                    context: "removed node id out of range",
                })?);
            }
            let edge_events = decode_edge_events(payload, &mut pos)?;
            WalRecord::NodeBatch {
                inserted_colors,
                edge_events,
                removed,
            }
        }
        REC_MAINTAIN => WalRecord::Maintain,
        _ => {
            return Err(PersistError::Corrupt {
                context: "unknown WAL record type",
            })
        }
    };
    if pos != payload.len() {
        return Err(PersistError::Corrupt {
            context: "WAL record has trailing bytes",
        });
    }
    Ok(rec)
}

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{first_seq:020}.seg"))
}

/// Fsync the directory `dir`, persisting the file creations, renames and
/// deletions in it. Platforms that cannot open a directory as a file skip
/// it.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), PersistError> {
    if let Ok(d) = fs::File::open(dir) {
        d.sync_all()?;
    }
    Ok(())
}

/// List segment files in `dir`, sorted by their first sequence number.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(num) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
        {
            if let Ok(first_seq) = num.parse::<u64>() {
                segs.push((first_seq, entry.path()));
            }
        }
    }
    segs.sort_unstable_by_key(|&(s, _)| s);
    Ok(segs)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appender with batched fsync and size-based segment rotation.
pub struct WalWriter {
    dir: PathBuf,
    file: fs::File,
    next_seq: u64,
    segment_bytes: u64,
    written_in_segment: u64,
    unsynced: bool,
    /// Auto-fsync after this many buffered bytes (fsync batching; 0
    /// fsyncs every append).
    sync_every_bytes: u64,
    unsynced_bytes: u64,
}

impl WalWriter {
    /// Open a fresh segment in `dir` whose first record will carry
    /// sequence number `next_seq`.
    pub fn create(
        dir: &Path,
        next_seq: u64,
        segment_bytes: u64,
        sync_every_bytes: u64,
    ) -> Result<Self, PersistError> {
        let file = Self::new_segment(dir, next_seq)?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            file,
            next_seq,
            segment_bytes: segment_bytes.max(64),
            written_in_segment: 0,
            unsynced: false,
            sync_every_bytes,
            unsynced_bytes: 0,
        })
    }

    fn new_segment(dir: &Path, first_seq: u64) -> Result<fs::File, PersistError> {
        let mut header = Vec::with_capacity(24);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&first_seq.to_le_bytes());
        let crc = crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());
        let mut file = fs::File::create(segment_path(dir, first_seq))?;
        file.write_all(&header)?;
        // Persist the new directory entry: without it a crash can drop the
        // segment together with every record later fsynced into it.
        sync_dir(dir)?;
        Ok(file)
    }

    /// Sequence number of the most recently appended record (0 before
    /// the first append).
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Append one record, returning its sequence number. The bytes are
    /// written immediately but only fsynced per the batching policy —
    /// call [`Self::sync`] for a durability point.
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64, PersistError> {
        if self.written_in_segment >= self.segment_bytes {
            self.rotate()?;
        }
        let seq = self.next_seq;
        let (kind, payload) = encode_record(rec);
        let mut body = Vec::with_capacity(9 + payload.len());
        body.extend_from_slice(&seq.to_le_bytes());
        body.push(kind);
        body.extend_from_slice(&payload);
        let mut frame = Vec::with_capacity(8 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        self.file.write_all(&frame)?;
        self.next_seq += 1;
        self.written_in_segment += frame.len() as u64;
        self.unsynced = true;
        self.unsynced_bytes += frame.len() as u64;
        if self.unsynced_bytes >= self.sync_every_bytes {
            self.sync()?;
        }
        Ok(seq)
    }

    /// Flush and fsync everything appended so far.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        if self.unsynced {
            self.file.sync_all()?;
            self.unsynced = false;
            self.unsynced_bytes = 0;
        }
        Ok(())
    }

    /// Seal the current segment (fsync) and start a new one. The new
    /// segment's name carries the next sequence number.
    pub fn rotate(&mut self) -> Result<(), PersistError> {
        self.sync()?;
        self.file = Self::new_segment(&self.dir, self.next_seq)?;
        self.written_in_segment = 0;
        Ok(())
    }

    /// Delete every segment that holds only records with
    /// `seq <= covered_seq` (checkpoint-triggered truncation). The
    /// current (open) segment is never deleted.
    pub fn truncate_covered(&mut self, covered_seq: u64) -> Result<(), PersistError> {
        let segs = list_segments(&self.dir)?;
        let mut removed = false;
        for (i, (first_seq, path)) in segs.iter().enumerate() {
            // A segment's records are covered iff the *next* segment
            // starts at or below covered_seq + 1 (its records all have
            // seq < next segment's first). The open segment stays.
            let next_first = segs.get(i + 1).map(|&(s, _)| s);
            match next_first {
                Some(next) if next <= covered_seq + 1 && *first_seq < next => {
                    fs::remove_file(path)?;
                    removed = true;
                }
                _ => {}
            }
        }
        if removed {
            // Persist the deletions, so a crash cannot resurrect them.
            sync_dir(&self.dir)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Scan every segment in `dir` and return the records with
/// `seq > after_seq`, in order, validating CRCs and sequence continuity.
/// A torn tail in the last segment is dropped cleanly; damage anywhere
/// else is a typed error (see the module docs).
pub fn read_wal(dir: &Path, after_seq: u64) -> Result<Vec<(u64, WalRecord)>, PersistError> {
    let segs = list_segments(dir)?;
    let mut out = Vec::new();
    let mut expected_next: Option<u64> = None;
    for (i, (first_seq, path)) in segs.iter().enumerate() {
        let last = i + 1 == segs.len();
        let bytes = fs::read(path)?;
        if bytes.len() < 24 {
            if last {
                // A segment torn before its header finished: nothing in
                // it was ever acknowledged; drop it.
                break;
            }
            return Err(PersistError::Truncated {
                context: "WAL segment shorter than its header",
            });
        }
        if &bytes[0..8] != WAL_MAGIC {
            return Err(PersistError::BadMagic {
                kind: "WAL segment",
            });
        }
        let version = crate::le::le_u32(&bytes[8..12])?;
        if version != WAL_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: WAL_VERSION,
            });
        }
        let header_seq = crate::le::le_u64(&bytes[12..20])?;
        let hcrc = crate::le::le_u32(&bytes[20..24])?;
        if crc32(&bytes[0..20]) != hcrc {
            return Err(PersistError::CrcMismatch {
                context: "WAL segment header",
            });
        }
        if header_seq != *first_seq {
            return Err(PersistError::Corrupt {
                context: "WAL segment name disagrees with its header",
            });
        }
        if let Some(expected) = expected_next {
            if *first_seq != expected {
                return Err(PersistError::SequenceGap {
                    expected,
                    found: *first_seq,
                });
            }
        }
        let mut next_seq = *first_seq;
        let mut pos = 24usize;
        loop {
            if pos == bytes.len() {
                break;
            }
            let parsed = parse_one_record(&bytes, pos);
            match parsed {
                Ok((seq, rec, new_pos)) => {
                    if seq != next_seq {
                        return Err(PersistError::SequenceGap {
                            expected: next_seq,
                            found: seq,
                        });
                    }
                    next_seq += 1;
                    pos = new_pos;
                    if seq > after_seq {
                        out.push((seq, rec));
                    }
                }
                Err(e) => {
                    if last {
                        // Torn tail: unacknowledged bytes; recover to
                        // the last complete record.
                        break;
                    }
                    return Err(e);
                }
            }
        }
        expected_next = Some(next_seq);
    }
    Ok(out)
}

fn parse_one_record(bytes: &[u8], pos: usize) -> Result<(u64, WalRecord, usize), PersistError> {
    let frame = bytes.get(pos..pos + 8).ok_or(PersistError::Truncated {
        context: "WAL record frame header",
    })?;
    let len = crate::le::le_u32(&frame[0..4])? as usize;
    let crc = crate::le::le_u32(&frame[4..8])?;
    if len < 9 {
        return Err(PersistError::Corrupt {
            context: "WAL record shorter than its fixed fields",
        });
    }
    let body = bytes
        .get(pos + 8..pos + 8 + len)
        .ok_or(PersistError::Truncated {
            context: "WAL record body",
        })?;
    if crc32(body) != crc {
        return Err(PersistError::CrcMismatch {
            context: "WAL record",
        });
    }
    let seq = crate::le::le_u64(&body[0..8])?;
    let kind = body[8];
    let rec = decode_record(kind, &body[9..])?;
    Ok((seq, rec, pos + 8 + len))
}

/// Prepare `dir`'s WAL for appending after a restart: truncate the last
/// segment to the end of its last valid frame and fsync it, then return
/// the last sequence number present (0 when empty). A new segment opened
/// afterwards turns the old last segment into a sealed one, where torn
/// bytes would be a hard error.
pub(crate) fn seal_wal_tail(dir: &Path) -> Result<u64, PersistError> {
    let segs = list_segments(dir)?;
    let Some((first_seq, path)) = segs.last() else {
        return Ok(0);
    };
    let bytes = fs::read(path)?;
    let mut last = first_seq.saturating_sub(1);
    if bytes.len() < 24 {
        // Torn inside its header: the segment holds no record, and the
        // next segment takes its name and overwrites it.
        return Ok(last);
    }
    let mut pos = 24usize;
    while pos < bytes.len() {
        match parse_one_record(&bytes, pos) {
            Ok((seq, _, new_pos)) => {
                last = seq;
                pos = new_pos;
            }
            Err(_) => break,
        }
    }
    if pos < bytes.len() {
        let file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(pos as u64)?;
        file.sync_all()?;
    }
    Ok(last)
}
