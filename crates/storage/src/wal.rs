//! Durable write-ahead log for the WOS→ROS ingest path.
//!
//! The paper's Figure 1 staging area only works in a live system if the
//! staged rows survive a crash. This module provides the log that makes
//! them durable: a byte stream of CRC-32-framed, monotonically sequenced
//! records. Three record kinds cover the whole ingest protocol:
//!
//! * **InsertBatch** — acknowledged rows, encoded with the schema's raw
//!   tuple layout ([`rodb_types::tuple`]).
//! * **MergeBegin** — a WOS→ROS merge froze the first `rows` staged rows
//!   and started rebuilding read-optimized pages for epoch `epoch`.
//! * **MergeCommit** — the rebuild finished and epoch `epoch` became the
//!   live read-optimized store. Commit is the *atomic switch*: a crash
//!   before this record recovers to the pre-merge state, after it to the
//!   post-merge state, never a hybrid.
//!
//! Frame format (all integers little-endian):
//!
//! ```text
//! [len: u32][seq: u64][kind: u8][payload: len bytes][crc32: u32]
//! ```
//!
//! `crc32` covers everything before it (header + payload), using the same
//! IEEE polynomial as the page trailers. [`replay`] scans the longest valid
//! prefix: a frame that is cut short (torn tail write), fails its CRC, or
//! breaks the sequence ends the prefix; everything after it is counted as
//! *discarded*, never replayed. [`Wal::open`] additionally truncates the
//! retained buffer to that prefix, so a later append physically overwrites
//! the discarded bytes — a discarded record can never be resurrected.

use std::sync::Arc;

use rodb_io::FaultInjector;
use rodb_types::{tuple, CorruptKind, Error, FaultSpec, Result, Schema, Value};

use crate::page::crc32;

/// Frame header bytes: `len: u32` + `seq: u64` + `kind: u8`.
pub const WAL_HEADER: usize = 4 + 8 + 1;
/// Frame trailer bytes: the CRC-32.
pub const WAL_CRC: usize = 4;

const KIND_INSERT: u8 = 1;
const KIND_MERGE_BEGIN: u8 = 2;
const KIND_MERGE_COMMIT: u8 = 3;

/// One logical log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A batch of acknowledged inserts (row-major values).
    Insert { rows: Vec<Vec<Value>> },
    /// A merge of the first `rows` staged rows into epoch `epoch` started.
    MergeBegin { epoch: u64, rows: u64 },
    /// Epoch `epoch` (consuming `rows` staged rows) is now live.
    MergeCommit { epoch: u64, rows: u64 },
}

impl WalRecord {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::Insert { .. } => KIND_INSERT,
            WalRecord::MergeBegin { .. } => KIND_MERGE_BEGIN,
            WalRecord::MergeCommit { .. } => KIND_MERGE_COMMIT,
        }
    }

    fn encode_payload(&self, schema: &Schema, out: &mut Vec<u8>) -> Result<()> {
        match self {
            WalRecord::Insert { rows } => {
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for r in rows {
                    tuple::encode_tuple(schema, r, out)?;
                }
            }
            WalRecord::MergeBegin { epoch, rows } | WalRecord::MergeCommit { epoch, rows } => {
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&rows.to_le_bytes());
            }
        }
        Ok(())
    }

    fn decode_payload(kind: u8, schema: &Schema, payload: &[u8]) -> Result<WalRecord> {
        match kind {
            KIND_INSERT => {
                if payload.len() < 4 {
                    return Err(Error::corrupt_kind(
                        CorruptKind::Format,
                        "insert record shorter than its count field",
                    ));
                }
                let count = u32::from_le_bytes(le(payload, 0)) as usize;
                let w = schema.logical_width();
                if payload.len() != 4 + count.saturating_mul(w) {
                    return Err(Error::corrupt_kind(
                        CorruptKind::Format,
                        format!(
                            "insert record claims {count} tuples of {w} bytes in a {}-byte payload",
                            payload.len() - 4
                        ),
                    ));
                }
                let mut rows = Vec::with_capacity(count);
                for i in 0..count {
                    rows.push(tuple::decode_tuple(
                        schema,
                        &payload[4 + i * w..4 + (i + 1) * w],
                    )?);
                }
                Ok(WalRecord::Insert { rows })
            }
            KIND_MERGE_BEGIN | KIND_MERGE_COMMIT => {
                if payload.len() != 16 {
                    return Err(Error::corrupt_kind(
                        CorruptKind::Format,
                        format!("merge marker with {}-byte payload", payload.len()),
                    ));
                }
                let epoch = u64::from_le_bytes(le(payload, 0));
                let rows = u64::from_le_bytes(le(payload, 8));
                Ok(if kind == KIND_MERGE_BEGIN {
                    WalRecord::MergeBegin { epoch, rows }
                } else {
                    WalRecord::MergeCommit { epoch, rows }
                })
            }
            other => Err(Error::corrupt_kind(
                CorruptKind::Format,
                format!("unknown WAL record kind {other}"),
            )),
        }
    }
}

/// What a [`replay`] recovered from a log image.
#[derive(Debug, Clone, PartialEq)]
pub struct WalReplay {
    /// `(seq, record)` pairs of the longest valid prefix, in log order.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte length of that prefix (where the next append goes).
    pub valid_len: usize,
    /// Records replayed (== `records.len()`).
    pub replayed: u64,
    /// Record frames (or residual byte blobs) found after the valid prefix
    /// and discarded. `0` means the log was clean end to end.
    pub discarded: u64,
    /// What ended the prefix scan, when anything did.
    pub damage: Option<CorruptKind>,
}

/// Scan `image` for the longest valid record prefix. Never panics and never
/// errors: damage of any shape simply ends the prefix, and the suffix is
/// classified and counted as discarded.
pub fn replay(schema: &Schema, image: &[u8]) -> WalReplay {
    let mut records = Vec::new();
    let mut off = 0usize;
    let mut next_seq = 1u64;
    let mut damage = None;
    while off < image.len() {
        let Some(end) = frame_end(image, off) else {
            damage = Some(CorruptKind::WalTorn);
            break;
        };
        let body_end = end - WAL_CRC;
        if u32::from_le_bytes(le(image, body_end)) != crc32(&image[off..body_end]) {
            damage = Some(CorruptKind::WalChecksum);
            break;
        }
        let seq = u64::from_le_bytes(le(image, off + 4));
        let kind = image[off + 12];
        if seq != next_seq {
            // A valid frame out of sequence means the tail of an older log
            // generation survived underneath — stale, not replayable.
            damage = Some(CorruptKind::WalChecksum);
            break;
        }
        match WalRecord::decode_payload(kind, schema, &image[off + WAL_HEADER..body_end]) {
            Ok(rec) => records.push((seq, rec)),
            Err(_) => {
                // Structurally invalid behind a valid CRC: software damage.
                damage = Some(CorruptKind::Format);
                break;
            }
        }
        next_seq += 1;
        off = end;
    }
    // Count what lies beyond the prefix, walking claimed frame lengths so a
    // run of torn-but-intact frames counts per record, and anything
    // unparseable counts once as a residual blob.
    let mut discarded = 0u64;
    let mut p = off;
    while p < image.len() {
        discarded += 1;
        match frame_end(image, p) {
            Some(next) => p = next,
            None => break,
        }
    }
    WalReplay {
        replayed: records.len() as u64,
        records,
        valid_len: off,
        discarded,
        damage,
    }
}

/// The `N` bytes at `bytes[at..]` as a fixed array, for `from_le_bytes`; the
/// caller has bounded `at + N`.
fn le<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut a = [0; N];
    a.copy_from_slice(&bytes[at..at + N]);
    a
}

/// Where the frame starting at `off` ends, by its own `len` field — the one
/// frame-length rule. `None` when the header or the claimed length runs past
/// the image (torn); checked arithmetic, so a damaged `len` can only say so.
fn frame_end(image: &[u8], off: usize) -> Option<usize> {
    if image.len().checked_sub(off)? < WAL_HEADER + WAL_CRC {
        return None;
    }
    let len = u32::from_le_bytes(le(image, off)) as usize;
    let end = off.checked_add(WAL_HEADER + WAL_CRC)?.checked_add(len)?;
    (end <= image.len()).then_some(end)
}

/// The append side of the log: an in-memory image of the simulated WAL
/// device. Appends frame, checksum, and sequence each record; an insert is
/// *acknowledged* exactly when its append returns.
#[derive(Debug, Clone)]
pub struct Wal {
    schema: Arc<Schema>,
    buf: Vec<u8>,
    next_seq: u64,
}

impl Wal {
    /// An empty log.
    pub fn new(schema: Arc<Schema>) -> Wal {
        Wal {
            schema,
            buf: Vec::new(),
            next_seq: 1,
        }
    }

    /// Open a (possibly damaged) log image: replay its longest valid
    /// prefix and truncate the retained buffer to it, so discarded bytes
    /// are physically gone before the next append.
    pub fn open(schema: Arc<Schema>, image: &[u8]) -> (Wal, WalReplay) {
        let replay = replay(&schema, image);
        let wal = Wal {
            schema,
            buf: image[..replay.valid_len].to_vec(),
            next_seq: replay.records.last().map(|(s, _)| s + 1).unwrap_or(1),
        };
        (wal, replay)
    }

    /// Append one record; returns its sequence number. The record is
    /// durable (crash-survivable) from the moment this returns.
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64> {
        let start = self.buf.len();
        // Header with a `len` placeholder, then the payload encoded in place.
        self.buf.extend_from_slice(&[0; 4]);
        self.buf.extend_from_slice(&self.next_seq.to_le_bytes());
        self.buf.push(rec.kind());
        if let Err(e) = rec.encode_payload(&self.schema, &mut self.buf) {
            self.buf.truncate(start);
            return Err(e);
        }
        let len = (self.buf.len() - start - WAL_HEADER) as u32;
        self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&self.buf[start..]);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(seq)
    }

    /// The current log image (what a crash would leave on the device).
    pub fn image(&self) -> &[u8] {
        &self.buf
    }

    /// Log length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// Pass a log image through the deterministic fault injector, page by page:
/// the image is chunked into `wal_page`-byte pieces addressed as
/// `(wal_file, chunk index)` and each piece rolls the [`FaultSpec`] dice
/// independently — bit flips, truncation, and zeroed tails land *inside*
/// the log exactly as they do on table pages. A shortened chunk splices in
/// place, modelling a torn region that desynchronizes everything after it
/// (which [`replay`] then discards).
pub fn damage_image(spec: FaultSpec, wal_file: u64, wal_page: usize, image: &[u8]) -> Vec<u8> {
    let mut injector = FaultInjector::new(spec);
    let mut out = Vec::with_capacity(image.len());
    for (idx, chunk) in image.chunks(wal_page.max(1)).enumerate() {
        match injector.corrupt(wal_file, idx as u64, 0, chunk) {
            Some(damaged) => out.extend_from_slice(&damaged),
            None => out.extend_from_slice(chunk),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_types::Column;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![Column::int("k"), Column::text("t", 3)]).unwrap())
    }

    fn row(k: i32, t: &str) -> Vec<Value> {
        let mut bytes = t.as_bytes().to_vec();
        bytes.resize(3, 0);
        vec![Value::Int(k), Value::Text(bytes.into_boxed_slice())]
    }

    #[test]
    fn roundtrip_all_record_kinds() {
        let s = schema();
        let mut wal = Wal::new(s.clone());
        let recs = [
            WalRecord::Insert {
                rows: vec![row(1, "ab"), row(2, "c")],
            },
            WalRecord::MergeBegin { epoch: 1, rows: 2 },
            WalRecord::MergeCommit { epoch: 1, rows: 2 },
            WalRecord::Insert { rows: vec![] },
        ];
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(wal.append(r).unwrap(), i as u64 + 1);
        }
        let rep = replay(&s, wal.image());
        assert_eq!(rep.replayed, 4);
        assert_eq!(rep.discarded, 0);
        assert_eq!(rep.damage, None);
        assert_eq!(rep.valid_len, wal.len());
        for (i, (seq, rec)) in rep.records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(rec, &recs[i]);
        }
    }

    #[test]
    fn failed_append_leaves_the_log_and_the_sequence_untouched() {
        let s = schema();
        let mut wal = Wal::new(s.clone());
        wal.append(&WalRecord::Insert {
            rows: vec![row(1, "a")],
        })
        .unwrap();
        let before = wal.image().to_vec();
        // The first row encodes into the log before the second one fails.
        let bad = WalRecord::Insert {
            rows: vec![row(2, "b"), vec![Value::Int(3)]],
        };
        assert!(wal.append(&bad).is_err());
        assert_eq!(wal.image(), before);
        assert_eq!(wal.next_seq(), 2);
        let good = WalRecord::Insert {
            rows: vec![row(4, "c")],
        };
        assert_eq!(wal.append(&good).unwrap(), 2);
        let rep = replay(&s, wal.image());
        assert_eq!((rep.replayed, rep.discarded, rep.damage), (2, 0, None));
        assert_eq!(rep.records[1], (2, good));
    }

    #[test]
    fn torn_tail_is_discarded_and_cannot_resurrect() {
        let s = schema();
        let mut wal = Wal::new(s.clone());
        wal.append(&WalRecord::Insert {
            rows: vec![row(1, "x")],
        })
        .unwrap();
        let keep = wal.len();
        wal.append(&WalRecord::Insert {
            rows: vec![row(2, "y")],
        })
        .unwrap();
        // Crash mid-write of the second record.
        let torn = &wal.image()[..wal.len() - 3];
        let (mut reopened, rep) = Wal::open(s.clone(), torn);
        assert_eq!(rep.replayed, 1);
        assert_eq!(rep.discarded, 1);
        assert_eq!(rep.damage, Some(CorruptKind::WalTorn));
        assert_eq!(rep.valid_len, keep);
        // The next append starts where the valid prefix ended; replaying the
        // result sees the survivor plus the new record, never row 2.
        reopened
            .append(&WalRecord::Insert {
                rows: vec![row(3, "z")],
            })
            .unwrap();
        let rep2 = replay(&s, reopened.image());
        assert_eq!(rep2.replayed, 2);
        assert_eq!(rep2.discarded, 0);
        let all: Vec<&WalRecord> = rep2.records.iter().map(|(_, r)| r).collect();
        assert_eq!(
            all,
            vec![
                &WalRecord::Insert {
                    rows: vec![row(1, "x")]
                },
                &WalRecord::Insert {
                    rows: vec![row(3, "z")]
                },
            ]
        );
    }

    #[test]
    fn bit_flip_ends_the_prefix_with_checksum_damage() {
        let s = schema();
        let mut wal = Wal::new(s.clone());
        for i in 0..3 {
            wal.append(&WalRecord::Insert {
                rows: vec![row(i, "a")],
            })
            .unwrap();
        }
        let record_len = wal.len() / 3;
        let mut image = wal.image().to_vec();
        // Flip a payload bit of the second record.
        image[record_len + WAL_HEADER + 1] ^= 0x40;
        let rep = replay(&s, &image);
        assert_eq!(rep.replayed, 1);
        assert_eq!(rep.damage, Some(CorruptKind::WalChecksum));
        assert_eq!(rep.valid_len, record_len);
        // Both the flipped record and the (intact) one behind it are gone.
        assert_eq!(rep.discarded, 2);
    }

    #[test]
    fn sequence_break_is_not_replayed() {
        let s = schema();
        let mut a = Wal::new(s.clone());
        a.append(&WalRecord::MergeBegin { epoch: 1, rows: 0 })
            .unwrap();
        a.append(&WalRecord::MergeBegin { epoch: 2, rows: 0 })
            .unwrap();
        // Splice the *second* record (seq 2) in front: valid CRC, wrong seq.
        let half = a.len() / 2;
        let image = a.image()[half..].to_vec();
        let rep = replay(&s, &image);
        assert_eq!(rep.replayed, 0);
        assert_eq!(rep.discarded, 1);
        assert!(rep.damage.is_some());
    }

    #[test]
    fn empty_image_is_a_clean_empty_log() {
        let s = schema();
        let (wal, rep) = Wal::open(s, &[]);
        assert_eq!(rep.replayed, 0);
        assert_eq!(rep.discarded, 0);
        assert_eq!(rep.damage, None);
        assert!(wal.is_empty());
        assert_eq!(wal.next_seq(), 1);
    }

    #[test]
    fn fault_injector_damage_is_deterministic_and_recoverable() {
        let s = schema();
        let mut wal = Wal::new(s.clone());
        for i in 0..200 {
            wal.append(&WalRecord::Insert {
                rows: vec![row(i, "ab")],
            })
            .unwrap();
        }
        let spec = FaultSpec::at_rate(7, 400_000);
        let d1 = damage_image(spec, 99, 128, wal.image());
        let d2 = damage_image(spec, 99, 128, wal.image());
        assert_eq!(d1, d2, "damage must be a pure function of the spec");
        assert_ne!(
            d1,
            wal.image(),
            "at 40% per 128-byte chunk something must fire"
        );
        let rep = replay(&s, &d1);
        // Recovery keeps a (possibly empty) valid prefix of the acknowledged
        // records, in order, and reports the damage.
        assert!(rep.replayed < 200);
        assert!(rep.damage.is_some());
        for (i, (seq, _)) in rep.records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
        }
    }
}
