//! Write-ahead log record codec.
//!
//! Every write batch is appended to the WAL before it is applied to the
//! memtable, so the memtable can be rebuilt after a crash (Section 2.1 of the
//! paper: "New records are inserted into the most recent skiplist and into a
//! write-ahead-log for durability").
//!
//! This module owns only the *record format*; the engines drive the log
//! through [`crate::wal_segment::SegmentedWal`], which appends encoded
//! records to segment files and manages the segment lifecycle (one segment
//! per memtable, group commit, manifest-tracked GC). Replication ships
//! records in the same encoding.
//!
//! Record format:
//! ```text
//! [length: u32][masked crc32 of payload: u32][seq: u64][payload = encoded WriteBatch]
//! ```
//! Decoding stops at the first corrupt or truncated record (standard
//! behaviour: a torn tail write after a crash must not prevent recovery of the
//! prefix).

use crate::checksum::{crc32, mask, unmask};
use crate::coding::{get_u32, get_u64, put_u32, put_u64};
use crate::error::Result;
use crate::types::{SeqNo, WriteBatch};

/// Header bytes per record: length (4) + crc (4) + starting sequence number (8).
const RECORD_HEADER: usize = 16;

/// A decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Sequence number of the first entry in the batch.
    pub start_seq: SeqNo,
    /// The recovered batch.
    pub batch: WriteBatch,
}

impl WalRecord {
    /// Sequence number of the last entry in the batch (equal to `start_seq`
    /// for a single-entry batch; `start_seq` itself if the batch is somehow
    /// empty).
    pub fn end_seq(&self) -> SeqNo {
        self.start_seq + (self.batch.len() as SeqNo).saturating_sub(1)
    }
}

/// Encodes one record exactly as it lies on disk:
/// `[len][masked crc][start_seq][payload]`. The segment writer appends this
/// image, and replication ships live-tail records in it, so both ends share
/// one codec with the log itself.
pub fn encode_record(start_seq: SeqNo, batch: &WriteBatch) -> Vec<u8> {
    let payload = batch.encode();
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, mask(crc32(&payload)));
    put_u64(&mut out, start_seq);
    out.extend_from_slice(&payload);
    out
}

/// Decodes every intact record of a WAL byte image.
///
/// Returns the records decoded before the first corruption/truncation, a
/// flag saying whether the image ended cleanly (`true`) or a damaged tail
/// was discarded (`false`), and the byte length of the intact prefix.
pub fn decode_records(data: &[u8]) -> Result<(Vec<WalRecord>, bool, u64)> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos + RECORD_HEADER <= data.len() {
        let len = get_u32(&data[pos..])? as usize;
        let stored_crc = unmask(get_u32(&data[pos + 4..])?);
        let start_seq = get_u64(&data[pos + 8..])?;
        let payload_start = pos + RECORD_HEADER;
        let payload_end = payload_start + len;
        if payload_end > data.len() {
            // Torn tail write.
            return Ok((records, false, pos as u64));
        }
        let payload = &data[payload_start..payload_end];
        if crc32(payload) != stored_crc {
            return Ok((records, false, pos as u64));
        }
        match WriteBatch::decode(payload) {
            Ok(batch) => records.push(WalRecord { start_seq, batch }),
            Err(_) => return Ok((records, false, pos as u64)),
        }
        pos = payload_end;
    }
    let clean = pos == data.len();
    Ok((records, clean, pos as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{MemStorage, StorageRef};

    fn batch(keys: &[u64]) -> WriteBatch {
        let mut b = WriteBatch::new();
        for &k in keys {
            b.put(k, k.to_le_bytes().to_vec());
        }
        b
    }

    /// Writes `records` to a fresh log file record by record, as the segment
    /// writer does, and reads the file back.
    fn write_log(records: &[(SeqNo, WriteBatch)]) -> Vec<u8> {
        let storage: StorageRef = MemStorage::new_ref();
        {
            let mut file = storage.create("wal-test").unwrap();
            for (seq, batch) in records {
                file.append(&encode_record(*seq, batch)).unwrap();
            }
            file.sync().unwrap();
        }
        storage.open("wal-test").unwrap().read_all().unwrap()
    }

    #[test]
    fn write_and_recover() {
        let data = write_log(&[
            (1, batch(&[1, 2, 3])),
            (4, batch(&[4])),
            (5, batch(&[5, 6])),
        ]);
        let (records, clean, intact) = decode_records(&data).unwrap();
        assert!(clean);
        assert_eq!(intact, data.len() as u64);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].start_seq, 1);
        assert_eq!(records[0].batch.len(), 3);
        assert_eq!(records[2].start_seq, 5);
        assert_eq!(records[2].batch.len(), 2);
        assert_eq!(records[2].end_seq(), 6);
    }

    #[test]
    fn empty_wal_recovers_cleanly() {
        let (records, clean, intact) = decode_records(&write_log(&[])).unwrap();
        assert!(records.is_empty());
        assert!(clean);
        assert_eq!(intact, 0);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let data = write_log(&[(1, batch(&[1])), (2, batch(&[2]))]);
        // Truncate the image mid-way through the second record.
        let (records, clean, intact) = decode_records(&data[..data.len() - 3]).unwrap();
        assert_eq!(records.len(), 1, "only the intact prefix is recovered");
        assert!(!clean);
        assert_eq!(intact, encode_record(1, &batch(&[1])).len() as u64);
    }

    #[test]
    fn corrupt_payload_is_discarded() {
        let mut data = write_log(&[(1, batch(&[1])), (2, batch(&[2]))]);
        // Flip a byte in the payload of the first record.
        data[RECORD_HEADER + 1] ^= 0xFF;
        let (records, clean, intact) = decode_records(&data).unwrap();
        assert!(
            records.is_empty(),
            "corruption in the first record discards everything after it"
        );
        assert!(!clean);
        assert_eq!(intact, 0);
    }

    #[test]
    fn batches_preserve_kinds() {
        let mut b = WriteBatch::new();
        b.put(1, vec![1]);
        b.put_partial(2, vec![2]);
        b.delete(3);
        let (records, _, _) = decode_records(&write_log(&[(10, b)])).unwrap();
        let entries: Vec<_> = records[0].batch.iter().cloned().collect();
        use crate::types::ValueKind::*;
        assert_eq!(entries[0].kind, Full);
        assert_eq!(entries[1].kind, Partial);
        assert_eq!(entries[2].kind, Tombstone);
    }
}
