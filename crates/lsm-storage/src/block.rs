//! Data block format with restart points and key prefix (delta) compression.
//!
//! A block is a sequence of key/value entries sorted by key. Keys are
//! delta-encoded against the previous key: each entry stores how many leading
//! bytes it shares with its predecessor plus the non-shared suffix. Every
//! `restart_interval` entries a full key is stored ("restart point"), and the
//! offsets of all restart points are appended at the end of the block so a
//! reader can binary-search them.
//!
//! This is the "delta-encoding the keys within each data block" optimisation
//! the paper reports for LASER's simulated column-group representation
//! (Section 4.1), and the same layout LevelDB/RocksDB use.
//!
//! Layout:
//! ```text
//! entry*  = [shared: varint][non_shared: varint][value_len: varint][key suffix][value]
//! trailer = [restart offset: u32]* [num_restarts: u32]
//! ```

use crate::coding::{get_u32, put_u32, put_varint32, Decoder};
use crate::error::{Error, Result};

/// Default number of entries between restart points.
pub const DEFAULT_RESTART_INTERVAL: usize = 16;

/// Builds a single data block.
#[derive(Debug)]
pub struct BlockBuilder {
    buf: Vec<u8>,
    restarts: Vec<u32>,
    restart_interval: usize,
    count_since_restart: usize,
    last_key: Vec<u8>,
    num_entries: usize,
    /// When false, keys are stored in full (no prefix compression); used by
    /// the storage-size experiment to quantify the benefit of delta encoding.
    prefix_compression: bool,
}

impl BlockBuilder {
    /// Creates a builder with the default restart interval.
    pub fn new() -> Self {
        Self::with_restart_interval(DEFAULT_RESTART_INTERVAL)
    }

    /// Creates a builder with a custom restart interval.
    pub fn with_restart_interval(restart_interval: usize) -> Self {
        BlockBuilder {
            buf: Vec::new(),
            restarts: vec![0],
            restart_interval: restart_interval.max(1),
            count_since_restart: 0,
            last_key: Vec::new(),
            num_entries: 0,
            prefix_compression: true,
        }
    }

    /// Disables key prefix compression (every key stored in full).
    pub fn set_prefix_compression(&mut self, enabled: bool) {
        self.prefix_compression = enabled;
    }

    /// Adds a key/value pair. Keys must be added in strictly increasing order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if self.num_entries > 0 && key <= self.last_key.as_slice() {
            return Err(Error::invalid(
                "keys must be added to a block in strictly increasing order",
            ));
        }
        let shared = if self.count_since_restart < self.restart_interval && self.prefix_compression
        {
            shared_prefix_len(&self.last_key, key)
        } else {
            self.restarts.push(self.buf.len() as u32);
            self.count_since_restart = 0;
            0
        };
        let non_shared = key.len() - shared;
        put_varint32(&mut self.buf, shared as u32);
        put_varint32(&mut self.buf, non_shared as u32);
        put_varint32(&mut self.buf, value.len() as u32);
        self.buf.extend_from_slice(&key[shared..]);
        self.buf.extend_from_slice(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.num_entries += 1;
        self.count_since_restart += 1;
        Ok(())
    }

    /// Estimated size of the finished block in bytes.
    pub fn size_estimate(&self) -> usize {
        self.buf.len() + self.restarts.len() * 4 + 4
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> usize {
        self.num_entries
    }

    /// Returns true if no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.num_entries == 0
    }

    /// The last key added (empty slice if none).
    pub fn last_key(&self) -> &[u8] {
        &self.last_key
    }

    /// Finalizes the block, returning its encoded bytes and resetting the builder.
    pub fn finish(&mut self) -> Vec<u8> {
        let mut out = std::mem::take(&mut self.buf);
        for &r in &self.restarts {
            put_u32(&mut out, r);
        }
        put_u32(&mut out, self.restarts.len() as u32);
        self.restarts = vec![0];
        self.count_since_restart = 0;
        self.last_key.clear();
        self.num_entries = 0;
        out
    }
}

impl Default for BlockBuilder {
    fn default() -> Self {
        Self::new()
    }
}

fn shared_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// An encoded data block plus its parsed restart array. Entries are never
/// materialised: readers walk the encoded bytes in place through a
/// [`BlockIter`] (the table iterator through an owned cursor).
#[derive(Debug, Clone)]
pub struct Block {
    data: Vec<u8>,
    restarts: Vec<u32>,
    entries_end: usize,
}

impl Block {
    /// Decodes a block produced by [`BlockBuilder::finish`].
    pub fn decode(data: Vec<u8>) -> Result<Self> {
        if data.len() < 4 {
            return Err(Error::corruption("block too short"));
        }
        let num_restarts = get_u32(&data[data.len() - 4..])? as usize;
        let restarts_size = num_restarts * 4 + 4;
        if data.len() < restarts_size {
            return Err(Error::corruption("block restart array larger than block"));
        }
        let entries_end = data.len() - restarts_size;
        let mut restarts = Vec::with_capacity(num_restarts);
        for i in 0..num_restarts {
            let off = get_u32(&data[entries_end + i * 4..])?;
            if off as usize > entries_end {
                return Err(Error::corruption("restart offset out of range"));
            }
            restarts.push(off);
        }
        Ok(Block {
            data,
            restarts,
            entries_end,
        })
    }

    /// Creates an iterator positioned before the first entry.
    pub fn iter(&self) -> BlockIter<'_> {
        BlockIter {
            block: self,
            cursor: BlockCursor::default(),
        }
    }

    /// Returns all entries as owned pairs.
    #[cfg(test)]
    pub fn entries(&self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut it = self.iter();
        it.seek_to_first()?;
        while it.valid() {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next_entry()?;
        }
        Ok(out)
    }

    /// Total encoded size of the block.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Heap bytes the block holds: its encoded bytes plus the parsed restart
    /// array. This is what the block cache charges for it.
    pub fn heap_bytes(&self) -> usize {
        self.data.len() + self.restarts.len() * std::mem::size_of::<u32>()
    }

    /// The full key stored at a restart point, borrowed from the block.
    fn restart_key(&self, restart_idx: usize) -> Result<&[u8]> {
        let offset = self.restarts[restart_idx] as usize;
        let mut d = Decoder::new(&self.data[offset..self.entries_end]);
        let shared = d.varint32()?;
        let non_shared = d.varint32()? as usize;
        let _value_len = d.varint32()?;
        if shared != 0 {
            return Err(Error::corruption(
                "restart entry has non-zero shared prefix",
            ));
        }
        d.bytes(non_shared)
    }
}

/// The position of a walk over a [`Block`], detached from the block borrow so
/// that an owner of an `Arc<Block>` (the table iterator) can hold both. Every
/// call must be handed the block the cursor was last positioned in.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockCursor {
    /// Offset of the *next* entry to parse.
    offset: usize,
    /// The current key, rebuilt from the shared prefix; the buffer is reused
    /// from entry to entry.
    key: Vec<u8>,
    value_range: (usize, usize),
    valid: bool,
}

impl BlockCursor {
    /// Positions the cursor at the first entry.
    pub(crate) fn seek_to_first(&mut self, block: &Block) -> Result<()> {
        self.offset = 0;
        self.key.clear();
        self.next_entry(block)
    }

    /// Positions the cursor at the first entry whose key is >= `target`.
    pub(crate) fn seek(&mut self, block: &Block, target: &[u8]) -> Result<()> {
        self.valid = false;
        // Binary search for the last restart point whose key is <= target,
        // comparing the keys where they lie in the block.
        let mut lo = 0usize;
        let mut hi = block.restarts.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if block.restart_key(mid)? <= target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.offset = lo.checked_sub(1).map_or(0, |r| block.restarts[r] as usize);
        self.key.clear();
        // Linear scan from the restart point.
        loop {
            self.next_entry(block)?;
            if !self.valid || self.key.as_slice() >= target {
                return Ok(());
            }
        }
    }

    /// Advances to the next entry. After the last entry, `valid()` becomes false.
    pub(crate) fn next_entry(&mut self, block: &Block) -> Result<()> {
        self.valid = false;
        let entries = &block.data[..block.entries_end];
        let rest = match entries.get(self.offset..) {
            Some(rest) if !rest.is_empty() => rest,
            _ => return Ok(()),
        };
        // Three lengths below 128 (short keys, narrow column-group values)
        // are three single-byte varints: skip the general decoder.
        let (shared, non_shared, value_len, header_len) = match *rest {
            [a, b, c, ..] if (a | b | c) < 0x80 => (a as usize, b as usize, c as usize, 3),
            _ => {
                let mut d = Decoder::new(rest);
                (
                    d.varint32()? as usize,
                    d.varint32()? as usize,
                    d.varint32()? as usize,
                    d.position(),
                )
            }
        };
        if shared > self.key.len() {
            return Err(Error::corruption("shared prefix longer than previous key"));
        }
        let value_start = self.offset + header_len + non_shared;
        let value_end = value_start + value_len;
        let suffix = entries
            .get(self.offset + header_len..value_start)
            .filter(|_| value_end <= entries.len())
            .ok_or_else(|| Error::corruption("block entry overflows block"))?;
        self.key.truncate(shared);
        self.key.extend_from_slice(suffix);
        self.value_range = (value_start, value_end);
        self.offset = value_end;
        self.valid = true;
        Ok(())
    }

    /// Returns true while positioned on a valid entry.
    pub(crate) fn valid(&self) -> bool {
        self.valid
    }

    /// The current entry's key.
    pub(crate) fn key(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.key
    }

    /// The current entry's value, borrowed from `block`.
    pub(crate) fn value<'b>(&self, block: &'b Block) -> &'b [u8] {
        debug_assert!(self.valid);
        &block.data[self.value_range.0..self.value_range.1]
    }
}

/// An iterator over the entries of a [`Block`].
#[derive(Debug, Clone)]
pub struct BlockIter<'a> {
    block: &'a Block,
    cursor: BlockCursor,
}

impl<'a> BlockIter<'a> {
    /// Positions the iterator at the first entry.
    pub fn seek_to_first(&mut self) -> Result<()> {
        self.cursor.seek_to_first(self.block)
    }

    /// Positions the iterator at the first entry whose key is >= `target`.
    pub fn seek(&mut self, target: &[u8]) -> Result<()> {
        self.cursor.seek(self.block, target)
    }

    /// Advances to the next entry. After the last entry, `valid()` becomes false.
    pub fn next_entry(&mut self) -> Result<()> {
        self.cursor.next_entry(self.block)
    }

    /// Returns true while positioned on a valid entry.
    pub fn valid(&self) -> bool {
        self.cursor.valid()
    }

    /// The current entry's key. Panics if not valid.
    pub fn key(&self) -> &[u8] {
        self.cursor.key()
    }

    /// The current entry's value. Panics if not valid.
    pub fn value(&self) -> &'a [u8] {
        self.cursor.value(self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(entries: &[(&[u8], &[u8])]) -> Block {
        let mut b = BlockBuilder::new();
        for (k, v) in entries {
            b.add(k, v).unwrap();
        }
        Block::decode(b.finish()).unwrap()
    }

    #[test]
    fn empty_block() {
        let mut b = BlockBuilder::new();
        assert!(b.is_empty());
        let block = Block::decode(b.finish()).unwrap();
        let mut it = block.iter();
        it.seek_to_first().unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn single_entry_roundtrip() {
        let block = build(&[(b"key1", b"value1")]);
        let entries = block.entries().unwrap();
        assert_eq!(entries, vec![(b"key1".to_vec(), b"value1".to_vec())]);
    }

    #[test]
    fn many_entries_roundtrip_and_order() {
        let keys: Vec<Vec<u8>> = (0..1000u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let mut b = BlockBuilder::new();
        for k in &keys {
            b.add(k, &[k[7]; 5]).unwrap();
        }
        assert_eq!(b.num_entries(), 1000);
        let block = Block::decode(b.finish()).unwrap();
        let entries = block.entries().unwrap();
        assert_eq!(entries.len(), 1000);
        for (i, (k, v)) in entries.iter().enumerate() {
            assert_eq!(k, &keys[i]);
            assert_eq!(v, &vec![keys[i][7]; 5]);
        }
    }

    #[test]
    fn out_of_order_keys_rejected() {
        let mut b = BlockBuilder::new();
        b.add(b"b", b"1").unwrap();
        assert!(b.add(b"a", b"2").is_err());
        assert!(b.add(b"b", b"2").is_err(), "duplicate keys rejected");
    }

    #[test]
    fn seek_finds_exact_and_successor() {
        let keys: Vec<Vec<u8>> = (0..200u64)
            .map(|i| (i * 2).to_be_bytes().to_vec())
            .collect();
        let mut b = BlockBuilder::new();
        for k in &keys {
            b.add(k, b"v").unwrap();
        }
        let block = Block::decode(b.finish()).unwrap();
        let mut it = block.iter();
        // Exact key.
        it.seek(&100u64.to_be_bytes()).unwrap();
        assert!(it.valid());
        assert_eq!(it.key(), &100u64.to_be_bytes());
        // Missing key: lands on the successor.
        it.seek(&101u64.to_be_bytes()).unwrap();
        assert!(it.valid());
        assert_eq!(it.key(), &102u64.to_be_bytes());
        // Before the first key.
        it.seek(&0u64.to_be_bytes()).unwrap();
        assert_eq!(it.key(), &0u64.to_be_bytes());
        // Past the last key.
        it.seek(&1_000u64.to_be_bytes()).unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn prefix_compression_shrinks_blocks() {
        let keys: Vec<Vec<u8>> = (0..500u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let mut compressed = BlockBuilder::new();
        let mut raw = BlockBuilder::new();
        raw.set_prefix_compression(false);
        for k in &keys {
            compressed.add(k, b"payload").unwrap();
            raw.add(k, b"payload").unwrap();
        }
        let c = compressed.finish();
        let r = raw.finish();
        assert!(
            c.len() < r.len(),
            "compressed {} !< raw {}",
            c.len(),
            r.len()
        );
        // Both decode to identical content.
        assert_eq!(
            Block::decode(c).unwrap().entries().unwrap(),
            Block::decode(r).unwrap().entries().unwrap()
        );
    }

    #[test]
    fn restart_interval_one_means_no_sharing() {
        let mut b = BlockBuilder::with_restart_interval(1);
        for i in 0..50u64 {
            b.add(&i.to_be_bytes(), b"x").unwrap();
        }
        let block = Block::decode(b.finish()).unwrap();
        assert_eq!(block.entries().unwrap().len(), 50);
        let mut it = block.iter();
        it.seek(&25u64.to_be_bytes()).unwrap();
        assert_eq!(it.key(), &25u64.to_be_bytes());
    }

    #[test]
    fn corrupt_blocks_rejected() {
        assert!(Block::decode(vec![]).is_err());
        assert!(Block::decode(vec![0, 0]).is_err());
        // Claims 100 restarts but block is tiny.
        let mut data = vec![0u8; 4];
        put_u32(&mut data, 100);
        assert!(Block::decode(data).is_err());
    }

    #[test]
    fn iterator_value_contents() {
        let block = build(&[(b"a", b"alpha"), (b"b", b""), (b"c", b"gamma")]);
        let mut it = block.iter();
        it.seek_to_first().unwrap();
        assert_eq!((it.key(), it.value()), (&b"a"[..], &b"alpha"[..]));
        it.next_entry().unwrap();
        assert_eq!((it.key(), it.value()), (&b"b"[..], &b""[..]));
        it.next_entry().unwrap();
        assert_eq!((it.key(), it.value()), (&b"c"[..], &b"gamma"[..]));
        it.next_entry().unwrap();
        assert!(!it.valid());
    }
}
