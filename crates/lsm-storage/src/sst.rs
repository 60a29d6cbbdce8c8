//! Sorted String Table (SST) files.
//!
//! An SST is an immutable, sorted file of internal-key → value entries,
//! produced by flushing a memtable or by compaction. Layout:
//!
//! ```text
//! [data block 0][crc32]
//! [data block 1][crc32]
//! ...
//! [bloom filter block][crc32]
//! [index block][crc32]          // last key of each data block -> block handle
//! [footer]                      // fixed 72 bytes, see Footer
//! ```
//!
//! Index blocks and bloom filters are assumed to be cached in memory, exactly
//! as the paper assumes in its cost analysis (Section 2.1): [`Table::open`]
//! parses both once and keeps them resident, so a probe costs one binary
//! search of the index plus one data block, which is read in its encoded form
//! (from the block cache when attached) and searched in place.

use std::sync::Arc;

use crate::block::{Block, BlockBuilder, BlockCursor};
use crate::bloom::{BloomFilter, BloomFilterBuilder};
use crate::cache::{BlockCache, ScopedCache};
use crate::checksum::crc32;
use crate::coding::{get_u32, put_u32, put_u64, Decoder};
use crate::error::{Error, Result};
use crate::iterator::KvIterator;
use crate::storage::{RandomAccessFile, StorageRef, WritableFile};
use crate::types::{InternalKey, UserKey, INTERNAL_KEY_LEN};

/// Magic number identifying an SST footer.
const SST_MAGIC: u64 = 0x4C41_5345_5253_5354; // "LASERSST"

/// Fixed footer size in bytes.
const FOOTER_SIZE: usize = 80;

/// Location of a block within an SST file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHandle {
    /// Byte offset of the block within the file.
    pub offset: u64,
    /// Length of the block in bytes (excluding the trailing checksum).
    pub size: u64,
}

impl BlockHandle {
    fn encode_to(&self, dst: &mut Vec<u8>) {
        put_u64(dst, self.offset);
        put_u64(dst, self.size);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        Ok(BlockHandle {
            offset: d.u64()?,
            size: d.u64()?,
        })
    }

    /// True if the block and its trailing checksum lie inside a file of
    /// `file_size` bytes.
    fn fits_in(&self, file_size: u64) -> bool {
        self.offset
            .checked_add(self.size)
            .and_then(|end| end.checked_add(4))
            .is_some_and(|end| end <= file_size)
    }
}

/// Options controlling SST construction.
#[derive(Debug, Clone)]
pub struct TableOptions {
    /// Target uncompressed size of a data block in bytes (RocksDB default: 4 KiB).
    pub block_size: usize,
    /// Bloom filter bits per key (10 ≈ 1% false-positive rate).
    pub bloom_bits_per_key: usize,
    /// Restart interval for key prefix compression inside data blocks.
    pub restart_interval: usize,
    /// Whether to delta/prefix-encode keys within data blocks.
    pub prefix_compression: bool,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions {
            block_size: 4096,
            bloom_bits_per_key: 10,
            restart_interval: 16,
            prefix_compression: true,
        }
    }
}

/// Summary metadata about a finished SST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableProperties {
    /// Number of entries in the table.
    pub num_entries: u64,
    /// Smallest user key present.
    pub min_user_key: UserKey,
    /// Largest user key present.
    pub max_user_key: UserKey,
    /// Total file size in bytes.
    pub file_size: u64,
    /// Number of data blocks.
    pub num_data_blocks: u64,
    /// Smallest sequence number present (proxy for the age of the newest data).
    pub min_seq: u64,
    /// Largest sequence number present.
    pub max_seq: u64,
}

#[derive(Debug, Clone)]
struct Footer {
    bloom_handle: BlockHandle,
    index_handle: BlockHandle,
    num_entries: u64,
    min_user_key: UserKey,
    max_user_key: UserKey,
    min_seq: u64,
    max_seq: u64,
}

impl Footer {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FOOTER_SIZE);
        self.bloom_handle.encode_to(&mut out);
        self.index_handle.encode_to(&mut out);
        put_u64(&mut out, self.num_entries);
        put_u64(&mut out, self.min_user_key);
        put_u64(&mut out, self.max_user_key);
        put_u64(&mut out, self.min_seq);
        put_u64(&mut out, self.max_seq);
        put_u64(&mut out, SST_MAGIC);
        debug_assert_eq!(out.len(), FOOTER_SIZE);
        out
    }

    fn decode(buf: &[u8]) -> Result<Self> {
        if buf.len() != FOOTER_SIZE {
            return Err(Error::corruption("sst footer has wrong size"));
        }
        let mut d = Decoder::new(buf);
        let bloom_handle = BlockHandle::decode(&mut d)?;
        let index_handle = BlockHandle::decode(&mut d)?;
        let num_entries = d.u64()?;
        let min_user_key = d.u64()?;
        let max_user_key = d.u64()?;
        let min_seq = d.u64()?;
        let max_seq = d.u64()?;
        let magic = d.u64()?;
        if magic != SST_MAGIC {
            return Err(Error::corruption("bad sst magic number"));
        }
        Ok(Footer {
            bloom_handle,
            index_handle,
            num_entries,
            min_user_key,
            max_user_key,
            min_seq,
            max_seq,
        })
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Builds an SST by appending internal-key/value pairs in sorted order.
pub struct TableBuilder {
    file: Box<dyn WritableFile>,
    options: TableOptions,
    data_block: BlockBuilder,
    index_block: BlockBuilder,
    bloom: BloomFilterBuilder,
    offset: u64,
    num_entries: u64,
    num_data_blocks: u64,
    min_user_key: Option<UserKey>,
    max_user_key: Option<UserKey>,
    min_seq: u64,
    max_seq: u64,
    last_key: Vec<u8>,
}

impl TableBuilder {
    /// Creates a builder writing to `file`.
    pub fn new(file: Box<dyn WritableFile>, options: TableOptions) -> Self {
        let mut data_block = BlockBuilder::with_restart_interval(options.restart_interval);
        data_block.set_prefix_compression(options.prefix_compression);
        TableBuilder {
            bloom: BloomFilterBuilder::new(options.bloom_bits_per_key),
            data_block,
            index_block: BlockBuilder::new(),
            file,
            options,
            offset: 0,
            num_entries: 0,
            num_data_blocks: 0,
            min_user_key: None,
            max_user_key: None,
            min_seq: u64::MAX,
            max_seq: 0,
            last_key: Vec::new(),
        }
    }

    /// Adds an entry. `key` is an encoded [`InternalKey`]; entries must be
    /// added in strictly increasing encoded-key order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if !self.last_key.is_empty() && key <= self.last_key.as_slice() {
            return Err(Error::invalid(
                "sst entries must be added in increasing key order",
            ));
        }
        let decoded = InternalKey::decode(key)?;
        let user_key = decoded.user_key;
        if self.min_user_key.is_none() {
            self.min_user_key = Some(user_key);
        }
        self.max_user_key = Some(user_key);
        self.min_seq = self.min_seq.min(decoded.seq);
        self.max_seq = self.max_seq.max(decoded.seq);
        self.bloom.add(&user_key.to_be_bytes());
        self.data_block.add(key, value)?;
        self.num_entries += 1;
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        if self.data_block.size_estimate() >= self.options.block_size {
            self.flush_data_block()?;
        }
        Ok(())
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Approximate current file size in bytes.
    pub fn estimated_size(&self) -> u64 {
        self.offset + self.data_block.size_estimate() as u64
    }

    fn flush_data_block(&mut self) -> Result<()> {
        if self.data_block.is_empty() {
            return Ok(());
        }
        let last_key = self.data_block.last_key().to_vec();
        let contents = self.data_block.finish();
        let handle = self.write_block(&contents)?;
        let mut handle_enc = Vec::with_capacity(16);
        handle.encode_to(&mut handle_enc);
        self.index_block.add(&last_key, &handle_enc)?;
        self.num_data_blocks += 1;
        Ok(())
    }

    fn write_block(&mut self, contents: &[u8]) -> Result<BlockHandle> {
        let handle = BlockHandle {
            offset: self.offset,
            size: contents.len() as u64,
        };
        let mut trailer = Vec::with_capacity(4);
        put_u32(&mut trailer, crc32(contents));
        self.file.append(contents)?;
        self.file.append(&trailer)?;
        self.offset += contents.len() as u64 + 4;
        Ok(handle)
    }

    /// Finishes the table, returning its properties. The file is synced.
    pub fn finish(mut self) -> Result<TableProperties> {
        if self.num_entries == 0 {
            return Err(Error::invalid("cannot finish an empty sst"));
        }
        self.flush_data_block()?;
        let bloom_contents = self.bloom.finish();
        let bloom_handle = self.write_block(&bloom_contents)?;
        let index_contents = self.index_block.finish();
        let index_handle = self.write_block(&index_contents)?;
        let footer = Footer {
            bloom_handle,
            index_handle,
            num_entries: self.num_entries,
            min_user_key: self.min_user_key.unwrap_or(0),
            max_user_key: self.max_user_key.unwrap_or(0),
            min_seq: self.min_seq,
            max_seq: self.max_seq,
        };
        self.file.append(&footer.encode())?;
        self.offset += FOOTER_SIZE as u64;
        self.file.sync()?;
        Ok(TableProperties {
            num_entries: self.num_entries,
            min_user_key: footer.min_user_key,
            max_user_key: footer.max_user_key,
            file_size: self.offset,
            num_data_blocks: self.num_data_blocks,
            min_seq: footer.min_seq,
            max_seq: footer.max_seq,
        })
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One entry of a table's resident index: the last key of a data block and
/// where the block lies in the file.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    last_key: [u8; INTERNAL_KEY_LEN],
    handle: BlockHandle,
}

/// Parses an index block into its resident form. Every entry must carry an
/// encoded internal key and a handle that lies inside the file.
fn parse_index(block: &Block, file_size: u64) -> Result<Vec<IndexEntry>> {
    let mut index = Vec::new();
    let mut it = block.iter();
    it.seek_to_first()?;
    while it.valid() {
        let last_key = it
            .key()
            .try_into()
            .map_err(|_| Error::corruption("sst index key is not an internal key"))?;
        let handle = BlockHandle::decode(&mut Decoder::new(it.value()))?;
        if !handle.fits_in(file_size) {
            return Err(Error::corruption("sst index entry points outside the file"));
        }
        index.push(IndexEntry { last_key, handle });
        it.next_entry()?;
    }
    Ok(index)
}

/// An open, immutable SST.
pub struct Table {
    file: Box<dyn RandomAccessFile>,
    /// The index block, parsed once at open: one entry per data block, in
    /// key order.
    index: Vec<IndexEntry>,
    bloom: BloomFilter,
    props: TableProperties,
    name: String,
    /// Shared block cache plus this table's process-unique cache id. Ids are
    /// handed out per *open*, never reused, so cached blocks of a replaced or
    /// deleted SST can never leak into reads of a newer file.
    cache: Option<(Arc<BlockCache>, u64)>,
}

impl Drop for Table {
    fn drop(&mut self) {
        if let Some((cache, id)) = &self.cache {
            cache.evict_table(*id);
        }
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("props", &self.props)
            .finish()
    }
}

impl Table {
    /// Opens an SST by name from a storage backend (no block cache).
    pub fn open(storage: &StorageRef, name: &str) -> Result<Arc<Table>> {
        Self::open_with_cache(storage, name, None)
    }

    /// Opens an SST, serving data-block reads through `cache` when given.
    /// The scope of the handle decides which accounting scope of the shared
    /// cache this table's blocks charge (see [`ScopedCache`]).
    pub fn open_with_cache(
        storage: &StorageRef,
        name: &str,
        cache: Option<ScopedCache>,
    ) -> Result<Arc<Table>> {
        let file = storage.open(name)?;
        let file_size = file.len();
        if file_size < FOOTER_SIZE as u64 {
            return Err(Error::corruption(format!("sst {name} smaller than footer")));
        }
        let footer_buf = file.read_at(file_size - FOOTER_SIZE as u64, FOOTER_SIZE)?;
        let footer = Footer::decode(&footer_buf)?;
        if !footer.index_handle.fits_in(file_size) || !footer.bloom_handle.fits_in(file_size) {
            return Err(Error::corruption(format!(
                "sst {name} footer points outside the file"
            )));
        }
        let index_block = Block::decode(read_verified_block(file.as_ref(), footer.index_handle)?)?;
        let index = parse_index(&index_block, file_size)?;
        let bloom_data = read_verified_block(file.as_ref(), footer.bloom_handle)?;
        let bloom = BloomFilter::decode(&bloom_data)?;
        let cache = cache.map(|c| {
            let id = c.register_table();
            (Arc::clone(c.cache()), id)
        });
        Ok(Arc::new(Table {
            file,
            bloom,
            cache,
            props: TableProperties {
                num_entries: footer.num_entries,
                min_user_key: footer.min_user_key,
                max_user_key: footer.max_user_key,
                file_size,
                num_data_blocks: index.len() as u64,
                min_seq: footer.min_seq,
                max_seq: footer.max_seq,
            },
            index,
            name: name.to_string(),
        }))
    }

    /// Table metadata.
    pub fn properties(&self) -> &TableProperties {
        &self.props
    }

    /// The file name this table was opened from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns false if the bloom filter proves `user_key` is absent.
    pub fn may_contain(&self, user_key: UserKey) -> bool {
        if user_key < self.props.min_user_key || user_key > self.props.max_user_key {
            return false;
        }
        self.bloom.may_contain(&user_key.to_be_bytes())
    }

    /// Returns true if this table's user-key range overlaps `[lo, hi]`.
    pub fn overlaps(&self, lo: UserKey, hi: UserKey) -> bool {
        self.props.min_user_key <= hi && lo <= self.props.max_user_key
    }

    /// Returns true if some entry's user key lies outside `[lo, hi]`. Unlike
    /// the (possibly clamped) manifest metadata, this consults the footer's
    /// *content* bounds — a table adopted into a range-restricted shard
    /// reports true here until a trim compaction rewrites it.
    pub fn spans_outside(&self, lo: UserKey, hi: UserKey) -> bool {
        self.props.min_user_key < lo || self.props.max_user_key > hi
    }

    /// Index of the first data block whose last key is >= `target`: the only
    /// block that can hold the first entry at or after `target`. Equals the
    /// number of blocks when `target` is past the table's last key.
    fn block_for(&self, target: &[u8]) -> usize {
        self.index
            .partition_point(|entry| entry.last_key.as_slice() < target)
    }

    /// Returns data block `idx`, consulting the shared block cache first when
    /// one is attached.
    fn block(&self, idx: usize) -> Result<Arc<Block>> {
        if let Some((cache, id)) = &self.cache {
            if let Some(block) = cache.get(*id, idx as u32) {
                return Ok(block);
            }
        }
        let data = read_verified_block(self.file.as_ref(), self.index[idx].handle)?;
        let block = Arc::new(Block::decode(data)?);
        if let Some((cache, id)) = &self.cache {
            cache.insert(*id, idx as u32, Arc::clone(&block));
        }
        Ok(block)
    }
}

/// Shared handle to an open table plus convenience lookup operations.
#[derive(Clone, Debug)]
pub struct TableHandle(pub Arc<Table>);

impl TableHandle {
    /// Opens an SST and wraps it in a handle (no block cache).
    pub fn open(storage: &StorageRef, name: &str) -> Result<TableHandle> {
        Ok(TableHandle(Table::open(storage, name)?))
    }

    /// Opens an SST with an attached shared block cache.
    pub fn open_with_cache(
        storage: &StorageRef,
        name: &str,
        cache: Option<ScopedCache>,
    ) -> Result<TableHandle> {
        Ok(TableHandle(Table::open_with_cache(storage, name, cache)?))
    }

    /// Table metadata.
    pub fn properties(&self) -> &TableProperties {
        self.0.properties()
    }

    /// The underlying file name.
    pub fn name(&self) -> &str {
        self.0.name()
    }

    /// Bloom + range check.
    pub fn may_contain(&self, user_key: UserKey) -> bool {
        self.0.may_contain(user_key)
    }

    /// Range overlap check.
    pub fn overlaps(&self, lo: UserKey, hi: UserKey) -> bool {
        self.0.overlaps(lo, hi)
    }

    /// True if some entry's user key lies outside `[lo, hi]` (see
    /// [`Table::spans_outside`]).
    pub fn spans_outside(&self, lo: UserKey, hi: UserKey) -> bool {
        self.0.spans_outside(lo, hi)
    }

    /// Creates an iterator over the whole table.
    pub fn iter(&self) -> TableIterator {
        TableIterator::new(Arc::clone(&self.0))
    }

    /// Point lookup: newest version of `user_key` visible at `seq`.
    pub fn get(&self, user_key: UserKey, seq: u64) -> Result<Option<(InternalKey, Vec<u8>)>> {
        if !self.may_contain(user_key) {
            return Ok(None);
        }
        let mut iter = self.iter();
        let target = InternalKey::seek_to(user_key);
        iter.seek(&target.encode())?;
        while iter.valid() {
            let ik = InternalKey::decode(iter.key())?;
            if ik.user_key != user_key {
                return Ok(None);
            }
            if ik.seq <= seq {
                return Ok(Some((ik, iter.value().to_vec())));
            }
            iter.next()?;
        }
        Ok(None)
    }
}

/// Reads a block and checks its trailing checksum, returning the contents
/// in the buffer they were read into.
fn read_verified_block(file: &dyn RandomAccessFile, handle: BlockHandle) -> Result<Vec<u8>> {
    let size = handle.size as usize;
    let mut buf = file.read_at(handle.offset, size + 4)?;
    if buf.len() != size + 4 {
        return Err(Error::corruption("short read for block"));
    }
    let stored = get_u32(&buf[size..])?;
    buf.truncate(size);
    let actual = crc32(&buf);
    if stored != actual {
        return Err(Error::corruption(format!(
            "block checksum mismatch at offset {}: stored {stored:#x} computed {actual:#x}",
            handle.offset
        )));
    }
    Ok(buf)
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

/// Iterates all entries of a table in key order, holding one encoded data
/// block at a time (shared with the block cache) and walking it in place:
/// creating one costs nothing, a seek is a binary search of the table's
/// resident index plus a restart-point search inside one block, and
/// advancing within a block neither allocates nor copies a value.
pub struct TableIterator {
    table: Arc<Table>,
    /// Index of the data block the cursor is in.
    block_idx: usize,
    /// The data block the cursor is in; `None` when not positioned.
    block: Option<Arc<Block>>,
    cursor: BlockCursor,
}

impl TableIterator {
    /// Creates an iterator positioned before the first entry.
    pub fn new(table: Arc<Table>) -> Self {
        TableIterator {
            table,
            block_idx: 0,
            block: None,
            cursor: BlockCursor::default(),
        }
    }

    /// Positions on the first entry of the first non-empty block at or after
    /// `idx`, or nowhere if there is none.
    fn first_entry_from(&mut self, mut idx: usize) -> Result<()> {
        self.block = None;
        while idx < self.table.index.len() {
            let block = self.table.block(idx)?;
            self.cursor.seek_to_first(&block)?;
            if self.cursor.valid() {
                self.block_idx = idx;
                self.block = Some(block);
                return Ok(());
            }
            idx += 1;
        }
        Ok(())
    }
}

impl KvIterator for TableIterator {
    fn seek_to_first(&mut self) -> Result<()> {
        self.first_entry_from(0)
    }

    fn seek(&mut self, target: &[u8]) -> Result<()> {
        self.block = None;
        let idx = self.table.block_for(target);
        if idx == self.table.index.len() {
            return Ok(());
        }
        let block = self.table.block(idx)?;
        self.cursor.seek(&block, target)?;
        if self.cursor.valid() {
            self.block_idx = idx;
            self.block = Some(block);
            return Ok(());
        }
        // Only an index key larger than its block's last key gets here.
        self.first_entry_from(idx + 1)
    }

    fn next(&mut self) -> Result<()> {
        let Some(block) = &self.block else {
            return Ok(());
        };
        self.cursor.next_entry(block)?;
        if self.cursor.valid() {
            return Ok(());
        }
        self.first_entry_from(self.block_idx + 1)
    }

    fn valid(&self) -> bool {
        self.block.is_some() && self.cursor.valid()
    }

    fn key(&self) -> &[u8] {
        self.cursor.key()
    }

    fn value(&self) -> &[u8] {
        self.cursor
            .value(self.block.as_ref().expect("iterator not valid"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use crate::types::ValueKind;

    fn make_table(entries: &[(u64, u64, ValueKind, &[u8])]) -> (StorageRef, TableHandle) {
        let storage: StorageRef = MemStorage::new_ref();
        let file = storage.create("test.sst").unwrap();
        let mut builder = TableBuilder::new(file, TableOptions::default());
        for &(key, seq, kind, value) in entries {
            let ik = InternalKey::new(key, seq, kind);
            builder.add(&ik.encode(), value).unwrap();
        }
        builder.finish().unwrap();
        let handle = TableHandle::open(&storage, "test.sst").unwrap();
        (storage, handle)
    }

    #[test]
    fn build_and_read_small_table() {
        let entries: Vec<(u64, u64, ValueKind, &[u8])> = vec![
            (1, 10, ValueKind::Full, b"one"),
            (2, 11, ValueKind::Full, b"two"),
            (3, 12, ValueKind::Full, b"three"),
        ];
        let (_s, table) = make_table(&entries);
        let props = table.properties().clone();
        assert_eq!(props.num_entries, 3);
        assert_eq!(props.min_user_key, 1);
        assert_eq!(props.max_user_key, 3);

        let mut it = table.iter();
        it.seek_to_first().unwrap();
        let mut seen = Vec::new();
        while it.valid() {
            let ik = InternalKey::decode(it.key()).unwrap();
            seen.push((ik.user_key, it.value().to_vec()));
            it.next().unwrap();
        }
        assert_eq!(
            seen,
            vec![
                (1, b"one".to_vec()),
                (2, b"two".to_vec()),
                (3, b"three".to_vec())
            ]
        );
    }

    #[test]
    fn multi_block_table_roundtrip() {
        let value = vec![7u8; 100];
        let entries: Vec<(u64, u64, ValueKind, &[u8])> = (0..2000u64)
            .map(|i| (i, 1, ValueKind::Full, value.as_slice()))
            .collect();
        let (_s, table) = make_table(&entries);
        assert!(
            table.properties().num_data_blocks > 10,
            "expected many data blocks"
        );
        let mut it = table.iter();
        it.seek_to_first().unwrap();
        let mut count = 0u64;
        while it.valid() {
            let ik = InternalKey::decode(it.key()).unwrap();
            assert_eq!(ik.user_key, count);
            count += 1;
            it.next().unwrap();
        }
        assert_eq!(count, 2000);
    }

    #[test]
    fn seek_lands_on_correct_entry() {
        let value = vec![1u8; 64];
        let entries: Vec<(u64, u64, ValueKind, &[u8])> = (0..1000u64)
            .map(|i| (i * 3, 1, ValueKind::Full, value.as_slice()))
            .collect();
        let (_s, table) = make_table(&entries);
        let mut it = table.iter();
        // Exact hit.
        it.seek(&InternalKey::seek_to(300).encode()).unwrap();
        assert!(it.valid());
        assert_eq!(InternalKey::decode(it.key()).unwrap().user_key, 300);
        // Between keys: next larger.
        it.seek(&InternalKey::seek_to(301).encode()).unwrap();
        assert!(it.valid());
        assert_eq!(InternalKey::decode(it.key()).unwrap().user_key, 303);
        // Past the end.
        it.seek(&InternalKey::seek_to(10_000).encode()).unwrap();
        assert!(!it.valid());
        // Before the beginning.
        it.seek(&InternalKey::seek_to(0).encode()).unwrap();
        assert!(it.valid());
        assert_eq!(InternalKey::decode(it.key()).unwrap().user_key, 0);
    }

    #[test]
    fn get_returns_newest_visible_version() {
        let entries: Vec<(u64, u64, ValueKind, &[u8])> = vec![
            (5, 30, ValueKind::Full, b"v3"),
            (5, 20, ValueKind::Full, b"v2"),
            (5, 10, ValueKind::Full, b"v1"),
            (7, 15, ValueKind::Tombstone, b""),
        ];
        let (_s, table) = make_table(&entries);
        // Latest.
        let (ik, v) = table.get(5, u64::MAX >> 8).unwrap().unwrap();
        assert_eq!((ik.seq, v.as_slice()), (30, &b"v3"[..]));
        // Snapshot in the past.
        let (ik, v) = table.get(5, 25).unwrap().unwrap();
        assert_eq!((ik.seq, v.as_slice()), (20, &b"v2"[..]));
        let (ik, _) = table.get(5, 10).unwrap().unwrap();
        assert_eq!(ik.seq, 10);
        // Before any version existed.
        assert!(table.get(5, 5).unwrap().is_none());
        // Tombstones are surfaced, not hidden.
        let (ik, _) = table.get(7, u64::MAX >> 8).unwrap().unwrap();
        assert_eq!(ik.kind, ValueKind::Tombstone);
        // Missing key.
        assert!(table.get(100, u64::MAX >> 8).unwrap().is_none());
    }

    #[test]
    fn bloom_filter_skips_absent_keys() {
        let entries: Vec<(u64, u64, ValueKind, &[u8])> = (0..100u64)
            .map(|i| (i * 2, 1, ValueKind::Full, &b"v"[..]))
            .collect();
        let (_s, table) = make_table(&entries);
        assert!(table.may_contain(50));
        assert!(
            !table.may_contain(1_000_000),
            "out of range must be excluded"
        );
        // Odd keys inside the range: mostly excluded by the bloom filter.
        let mut excluded = 0;
        for i in 0..100u64 {
            if !table.may_contain(i * 2 + 1) {
                excluded += 1;
            }
        }
        assert!(
            excluded > 90,
            "bloom filter should exclude most absent keys, excluded {excluded}"
        );
    }

    #[test]
    fn unsorted_input_rejected() {
        let storage: StorageRef = MemStorage::new_ref();
        let file = storage.create("bad.sst").unwrap();
        let mut builder = TableBuilder::new(file, TableOptions::default());
        builder
            .add(&InternalKey::new(5, 1, ValueKind::Full).encode(), b"x")
            .unwrap();
        assert!(builder
            .add(&InternalKey::new(4, 1, ValueKind::Full).encode(), b"y")
            .is_err());
    }

    #[test]
    fn empty_table_rejected() {
        let storage: StorageRef = MemStorage::new_ref();
        let file = storage.create("empty.sst").unwrap();
        let builder = TableBuilder::new(file, TableOptions::default());
        assert!(builder.finish().is_err());
    }

    #[test]
    fn corruption_detected() {
        let storage: StorageRef = MemStorage::new_ref();
        {
            let file = storage.create("c.sst").unwrap();
            let mut builder = TableBuilder::new(file, TableOptions::default());
            for i in 0..100u64 {
                builder
                    .add(
                        &InternalKey::new(i, 1, ValueKind::Full).encode(),
                        &[0u8; 32],
                    )
                    .unwrap();
            }
            builder.finish().unwrap();
        }
        // Flip a byte in the middle of the file (inside a data block) and
        // rewrite the file.
        let original = storage.open("c.sst").unwrap().read_all().unwrap();
        let mut corrupted = original.clone();
        corrupted[100] ^= 0xFF;
        let mut f = storage.create("c.sst").unwrap();
        f.append(&corrupted).unwrap();
        let table = TableHandle::open(&storage, "c.sst").unwrap();
        let mut it = table.iter();
        let err = it.seek_to_first();
        assert!(err.is_err(), "corrupted data block must fail checksum");
    }

    /// The on-disk format is pinned: for a fixed input the builder writes,
    /// byte for byte, what it wrote before the reader learned to work on
    /// encoded blocks in place (lengths and FNV-1a digests taken from that
    /// commit), so files of either age open under either reader.
    #[test]
    fn builder_output_matches_the_pinned_format() {
        let compact = TableOptions {
            block_size: 512,
            restart_interval: 1,
            prefix_compression: false,
            ..TableOptions::default()
        };
        for (options, len, digest) in [
            (
                TableOptions::default(),
                66_307,
                16_122_606_059_140_713_840u64,
            ),
            (compact, 88_671, 15_694_803_836_233_692_716),
        ] {
            let storage: StorageRef = MemStorage::new_ref();
            let mut builder = TableBuilder::new(storage.create("g.sst").unwrap(), options);
            for key in 0..600u64 {
                for seq in (1..=1 + key % 3).rev() {
                    let kind = match (key + seq) % 7 {
                        0 => ValueKind::Tombstone,
                        1 => ValueKind::Partial,
                        _ => ValueKind::Full,
                    };
                    let value = vec![(key * 31 + seq) as u8; (key % 90) as usize];
                    builder
                        .add(&InternalKey::new(key * 5, seq, kind).encode(), &value)
                        .unwrap();
                }
            }
            builder.finish().unwrap();
            let bytes = storage.open("g.sst").unwrap().read_all().unwrap();
            let fnv = crate::hash::fnv1a_64_fold(crate::hash::FNV1A_64_OFFSET, &bytes);
            assert_eq!((bytes.len(), fnv), (len, digest));
        }
    }

    /// An index entry the reader cannot use fails the open: it is neither
    /// dropped (leaving a hole in the table) nor deferred to the first read.
    #[test]
    fn malformed_index_entry_fails_the_open() {
        let past_the_data = InternalKey::new(u64::MAX, 1, ValueKind::Full).encode();
        let mut outside = Vec::new();
        BlockHandle {
            offset: 1 << 40,
            size: 64,
        }
        .encode_to(&mut outside);
        let cases: [(&[u8], &[u8]); 3] = [
            (&[0xFF; 5], &outside[..]),      // key is not an internal key
            (&past_the_data, &outside[..7]), // handle is truncated
            (&past_the_data, &outside[..]),  // handle points outside the file
        ];
        for (key, handle) in cases {
            let storage: StorageRef = MemStorage::new_ref();
            let mut builder =
                TableBuilder::new(storage.create("m.sst").unwrap(), TableOptions::default());
            builder
                .add(&InternalKey::new(1, 1, ValueKind::Full).encode(), b"v")
                .unwrap();
            builder.flush_data_block().unwrap();
            builder.index_block.add(key, handle).unwrap();
            builder.finish().unwrap();
            let err = TableHandle::open(&storage, "m.sst").unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "{err:?}");
        }
    }

    #[test]
    fn overlap_checks() {
        let entries: Vec<(u64, u64, ValueKind, &[u8])> = vec![
            (10, 1, ValueKind::Full, b"a"),
            (20, 1, ValueKind::Full, b"b"),
        ];
        let (_s, table) = make_table(&entries);
        assert!(table.overlaps(15, 25));
        assert!(table.overlaps(0, 10));
        assert!(table.overlaps(20, 30));
        assert!(!table.overlaps(21, 30));
        assert!(!table.overlaps(0, 9));
    }
}
