//! Allocation guard for the SST read path.
//!
//! The reader works on encoded blocks in place: a point get served from the
//! block cache allocates its key buffer and the value it returns, and a step
//! of a table iterator inside a block allocates nothing. A counting global
//! allocator pins both, so per-entry allocations (a decoded pair vector, a
//! copied restart key, a re-parsed index) cannot come back unnoticed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use laser::lsm_storage::sst::{TableBuilder, TableHandle, TableOptions};
use laser::lsm_storage::storage::{MemStorage, StorageRef};
use laser::lsm_storage::types::{InternalKey, ValueKind, MAX_SEQNO};
use laser::lsm_storage::{BlockCache, KvIterator, ScopedCache};

thread_local! {
    /// Allocations made by this thread. Per thread, so the test harness's
    /// other threads cannot disturb a count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator also runs while a thread tears down its
    // thread-locals.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds. The added counter bump does not
// allocate (a const-initialised `Cell` without destructor) and does not touch
// the memory being managed.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: see the impl-level comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: see the impl-level comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: see the impl-level comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the impl-level comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the number of heap allocations (and
/// reallocations) this thread made meanwhile.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

const KEYS: u64 = 3_000;

/// A multi-block table (two versions of every third key) opened over a cache
/// that holds all of it.
fn cached_table() -> (TableHandle, Arc<BlockCache>) {
    let storage: StorageRef = MemStorage::new_ref();
    let mut builder = TableBuilder::new(storage.create("t.sst").unwrap(), TableOptions::default());
    for key in 0..KEYS {
        for seq in (1..=1 + u64::from(key % 3 == 0)).rev() {
            let ik = InternalKey::new(key, seq, ValueKind::Full);
            builder.add(&ik.encode(), &[key as u8; 100]).unwrap();
        }
    }
    builder.finish().unwrap();
    let cache = BlockCache::new(8 << 20);
    let scoped = ScopedCache::unscoped(Arc::clone(&cache));
    let table = TableHandle::open_with_cache(&storage, "t.sst", Some(scoped)).unwrap();
    assert!(table.properties().num_data_blocks > 50);
    (table, cache)
}

#[test]
fn cache_hit_get_allocates_at_most_twice() {
    let (table, cache) = cached_table();
    // Fill the cache, then keep hitting it until its recency queues have
    // reached their steady capacity.
    for _ in 0..12 {
        for key in 0..KEYS {
            assert!(table.get(key, MAX_SEQNO).unwrap().is_some());
        }
    }
    let misses = cache.stats().misses;
    for key in (0..KEYS).step_by(7) {
        let (found, allocations) = allocations_during(|| table.get(key, MAX_SEQNO).unwrap());
        assert_eq!(found.map(|(ik, _)| ik.user_key), Some(key));
        assert!(
            allocations <= 2,
            "cache-hit get of key {key} made {allocations} allocations"
        );
    }
    assert_eq!(
        cache.stats().misses,
        misses,
        "the measured gets must all hit"
    );
}

#[test]
fn iterator_step_within_a_block_allocates_nothing() {
    let (table, cache) = cached_table();
    let lookups = |cache: &BlockCache| {
        let stats = cache.stats();
        stats.hits + stats.misses
    };
    let mut iter = table.iter();
    iter.seek_to_first().unwrap();
    let (mut rows, mut in_block_steps) = (0u64, 0u64);
    while iter.valid() {
        rows += 1;
        let before = lookups(&cache);
        let ((), allocations) = allocations_during(|| iter.next().unwrap());
        // A step that looked a block up crossed into the next block.
        if lookups(&cache) == before {
            in_block_steps += 1;
            assert_eq!(allocations, 0, "in-block step after row {rows} allocated");
        }
    }
    assert_eq!(rows, table.properties().num_entries);
    assert!(
        in_block_steps > rows / 2,
        "too few in-block steps: {in_block_steps}"
    );
}
