//! A sharded LRU cache for SST data blocks.
//!
//! Point lookups and scans spend most of their time fetching and verifying
//! 4 KiB data blocks. The [`BlockCache`] keeps recently-used blocks in memory
//! in *encoded* form ([`Block`]: the checksummed bytes plus the parsed restart
//! array), so a hot read skips the storage backend and the checksum, and
//! seeks inside the block in place. A block is charged what it holds, so a
//! budget of N bytes caches about N bytes of SST. One cache is shared by
//! every SST of an engine (and may be shared across engines).
//!
//! Keys are `(table_id, block_idx)` where `table_id` is a process-unique id
//! handed out by [`BlockCache::register_table`] each time an SST is opened.
//! Because ids are never reused, blocks of a dropped table (e.g. an SST
//! replaced by compaction) can never be served to a reader of a newer file —
//! even if the file *name* is reused. [`Table`](crate::sst::Table) evicts its
//! blocks eagerly on drop to return the capacity.
//!
//! The cache is split into shards, each protected by its own mutex, so
//! concurrent readers and background compaction threads do not serialise on
//! one lock. Within a shard, eviction is strict LRU implemented with a
//! recency queue that tolerates duplicate entries (each hit appends; stale
//! duplicates are skipped during eviction).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::block::Block;

/// Fixed bookkeeping weight charged per cached block, on top of
/// [`Block::heap_bytes`].
pub const ENTRY_OVERHEAD: usize = 64;

/// Cache key: `(table registration id, data block index)`.
type Key = (u64, u32);

/// Identifier of an accounting scope (e.g. one shard of a sharded engine).
/// Scope 0 always exists and is the default for unscoped registrations.
pub type ScopeId = u32;

struct Entry {
    data: Arc<Block>,
    weight: usize,
    /// Accounting scope of the table this block belongs to.
    scope: ScopeId,
    /// Number of occurrences of this key in the shard's recency queue.
    queue_refs: u32,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Key, Entry>,
    /// Recency queue, oldest at the front. May contain duplicates; an entry's
    /// `queue_refs` counts its occurrences so eviction can skip stale ones.
    queue: VecDeque<Key>,
    used_bytes: usize,
}

impl Shard {
    fn touch(&mut self, key: Key) {
        if let Some(entry) = self.map.get_mut(&key) {
            entry.queue_refs += 1;
            self.queue.push_back(key);
        }
        // Bound queue growth under hit-heavy workloads: rewrite it keeping
        // only the newest occurrence of each key once it gets silly.
        if self.queue.len() > self.map.len() * 4 + 16 {
            self.compact_queue();
        }
    }

    /// Drops every occurrence of a key but its newest, in place: an entry's
    /// `queue_refs` counts its occurrences, so walking from the oldest end
    /// each occurrence met while the count is above one is a stale duplicate.
    /// It allocates nothing, so a cache hit never does once the queue has
    /// grown to its bound.
    fn compact_queue(&mut self) {
        let map = &mut self.map;
        self.queue.retain(|key| match map.get_mut(key) {
            Some(entry) if entry.queue_refs > 1 => {
                entry.queue_refs -= 1;
                false
            }
            Some(_) => true,
            None => false,
        });
    }

    /// Evicts least-recently-used entries until `used_bytes <= capacity`,
    /// discharging each victim's weight from its scope counter. Returns how
    /// many entries were evicted.
    fn evict_to(&mut self, capacity: usize, scope_used: &[Arc<AtomicU64>]) -> u64 {
        let mut evicted = 0;
        while self.used_bytes > capacity {
            let Some(key) = self.queue.pop_front() else {
                break;
            };
            let Some(entry) = self.map.get_mut(&key) else {
                continue;
            };
            entry.queue_refs = entry.queue_refs.saturating_sub(1);
            if entry.queue_refs == 0 {
                let entry = self.map.remove(&key).expect("entry present");
                self.used_bytes -= entry.weight.min(self.used_bytes);
                discharge_scope(scope_used, entry.scope, entry.weight);
                evicted += 1;
            }
        }
        evicted
    }
}

/// Subtracts `weight` from a scope counter, saturating at zero.
fn discharge_scope(scope_used: &[Arc<AtomicU64>], scope: ScopeId, weight: usize) {
    if let Some(counter) = scope_used.get(scope as usize) {
        let mut current = counter.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(weight as u64);
            match counter.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
    }
}

/// Point-in-time counters of a [`BlockCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed and went to storage.
    pub misses: u64,
    /// Blocks inserted.
    pub inserts: u64,
    /// Blocks evicted by capacity pressure or table drop.
    pub evictions: u64,
    /// Current payload bytes held.
    pub used_bytes: u64,
    /// Current number of cached blocks.
    pub entries: u64,
}

impl BlockCacheStats {
    /// Hit rate in `[0, 1]`; zero when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded LRU cache of encoded SST data blocks, shared via `Arc`.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    next_table_id: AtomicU64,
    /// Which accounting scope each registered table charges. Read-mostly:
    /// written once per table open, read once per insert.
    table_scopes: RwLock<HashMap<u64, ScopeId>>,
    /// Bytes currently held per scope (index = [`ScopeId`]). Scope 0 always
    /// exists; sharded engines allocate one scope per shard via
    /// [`BlockCache::add_scope`] so a process-wide cache can report where its
    /// budget went.
    scope_used: RwLock<Vec<Arc<AtomicU64>>>,
    /// Lookups served from the cache, per scope (index = [`ScopeId`]).
    /// Together with `scope_misses` this distinguishes a cold shard (few
    /// lookups) from a thrashing one (many lookups, low hit rate).
    scope_hits: RwLock<Vec<Arc<AtomicU64>>>,
    /// Lookups that missed, per scope (index = [`ScopeId`]).
    scope_misses: RwLock<Vec<Arc<AtomicU64>>>,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("BlockCache")
            .field("capacity_bytes", &self.capacity_bytes())
            .field("stats", &stats)
            .finish()
    }
}

impl BlockCache {
    /// Default shard count: enough to keep reader/compactor contention low
    /// without fragmenting small capacities.
    const DEFAULT_SHARDS: usize = 8;

    /// Creates a cache holding roughly `capacity_bytes` of data blocks.
    pub fn new(capacity_bytes: usize) -> Arc<Self> {
        Self::with_shards(capacity_bytes, Self::DEFAULT_SHARDS)
    }

    /// Creates a cache with an explicit shard count (power of two recommended).
    pub fn with_shards(capacity_bytes: usize, num_shards: usize) -> Arc<Self> {
        let num_shards = num_shards.max(1);
        Arc::new(BlockCache {
            shards: (0..num_shards)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_capacity: (capacity_bytes / num_shards).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            next_table_id: AtomicU64::new(1),
            table_scopes: RwLock::new(HashMap::new()),
            scope_used: RwLock::new(vec![Arc::new(AtomicU64::new(0))]),
            scope_hits: RwLock::new(vec![Arc::new(AtomicU64::new(0))]),
            scope_misses: RwLock::new(vec![Arc::new(AtomicU64::new(0))]),
        })
    }

    /// Hands out a process-unique table id. Called once per opened SST; ids
    /// are never reused, which is what makes stale reads impossible. The
    /// table charges the default scope 0.
    pub fn register_table(&self) -> u64 {
        self.next_table_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Hands out a table id whose blocks charge `scope` (see
    /// [`BlockCache::add_scope`]). Unknown scopes fall back to scope 0.
    pub fn register_table_scoped(&self, scope: ScopeId) -> u64 {
        let id = self.register_table();
        if scope != 0 {
            self.table_scopes.write().insert(id, scope);
        }
        id
    }

    /// Allocates a fresh accounting scope (e.g. for one shard of a sharded
    /// engine) and returns its id. Scope 0 always exists as the default.
    pub fn add_scope(&self) -> ScopeId {
        let mut scopes = self.scope_used.write();
        scopes.push(Arc::new(AtomicU64::new(0)));
        self.scope_hits.write().push(Arc::new(AtomicU64::new(0)));
        self.scope_misses.write().push(Arc::new(AtomicU64::new(0)));
        (scopes.len() - 1) as ScopeId
    }

    /// Number of accounting scopes (including the default scope 0).
    pub fn num_scopes(&self) -> usize {
        self.scope_used.read().len()
    }

    /// Bytes currently cached on behalf of `scope` (0 for unknown scopes).
    pub fn scope_used_bytes(&self, scope: ScopeId) -> u64 {
        self.scope_used
            .read()
            .get(scope as usize)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Bytes currently cached per scope, indexed by [`ScopeId`].
    pub fn scope_usage(&self) -> Vec<u64> {
        self.scope_used
            .read()
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// `(hits, misses)` recorded on behalf of `scope` since the cache was
    /// created (`(0, 0)` for unknown scopes). Monotonic: retiring a scope
    /// does not reset its totals.
    pub fn scope_hit_miss(&self, scope: ScopeId) -> (u64, u64) {
        let hits = self
            .scope_hits
            .read()
            .get(scope as usize)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0);
        let misses = self
            .scope_misses
            .read()
            .get(scope as usize)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0);
        (hits, misses)
    }

    /// Bumps a per-scope counter (hit or miss), ignoring unknown scopes.
    fn bump_scope(counters: &RwLock<Vec<Arc<AtomicU64>>>, scope: ScopeId) {
        if let Some(counter) = counters.read().get(scope as usize) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Retires an accounting scope: every cached block charged to it is
    /// evicted, its table→scope registrations are removed (stragglers still
    /// reading through old handles charge the default scope 0 from then on)
    /// and its counter is zeroed. Called when a tenant goes away — e.g. a
    /// parent shard retired by a shard split — so the retired tenant's bytes
    /// stop counting against the global budget. Scope 0 cannot be retired.
    pub fn retire_scope(&self, scope: ScopeId) {
        if scope == 0 {
            return;
        }
        // Drop the registrations first so a racing insert from an in-flight
        // reader lands in scope 0 rather than re-charging the retired scope.
        self.table_scopes.write().retain(|_, s| *s != scope);
        let scope_used = self.scope_used.read();
        let mut evicted = 0;
        for shard in &self.shards {
            let mut shard = shard.lock();
            let keys: Vec<Key> = shard
                .map
                .iter()
                .filter(|(_, e)| e.scope == scope)
                .map(|(k, _)| *k)
                .collect();
            for key in keys {
                if let Some(entry) = shard.map.remove(&key) {
                    shard.used_bytes -= entry.weight.min(shard.used_bytes);
                    evicted += 1;
                }
            }
            // Dangling queue occurrences are skipped during eviction.
        }
        if let Some(counter) = scope_used.get(scope as usize) {
            counter.store(0, Ordering::Relaxed);
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// The accounting scope of a registered table (scope 0 when unscoped).
    fn scope_of(&self, table_id: u64) -> ScopeId {
        self.table_scopes
            .read()
            .get(&table_id)
            .copied()
            .unwrap_or(0)
    }

    fn shard(&self, key: &Key) -> &Mutex<Shard> {
        // Fold the block index into the high half *before* multiplying, so
        // consecutive blocks of one table spread across shards (the top bits
        // select the shard; an additive mix after the multiply would leave
        // every block of a table in the same shard).
        let h = (key.0 ^ ((key.1 as u64) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 56) as usize % self.shards.len()]
    }

    /// Looks up a block, updating recency and hit/miss counters.
    pub fn get(&self, table_id: u64, block_idx: u32) -> Option<Arc<Block>> {
        let key = (table_id, block_idx);
        let mut shard = self.shard(&key).lock();
        match shard.map.get(&key).map(|e| (Arc::clone(&e.data), e.scope)) {
            Some((data, scope)) => {
                shard.touch(key);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Self::bump_scope(&self.scope_hits, scope);
                Some(data)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                // The resident entry that would know its scope is exactly
                // what's missing; fall back to the table registration.
                Self::bump_scope(&self.scope_misses, self.scope_of(table_id));
                None
            }
        }
    }

    /// Inserts a block, evicting LRU entries if over capacity.
    pub fn insert(&self, table_id: u64, block_idx: u32, data: Arc<Block>) {
        let weight = data.heap_bytes() + ENTRY_OVERHEAD;
        let scope = self.scope_of(table_id);
        let key = (table_id, block_idx);
        let scope_used = self.scope_used.read();
        if let Some(counter) = scope_used.get(scope as usize) {
            counter.fetch_add(weight as u64, Ordering::Relaxed);
        }
        let mut shard = self.shard(&key).lock();
        if let Some(old) = shard.map.insert(
            key,
            Entry {
                data,
                weight,
                scope,
                queue_refs: 1,
            },
        ) {
            shard.used_bytes -= old.weight.min(shard.used_bytes);
            discharge_scope(&scope_used, old.scope, old.weight);
            // The old occurrences in the queue now refer to the new entry;
            // fold their count in so eviction bookkeeping stays consistent.
            shard.map.get_mut(&key).expect("just inserted").queue_refs += old.queue_refs;
        }
        shard.used_bytes += weight;
        shard.queue.push_back(key);
        let evicted = shard.evict_to(self.shard_capacity, &scope_used);
        drop(shard);
        drop(scope_used);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Drops every block of `table_id` (called when an SST handle is dropped,
    /// e.g. after compaction replaced the file).
    pub fn evict_table(&self, table_id: u64) {
        let mut evicted = 0;
        let scope_used = self.scope_used.read();
        for shard in &self.shards {
            let mut shard = shard.lock();
            let keys: Vec<Key> = shard
                .map
                .keys()
                .filter(|(t, _)| *t == table_id)
                .copied()
                .collect();
            for key in keys {
                if let Some(entry) = shard.map.remove(&key) {
                    shard.used_bytes -= entry.weight.min(shard.used_bytes);
                    discharge_scope(&scope_used, entry.scope, entry.weight);
                    evicted += 1;
                }
            }
            // Dangling queue occurrences are skipped during eviction.
        }
        drop(scope_used);
        self.table_scopes.write().remove(&table_id);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Total configured capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// Current counters.
    pub fn stats(&self) -> BlockCacheStats {
        let mut used = 0u64;
        let mut entries = 0u64;
        for shard in &self.shards {
            let shard = shard.lock();
            used += shard.used_bytes as u64;
            entries += shard.map.len() as u64;
        }
        BlockCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            used_bytes: used,
            entries,
        }
    }
}

/// A handle to a shared [`BlockCache`] that registers tables under one
/// accounting scope.
///
/// A process-wide cache serving several engines (the shards of a
/// `ShardedDb`, or two independent engines of different types) hands each
/// tenant a `ScopedCache` over the same underlying cache: storage, budget and
/// eviction are global, but every tenant's resident bytes stay attributable
/// via [`BlockCache::scope_used_bytes`].
#[derive(Clone, Debug)]
pub struct ScopedCache {
    cache: Arc<BlockCache>,
    scope: ScopeId,
}

impl ScopedCache {
    /// Wraps a cache under the default scope 0 (single-tenant use).
    pub fn unscoped(cache: Arc<BlockCache>) -> Self {
        ScopedCache { cache, scope: 0 }
    }

    /// Wraps a cache under an explicit scope previously allocated with
    /// [`BlockCache::add_scope`].
    pub fn new(cache: Arc<BlockCache>, scope: ScopeId) -> Self {
        ScopedCache { cache, scope }
    }

    /// The underlying shared cache.
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    /// The accounting scope tables registered through this handle charge.
    pub fn scope(&self) -> ScopeId {
        self.scope
    }

    /// Registers a table under this handle's scope (see
    /// [`BlockCache::register_table_scoped`]).
    pub fn register_table(&self) -> u64 {
        self.cache.register_table_scoped(self.scope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;

    /// A one-entry block whose value is `bytes` long.
    fn block(bytes: usize) -> Arc<Block> {
        let mut builder = BlockBuilder::new();
        builder.add(b"k", &vec![0u8; bytes]).unwrap();
        Arc::new(Block::decode(builder.finish()).unwrap())
    }

    /// The charged weight of `block(bytes)`: its encoded bytes, its parsed
    /// restart array and the fixed per-entry overhead.
    fn block_weight(bytes: usize) -> usize {
        block(bytes).heap_bytes() + ENTRY_OVERHEAD
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = BlockCache::new(1 << 20);
        let t = cache.register_table();
        assert!(cache.get(t, 0).is_none());
        cache.insert(t, 0, block(100));
        assert!(cache.get(t, 0).is_some());
        assert!(cache.get(t, 1).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.inserts, 1);
        assert!(stats.hit_rate() > 0.3 && stats.hit_rate() < 0.4);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        // Single shard so the LRU order is fully observable.
        let cache = BlockCache::with_shards(3 * block_weight(1000), 1);
        let t = cache.register_table();
        cache.insert(t, 0, block(1000));
        cache.insert(t, 1, block(1000));
        cache.insert(t, 2, block(1000));
        // Touch block 0 so block 1 becomes the LRU victim.
        assert!(cache.get(t, 0).is_some());
        cache.insert(t, 3, block(1000));
        assert!(cache.get(t, 1).is_none(), "LRU entry must be evicted");
        assert!(cache.get(t, 0).is_some(), "recently-touched entry survives");
        assert!(cache.get(t, 3).is_some());
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn queue_compaction_keeps_lru_order() {
        let cache = BlockCache::with_shards(3 * block_weight(1000), 1);
        let t = cache.register_table();
        for idx in 0..3 {
            cache.insert(t, idx, block(1000));
        }
        // Enough hits on one block to compact the recency queue many times.
        for _ in 0..500 {
            assert!(cache.get(t, 0).is_some());
        }
        assert!(cache.get(t, 2).is_some());
        // Recency is now 1 < 0 < 2: two inserts evict 1, then 0.
        cache.insert(t, 3, block(1000));
        assert!(cache.get(t, 1).is_none());
        cache.insert(t, 4, block(1000));
        assert!(
            cache.get(t, 0).is_none(),
            "stale duplicates kept block 0 alive"
        );
        for idx in 2..5 {
            assert!(
                cache.get(t, idx).is_some(),
                "block {idx} evicted out of order"
            );
        }
    }

    #[test]
    fn over_capacity_insert_still_caches_nothing_extra() {
        let cache = BlockCache::with_shards(100, 1);
        let t = cache.register_table();
        cache.insert(t, 0, block(5000));
        // The oversized block cannot stay resident.
        assert!(cache.stats().used_bytes <= 100 || cache.stats().entries == 0);
    }

    #[test]
    fn table_ids_are_unique_and_eviction_is_scoped() {
        let cache = BlockCache::new(1 << 20);
        let t1 = cache.register_table();
        let t2 = cache.register_table();
        assert_ne!(t1, t2);
        cache.insert(t1, 0, block(100));
        cache.insert(t2, 0, block(100));
        cache.evict_table(t1);
        assert!(cache.get(t1, 0).is_none());
        assert!(cache.get(t2, 0).is_some());
    }

    #[test]
    fn reinsert_same_key_replaces_weight() {
        let cache = BlockCache::with_shards(1 << 20, 1);
        let t = cache.register_table();
        cache.insert(t, 0, block(1000));
        let used_before = cache.stats().used_bytes;
        cache.insert(t, 0, block(1000));
        assert_eq!(
            cache.stats().used_bytes,
            used_before,
            "replacement, not accumulation"
        );
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn blocks_of_one_table_spread_across_shards() {
        // A single hot table must use more than one shard (and so more than
        // 1/N of the capacity).
        let cache = BlockCache::with_shards(1 << 20, 8);
        let t = cache.register_table();
        let mut shards_used = std::collections::HashSet::new();
        for idx in 0..64u32 {
            let key = (t, idx);
            let shard = cache.shard(&key) as *const _ as usize;
            shards_used.insert(shard);
        }
        assert!(
            shards_used.len() >= 4,
            "64 blocks of one table landed in only {} of 8 shards",
            shards_used.len()
        );
    }

    #[test]
    fn scope_accounting_tracks_per_tenant_bytes() {
        let cache = BlockCache::with_shards(1 << 20, 1);
        let s1 = cache.add_scope();
        let s2 = cache.add_scope();
        assert_eq!(cache.num_scopes(), 3);
        let t0 = cache.register_table();
        let t1 = ScopedCache::new(Arc::clone(&cache), s1).register_table();
        let t2 = cache.register_table_scoped(s2);
        cache.insert(t0, 0, block(100));
        cache.insert(t1, 0, block(200));
        cache.insert(t1, 1, block(200));
        cache.insert(t2, 0, block(300));
        assert_eq!(cache.scope_used_bytes(0), block_weight(100) as u64);
        assert_eq!(cache.scope_used_bytes(s1), 2 * block_weight(200) as u64);
        assert_eq!(cache.scope_used_bytes(s2), block_weight(300) as u64);
        let total: u64 = cache.scope_usage().iter().sum();
        assert_eq!(total, cache.stats().used_bytes);
        // Dropping a table returns its scope's bytes.
        cache.evict_table(t1);
        assert_eq!(cache.scope_used_bytes(s1), 0);
        assert_eq!(
            cache.scope_usage().iter().sum::<u64>(),
            cache.stats().used_bytes
        );
    }

    #[test]
    fn per_scope_hits_and_misses_attribute_to_the_right_tenant() {
        let cache = BlockCache::with_shards(1 << 20, 1);
        let s1 = cache.add_scope();
        let s2 = cache.add_scope();
        let t1 = cache.register_table_scoped(s1);
        let t2 = cache.register_table_scoped(s2);
        cache.insert(t1, 0, block(100));
        // s1: two hits, one miss. s2: one miss (cold — never inserted).
        assert!(cache.get(t1, 0).is_some());
        assert!(cache.get(t1, 0).is_some());
        assert!(cache.get(t1, 9).is_none());
        assert!(cache.get(t2, 0).is_none());
        assert_eq!(cache.scope_hit_miss(s1), (2, 1));
        assert_eq!(cache.scope_hit_miss(s2), (0, 1));
        assert_eq!(cache.scope_hit_miss(0), (0, 0));
        // Per-scope counts sum to the global counters.
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        // Unknown scopes read as zero.
        assert_eq!(cache.scope_hit_miss(99), (0, 0));
    }

    #[test]
    fn retired_scope_is_drained_and_unregistered() {
        let cache = BlockCache::with_shards(1 << 20, 2);
        let s1 = cache.add_scope();
        let s2 = cache.add_scope();
        let t1 = cache.register_table_scoped(s1);
        let t2 = cache.register_table_scoped(s2);
        for idx in 0..8u32 {
            cache.insert(t1, idx, block(500));
            cache.insert(t2, idx, block(500));
        }
        assert!(cache.scope_used_bytes(s1) > 0);
        cache.retire_scope(s1);
        // The retired scope's blocks are gone and its counter is zero; the
        // survivor is untouched and global accounting still balances.
        assert_eq!(cache.scope_used_bytes(s1), 0);
        assert!(cache.get(t1, 0).is_none());
        assert!(cache.get(t2, 0).is_some());
        assert_eq!(cache.scope_used_bytes(s2), 8 * block_weight(500) as u64);
        assert_eq!(
            cache.scope_usage().iter().sum::<u64>(),
            cache.stats().used_bytes
        );
        // A straggler insert through the retired table now charges scope 0.
        cache.insert(t1, 99, block(100));
        assert_eq!(cache.scope_used_bytes(s1), 0);
        assert_eq!(cache.scope_used_bytes(0), block_weight(100) as u64);
        // Scope 0 itself can never be retired.
        cache.retire_scope(0);
        assert_eq!(cache.scope_used_bytes(0), block_weight(100) as u64);
    }

    #[test]
    fn capacity_eviction_discharges_scopes() {
        // Two scopes fighting over a budget that fits three blocks: whatever
        // LRU evicts, the per-scope counters must keep summing to used_bytes.
        let cache = BlockCache::with_shards(3 * block_weight(1000), 1);
        let s1 = cache.add_scope();
        let s2 = cache.add_scope();
        let t1 = cache.register_table_scoped(s1);
        let t2 = cache.register_table_scoped(s2);
        for idx in 0..4u32 {
            cache.insert(t1, idx, block(1000));
            cache.insert(t2, idx, block(1000));
        }
        assert!(cache.stats().evictions > 0);
        assert_eq!(
            cache.scope_usage().iter().sum::<u64>(),
            cache.stats().used_bytes
        );
        assert!(cache.stats().used_bytes as usize <= 3 * block_weight(1000));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = BlockCache::new(64 << 10);
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                let t = cache.register_table();
                for i in 0..500u32 {
                    cache.insert(t, i, block(64));
                    cache.get(t, i.saturating_sub(w as u32));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.inserts, 2000);
        assert!(stats.used_bytes as usize <= cache.capacity_bytes() + 8 * block_weight(64));
    }
}
