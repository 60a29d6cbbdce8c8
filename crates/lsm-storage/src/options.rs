//! Engine configuration.

use crate::sst::TableOptions;

/// Which SST a compaction job picks from an overflowing level.
///
/// Mirrors the two RocksDB policies the paper compares in Figure 2:
/// `kByCompensatedSize` (largest file first) and `kOldestSmallestSeqFirst`
/// (the file whose data has gone the longest without compaction). The paper
/// adopts the time-based priority because it best preserves the
/// "data age increases with level depth" property LASER relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactionPriority {
    /// Pick the largest SST in the overflowing level (RocksDB `kByCompensatedSize`).
    ByCompensatedSize,
    /// Pick the SST containing the oldest data, i.e. the smallest minimum
    /// sequence number (RocksDB `kOldestSmallestSeqFirst`).
    #[default]
    OldestSmallestSeqFirst,
}

/// Options for the plain key-value LSM engine ([`crate::db::LsmDb`]).
#[derive(Debug, Clone)]
pub struct LsmOptions {
    /// Size at which the mutable memtable is frozen and flushed, in bytes.
    pub memtable_size_bytes: usize,
    /// Capacity of Level-0 in bytes; level `i` holds `level0 * T^i` bytes.
    pub level0_size_bytes: u64,
    /// Size ratio `T` between adjacent levels.
    pub size_ratio: u64,
    /// Maximum number of on-disk levels `L` (levels are numbered 0..L-1).
    pub num_levels: usize,
    /// Target size for individual SST files produced by compaction.
    pub sst_target_size_bytes: u64,
    /// Compaction picking policy.
    pub compaction_priority: CompactionPriority,
    /// Whether acknowledged writes wait for WAL durability. Concurrent
    /// writers coalesce into one fsync per sync window (group commit).
    pub sync_wal: bool,
    /// Group-commit window in milliseconds, effective only with `sync_wal`:
    /// 0 means every acknowledged write waits for an fsync covering it
    /// (strict group commit); a positive value issues at most one fsync per
    /// window, bounding data loss to that window.
    pub sync_wal_interval_ms: u64,
    /// Whether compaction is triggered automatically after writes and flushes.
    /// Disable to schedule compaction manually (as the Fig. 7(e) experiment does).
    /// Ignored while a background maintenance scheduler is attached — the
    /// scheduler then owns compaction.
    pub auto_compact: bool,
    /// Capacity of the shared block cache in bytes; 0 disables it.
    pub block_cache_bytes: usize,
    /// With background maintenance attached: Level-0 file count (including
    /// frozen memtables awaiting flush) at which writers briefly yield to let
    /// maintenance catch up.
    pub l0_slowdown_files: usize,
    /// With background maintenance attached: Level-0 file count at which
    /// writers block until a background job completes.
    pub l0_stall_files: usize,
    /// With background maintenance attached: pending background jobs at which
    /// writers block (bounds queue depth).
    pub max_pending_jobs: usize,
    /// Recovery tail size (intact WAL bytes) at or above which a clean
    /// recovery adopts the replayed sealed segments in place instead of
    /// re-logging every record into a fresh active segment. Adoption turns
    /// recovery I/O from O(records re-logged) into O(1) manifest work; small
    /// tails keep the re-log path, which compacts many tiny segments into
    /// one. `u64::MAX` disables adoption.
    pub recovery_adopt_bytes: u64,
    /// SST/block construction parameters.
    pub table: TableOptions,
}

impl Default for LsmOptions {
    fn default() -> Self {
        LsmOptions {
            memtable_size_bytes: 4 << 20,
            level0_size_bytes: 64 << 20,
            size_ratio: 2,
            num_levels: 7,
            sst_target_size_bytes: 8 << 20,
            compaction_priority: CompactionPriority::default(),
            sync_wal: false,
            sync_wal_interval_ms: 0,
            auto_compact: true,
            block_cache_bytes: 32 << 20,
            l0_slowdown_files: 8,
            l0_stall_files: 16,
            max_pending_jobs: 64,
            recovery_adopt_bytes: 1 << 20,
            table: TableOptions::default(),
        }
    }
}

impl LsmOptions {
    /// A small configuration suitable for unit tests and scaled-down
    /// experiments: tiny memtable and Level-0 so the tree develops several
    /// populated levels with modest data volumes.
    pub fn small_for_tests() -> Self {
        LsmOptions {
            memtable_size_bytes: 16 << 10,
            level0_size_bytes: 32 << 10,
            size_ratio: 2,
            num_levels: 5,
            sst_target_size_bytes: 16 << 10,
            compaction_priority: CompactionPriority::default(),
            sync_wal: false,
            sync_wal_interval_ms: 0,
            auto_compact: true,
            // Tests opt into caching explicitly so I/O-accounting experiments
            // keep the paper's uncached cost shapes.
            block_cache_bytes: 0,
            l0_slowdown_files: 8,
            l0_stall_files: 16,
            max_pending_jobs: 64,
            // Small enough that the scaled-down tests exercise the adoption
            // path with a few KB of unflushed tail.
            recovery_adopt_bytes: 4 << 10,
            table: TableOptions::default(),
        }
    }

    /// Capacity of level `i` in bytes.
    pub fn level_capacity_bytes(&self, level: usize) -> u64 {
        self.level0_size_bytes
            .saturating_mul(self.size_ratio.saturating_pow(level as u32))
    }

    /// Validates option consistency.
    pub fn validate(&self) -> crate::error::Result<()> {
        if self.size_ratio < 2 {
            return Err(crate::error::Error::invalid(
                "size_ratio must be at least 2",
            ));
        }
        if self.num_levels == 0 {
            return Err(crate::error::Error::invalid(
                "num_levels must be at least 1",
            ));
        }
        if self.memtable_size_bytes == 0 || self.level0_size_bytes == 0 {
            return Err(crate::error::Error::invalid("sizes must be non-zero"));
        }
        if self.l0_slowdown_files == 0 || self.l0_stall_files < self.l0_slowdown_files {
            return Err(crate::error::Error::invalid(
                "backpressure thresholds require 1 <= l0_slowdown_files <= l0_stall_files",
            ));
        }
        if self.max_pending_jobs == 0 {
            return Err(crate::error::Error::invalid(
                "max_pending_jobs must be non-zero",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        LsmOptions::default().validate().unwrap();
        LsmOptions::small_for_tests().validate().unwrap();
    }

    #[test]
    fn level_capacity_grows_geometrically() {
        let mut o = LsmOptions {
            level0_size_bytes: 100,
            size_ratio: 2,
            ..LsmOptions::default()
        };
        assert_eq!(o.level_capacity_bytes(0), 100);
        assert_eq!(o.level_capacity_bytes(1), 200);
        assert_eq!(o.level_capacity_bytes(4), 1600);
        o.size_ratio = 10;
        assert_eq!(o.level_capacity_bytes(3), 100_000);
    }

    #[test]
    fn invalid_options_rejected() {
        let o = LsmOptions {
            size_ratio: 1,
            ..LsmOptions::default()
        };
        assert!(o.validate().is_err());
        let o = LsmOptions {
            num_levels: 0,
            ..LsmOptions::default()
        };
        assert!(o.validate().is_err());
        let o = LsmOptions {
            memtable_size_bytes: 0,
            ..LsmOptions::default()
        };
        assert!(o.validate().is_err());
        let o = LsmOptions {
            l0_slowdown_files: 9,
            l0_stall_files: 8,
            ..LsmOptions::default()
        };
        assert!(o.validate().is_err());
        let o = LsmOptions {
            max_pending_jobs: 0,
            ..LsmOptions::default()
        };
        assert!(o.validate().is_err());
    }

    #[test]
    fn default_priority_is_time_based() {
        assert_eq!(
            CompactionPriority::default(),
            CompactionPriority::OldestSmallestSeqFirst
        );
    }
}
