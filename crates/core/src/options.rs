//! LASER engine configuration.

use crate::layout::LayoutSpec;
use crate::schema::Schema;
use lsm_storage::sst::TableOptions;
use lsm_storage::Result;

/// Options for the Real-Time LSM-Tree engine ([`crate::db::LaserDb`]).
#[derive(Debug, Clone)]
pub struct LaserOptions {
    /// The per-level column-group design (includes the schema).
    pub layout: LayoutSpec,
    /// Size at which the mutable memtable is frozen and flushed, in bytes.
    pub memtable_size_bytes: usize,
    /// Capacity of Level-0 in bytes; level `i` holds `level0 * T^i` bytes.
    pub level0_size_bytes: u64,
    /// Size ratio `T` between adjacent levels.
    pub size_ratio: u64,
    /// Number of on-disk levels `L` (levels are numbered `0..L-1`).
    pub num_levels: usize,
    /// Target size of individual SST files produced by flush/compaction.
    pub sst_target_size_bytes: u64,
    /// Whether acknowledged writes wait for WAL durability. Concurrent
    /// writers coalesce into one fsync per sync window (group commit).
    pub sync_wal: bool,
    /// Group-commit window in milliseconds, effective only with `sync_wal`:
    /// 0 means every acknowledged write waits for an fsync covering it
    /// (strict group commit); a positive value issues at most one fsync per
    /// window, bounding data loss to that window.
    pub sync_wal_interval_ms: u64,
    /// Whether compaction runs automatically after writes and flushes.
    /// Ignored while a background maintenance scheduler is attached — the
    /// scheduler then owns compaction.
    pub auto_compact: bool,
    /// Capacity of the shared block cache in bytes; 0 disables it.
    pub block_cache_bytes: usize,
    /// With background maintenance attached: Level-0 file count (including
    /// frozen memtables awaiting flush) at which writers briefly yield.
    pub l0_slowdown_files: usize,
    /// With background maintenance attached: Level-0 file count at which
    /// writers block until a background job completes.
    pub l0_stall_files: usize,
    /// With background maintenance attached: pending background jobs at
    /// which writers block (bounds queue depth).
    pub max_pending_jobs: usize,
    /// Recovery tail size (intact WAL bytes) at or above which a clean
    /// recovery adopts the replayed sealed segments in place instead of
    /// re-logging every record into a fresh active segment. `u64::MAX`
    /// disables adoption.
    pub recovery_adopt_bytes: u64,
    /// SST/block construction parameters.
    pub table: TableOptions,
}

impl LaserOptions {
    /// Reasonable defaults for the given design: RocksDB-like sizes.
    pub fn new(layout: LayoutSpec) -> Self {
        LaserOptions {
            layout,
            memtable_size_bytes: 4 << 20,
            level0_size_bytes: 64 << 20,
            size_ratio: 2,
            num_levels: 8,
            sst_target_size_bytes: 8 << 20,
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

    /// A scaled-down configuration for tests and laptop-scale experiments:
    /// tiny memtable and Level-0 so a few thousand rows populate many levels.
    pub fn small_for_tests(layout: LayoutSpec) -> Self {
        LaserOptions {
            layout,
            memtable_size_bytes: 32 << 10,
            level0_size_bytes: 48 << 10,
            size_ratio: 2,
            num_levels: 6,
            sst_target_size_bytes: 32 << 10,
            sync_wal: false,
            sync_wal_interval_ms: 0,
            auto_compact: true,
            // Tests opt into caching explicitly so I/O-accounting experiments
            // keep the paper's uncached cost shapes.
            block_cache_bytes: 0,
            l0_slowdown_files: 8,
            l0_stall_files: 16,
            max_pending_jobs: 64,
            // Small enough that scaled-down tests exercise the adoption path.
            recovery_adopt_bytes: 4 << 10,
            table: TableOptions::default(),
        }
    }

    /// The schema this engine stores.
    pub fn schema(&self) -> &Schema {
        self.layout.schema()
    }

    /// Capacity of level `i` in bytes.
    pub fn level_capacity_bytes(&self, level: usize) -> u64 {
        self.level0_size_bytes
            .saturating_mul(self.size_ratio.saturating_pow(level as u32))
    }

    /// Capacity of column group `cg_index` within `level`, obtained by
    /// dividing the level capacity proportionally to each CG's width
    /// (columns + the co-stored key), as Section 4.4 prescribes.
    pub fn cg_capacity_bytes(&self, level: usize, cg_index: usize) -> u64 {
        let layout = self.layout.level(level);
        let total_width: usize = layout.groups().iter().map(|g| g.size() + 1).sum();
        let this_width = layout
            .groups()
            .get(cg_index)
            .map(|g| g.size() + 1)
            .unwrap_or(1);
        let level_cap = self.level_capacity_bytes(level);
        ((level_cap as u128 * this_width as u128) / total_width.max(1) as u128) as u64
    }

    /// Validates option consistency (including the layout).
    pub fn validate(&self) -> Result<()> {
        self.layout.validate()?;
        if self.size_ratio < 2 {
            return Err(lsm_storage::Error::invalid("size_ratio must be at least 2"));
        }
        if self.num_levels == 0 {
            return Err(lsm_storage::Error::invalid("num_levels must be at least 1"));
        }
        if self.memtable_size_bytes == 0 || self.level0_size_bytes == 0 {
            return Err(lsm_storage::Error::invalid("sizes must be non-zero"));
        }
        if self.l0_slowdown_files == 0 || self.l0_stall_files < self.l0_slowdown_files {
            return Err(lsm_storage::Error::invalid(
                "backpressure thresholds require 1 <= l0_slowdown_files <= l0_stall_files",
            ));
        }
        if self.max_pending_jobs == 0 {
            return Err(lsm_storage::Error::invalid(
                "max_pending_jobs must be non-zero",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutSpec;

    #[test]
    fn defaults_are_valid() {
        let schema = Schema::narrow();
        LaserOptions::new(LayoutSpec::d_opt_paper(&schema).unwrap())
            .validate()
            .unwrap();
        LaserOptions::small_for_tests(LayoutSpec::row_store(&schema, 6))
            .validate()
            .unwrap();
    }

    #[test]
    fn cg_capacity_is_proportional_to_width() {
        let schema = Schema::with_columns(4);
        let spec = LayoutSpec::new(
            schema.clone(),
            vec![
                crate::layout::LevelLayout::row_oriented(&schema),
                crate::layout::LevelLayout::new(vec![
                    crate::layout::ColumnGroup::new(vec![0, 1, 2]),
                    crate::layout::ColumnGroup::new(vec![3]),
                ]),
            ],
            "test",
        )
        .unwrap();
        let mut opts = LaserOptions::small_for_tests(spec);
        opts.level0_size_bytes = 600;
        opts.size_ratio = 2;
        // Level 1 capacity = 1200; widths are (3+1)=4 and (1+1)=2, total 6.
        assert_eq!(opts.cg_capacity_bytes(1, 0), 800);
        assert_eq!(opts.cg_capacity_bytes(1, 1), 400);
        // Level 0 has one CG spanning everything.
        assert_eq!(opts.cg_capacity_bytes(0, 0), 600);
    }

    #[test]
    fn invalid_options_rejected() {
        let schema = Schema::narrow();
        let layout = LayoutSpec::row_store(&schema, 4);
        let mut o = LaserOptions::new(layout.clone());
        o.size_ratio = 1;
        assert!(o.validate().is_err());
        let mut o = LaserOptions::new(layout.clone());
        o.num_levels = 0;
        assert!(o.validate().is_err());
        let mut o = LaserOptions::new(layout);
        o.level0_size_bytes = 0;
        assert!(o.validate().is_err());
    }
}
