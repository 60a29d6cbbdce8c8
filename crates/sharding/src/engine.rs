//! The engine abstraction sharding is generic over, and its implementations
//! for the two engines of this workspace.

use std::ops::Deref;
use std::sync::Arc;

use laser_core::{LaserDb, LaserOptions, LayoutSpec, Projection, RowFragment, Schema};
use laser_cost_model::{CostModel, TreeParameters};
use lsm_storage::cache::ScopedCache;
use lsm_storage::storage::StorageRef;
use lsm_storage::types::{SeqNo, UserKey};
use lsm_storage::{EngineShell, LsmDb, LsmOptions, Result};
use telemetry::{LevelMix, MeasuredTreeParams};

/// An engine that can serve as one shard of a [`ShardedDb`](crate::ShardedDb).
///
/// Every engine is an [`EngineShell`] plus a level format, and `Deref` says
/// so: writes, flush/compaction/close, WAL shipping and replicated apply,
/// key-bound trim, health, size statistics and scheduler registration are
/// the shell's and are called on it directly. What is left here is the typed
/// surface — open, point read, range scan — and the cost-model parameters
/// only the typed engine knows. `Value`/`ReadCtx` keep the facade fully
/// typed: the plain KV engine scans `Vec<u8>` values with no read context,
/// the LASER engine scans [`RowFragment`]s under a column [`Projection`].
pub trait ShardEngine: Deref<Target = Arc<EngineShell>> + Sized + Send + Sync + 'static {
    /// Engine configuration, shared by every shard.
    type Options: Clone + Send + Sync + 'static;
    /// The value type reads and scans produce.
    type Value: Send + 'static;
    /// Per-read context (e.g. a column projection).
    type ReadCtx: Clone + Default + Send + Sync + 'static;

    /// Opens one shard on its private storage namespace, serving block reads
    /// through the given scoped view of the process-wide cache.
    fn open_shard(
        storage: StorageRef,
        options: &Self::Options,
        cache: Option<ScopedCache>,
    ) -> Result<Self>;

    /// Point lookup visible at `snapshot`.
    fn shard_get_at(
        &self,
        key: UserKey,
        ctx: &Self::ReadCtx,
        snapshot: SeqNo,
    ) -> Result<Option<Self::Value>>;

    /// Range scan over `[lo, hi]` visible at `snapshot`, in key order.
    ///
    /// Implementations stream through their engine's merge stack (for
    /// `LsmDb`, the tournament-tree `range()` iterator; for `LaserDb`, the
    /// level-merging iterator over lazy per-run concat children), so a
    /// cross-shard scan's per-shard legs inherit the streaming read path.
    fn shard_scan_at(
        &self,
        lo: UserKey,
        hi: UserKey,
        ctx: &Self::ReadCtx,
        snapshot: SeqNo,
    ) -> Result<Vec<(UserKey, Self::Value)>>;

    /// Per-level operation mix observed by the shard, in the telemetry
    /// crate's engine-agnostic form. Losslessly convertible into a
    /// `laser_advisor::WorkloadTrace` (projections are 0-based column ids;
    /// engines without projections report whole-row column sets).
    fn shard_workload_levels(&self) -> Vec<LevelMix>;

    /// The per-level column-group layout the cost model evaluates this shard
    /// under (a one-column row layout for the plain KV engine).
    fn cost_layout(&self) -> LayoutSpec;

    /// The column set a read context projects, as 0-based column ids, for
    /// workload profiling. `None` for engines whose reads have no
    /// projection.
    fn read_ctx_columns(_ctx: &Self::ReadCtx) -> Option<Vec<u32>> {
        None
    }

    /// Bytes written to storage by flushes and compactions — the numerator
    /// of measured write amplification.
    fn shard_flush_compact_bytes(&self) -> u64 {
        self.stats().bytes_written
    }

    /// Structural tree parameters measured from the live shard (entry
    /// counts, block occupancy), feeding the cost model and the advisor.
    fn shard_tree_params(&self) -> MeasuredTreeParams {
        let levels = self.level_files();
        let total_bytes: u64 = levels.iter().flatten().map(|f| f.file_size).sum();
        let total_entries: u64 = levels.iter().flatten().map(|f| f.num_entries).sum();
        // A row is stored once per column group of its level, so a level's
        // row count is its largest per-CG entry sum, not the plain file
        // total.
        let rows: u64 = levels
            .iter()
            .map(|files| {
                let mut per_group: Vec<(u32, u64)> = Vec::new();
                for file in files {
                    match per_group.iter_mut().find(|(g, _)| *g == file.column_group) {
                        Some(slot) => slot.1 += file.num_entries,
                        None => per_group.push((file.column_group, file.num_entries)),
                    }
                }
                per_group.iter().map(|&(_, n)| n).max().unwrap_or(0)
            })
            .sum();
        let config = self.config();
        let block = config.table.block_size;
        MeasuredTreeParams {
            num_entries: rows + self.memtable_len() as u64,
            size_ratio: config.size_ratio,
            entries_per_block: entries_per_block(total_bytes, total_entries, block),
            level0_blocks: level0_blocks(config.level0_size_bytes, block),
            num_columns: self.cost_layout().schema().num_columns() as u32,
        }
    }

    /// Cost-model predictions for this shard under its current layout:
    /// `(write_amp, space_amp)`. Write amplification is Equation 4 scaled
    /// from block I/Os per entry to a byte rewrite factor (× `B`); space
    /// amplification is the Section 5 worst case, `1 + 1/T`. The facade
    /// exports `measured − predicted` as the per-shard model residual.
    fn shard_predicted_amps(&self) -> (f64, f64) {
        predicted_amps(
            &self.shard_tree_params(),
            self.cost_layout(),
            self.config().num_levels.max(1),
        )
    }
}

impl ShardEngine for LsmDb {
    type Options = LsmOptions;
    type Value = Vec<u8>;
    type ReadCtx = ();

    fn open_shard(
        storage: StorageRef,
        options: &Self::Options,
        cache: Option<ScopedCache>,
    ) -> Result<Self> {
        LsmDb::open_with_cache(storage, options.clone(), cache)
    }

    fn shard_get_at(
        &self,
        key: UserKey,
        _ctx: &Self::ReadCtx,
        snapshot: SeqNo,
    ) -> Result<Option<Self::Value>> {
        self.get_at(key, snapshot)
    }

    fn shard_scan_at(
        &self,
        lo: UserKey,
        hi: UserKey,
        _ctx: &Self::ReadCtx,
        snapshot: SeqNo,
    ) -> Result<Vec<(UserKey, Self::Value)>> {
        self.scan_at(lo, hi, snapshot)
    }

    fn shard_workload_levels(&self) -> Vec<LevelMix> {
        // The plain KV engine has no projections: every op touches the whole
        // (single-column) row. Inserts pass through every level on their way
        // down, so each level sees the full WAL append count.
        let inserts = self.wal_stats().records_appended;
        self.reads_by_level()
            .into_iter()
            .map(|reads| LevelMix {
                inserts,
                point_reads: if reads > 0 {
                    vec![(vec![0], reads)]
                } else {
                    Vec::new()
                },
                point_read_groups: reads,
                scans: Vec::new(),
                updates: Vec::new(),
            })
            .collect()
    }

    fn cost_layout(&self) -> LayoutSpec {
        LayoutSpec::row_store(&Schema::with_columns(1), self.options().num_levels)
    }
}

impl ShardEngine for LaserDb {
    type Options = LaserOptions;
    type Value = RowFragment;
    type ReadCtx = Projection;

    fn open_shard(
        storage: StorageRef,
        options: &Self::Options,
        cache: Option<ScopedCache>,
    ) -> Result<Self> {
        LaserDb::open_with_cache(storage, options.clone(), cache)
    }

    fn shard_get_at(
        &self,
        key: UserKey,
        ctx: &Self::ReadCtx,
        snapshot: SeqNo,
    ) -> Result<Option<Self::Value>> {
        self.read_at(key, ctx, snapshot)
    }

    fn shard_scan_at(
        &self,
        lo: UserKey,
        hi: UserKey,
        ctx: &Self::ReadCtx,
        snapshot: SeqNo,
    ) -> Result<Vec<(UserKey, Self::Value)>> {
        self.scan_at(lo, hi, ctx, snapshot)
    }

    fn shard_workload_levels(&self) -> Vec<LevelMix> {
        let snap = self.stats();
        // Every accepted write is eventually merged down through each level.
        let inserts = snap.inserts + snap.updates + snap.deletes;
        snap.levels
            .iter()
            .map(|profile| LevelMix {
                inserts,
                point_reads: profile
                    .read_projections
                    .iter()
                    .map(|(p, n)| (projection_columns(p), *n))
                    .collect(),
                point_read_groups: profile.point_read_groups_fetched,
                scans: profile
                    .scan_projections
                    .iter()
                    .map(|(p, entries, n)| (projection_columns(p), *entries, *n))
                    .collect(),
                updates: profile
                    .update_projections
                    .iter()
                    .map(|(p, n)| (projection_columns(p), *n))
                    .collect(),
            })
            .collect()
    }

    fn cost_layout(&self) -> LayoutSpec {
        self.layout().clone()
    }

    fn read_ctx_columns(ctx: &Self::ReadCtx) -> Option<Vec<u32>> {
        Some(projection_columns(ctx))
    }
}

/// A projection's column ids as the telemetry crate's 0-based `u32` form.
fn projection_columns(projection: &Projection) -> Vec<u32> {
    projection.iter().map(|c| c as u32).collect()
}

/// Entries-per-block estimate (`B`) from aggregate SST statistics: how many
/// average-sized entries fit one data block. At least 1.
fn entries_per_block(total_bytes: u64, total_entries: u64, block_size: usize) -> u64 {
    if total_entries == 0 || total_bytes == 0 {
        return 1;
    }
    let avg_entry = (total_bytes / total_entries).max(1);
    (block_size as u64 / avg_entry).max(1)
}

/// Blocks in a full level 0 (`P`), from its byte capacity. At least 1.
fn level0_blocks(level0_capacity_bytes: u64, block_size: usize) -> u64 {
    (level0_capacity_bytes / (block_size as u64).max(1)).max(1)
}

/// Evaluates the cost model's predictions for `measured` parameters under
/// `layout`: Equation 4 scaled from block I/Os per entry to a byte rewrite
/// factor (× `B`), and the Section 5 worst-case space amplification
/// (`1 + 1/T`). Degenerate measurements are clamped to the model's domain so
/// the predictions stay finite.
fn predicted_amps(
    measured: &MeasuredTreeParams,
    layout: LayoutSpec,
    num_levels: usize,
) -> (f64, f64) {
    let params = TreeParameters {
        num_entries: measured.num_entries.max(1),
        size_ratio: measured.size_ratio.max(2),
        entries_per_block: measured.entries_per_block.max(1) as f64,
        level0_blocks: measured.level0_blocks.max(1),
        num_columns: (measured.num_columns as usize).max(1),
    };
    let entries_per_block = params.entries_per_block;
    let model = CostModel::new(params, layout, num_levels);
    let write = model.insert_amplification() * entries_per_block;
    let space = 1.0 + model.space_amplification();
    (write, space)
}
