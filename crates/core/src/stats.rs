//! Engine statistics: per-operation counters, per-level access profiling and
//! write-amplification accounting.
//!
//! The per-level profile is what the design advisor (Section 6.1: "Profiling
//! the workload wl_i at each level allows us to determine w, p_i, q_i, u_i and
//! s_i") consumes, and what EXPERIMENTS.md reports alongside the paper's
//! figures.

use parking_lot::Mutex;

use crate::schema::Projection;
use lsm_storage::wal_segment::WalStatsSnapshot;

/// Per-level workload observation: how many operations of each kind were
/// served at that level and with which projections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelProfile {
    /// Point reads that touched this level (`p_i`).
    pub point_reads: u64,
    /// Column groups fetched by point reads at this level (sums `E^g_i`).
    pub point_read_groups_fetched: u64,
    /// Range scans that touched this level (`q_i`).
    pub scans: u64,
    /// Entries returned by scans from this level (`s_i`, summed).
    pub scan_entries: u64,
    /// Updates whose columns were eventually merged at this level (`u_i`).
    pub updates: u64,
    /// Projections observed at this level (reads, scans and updates),
    /// with multiplicity. The advisor splits candidate column groups on these.
    pub projections: Vec<(Projection, u64)>,
    /// Point-read projections alone, with multiplicity — kept separate from
    /// the combined list so a workload trace can be rebuilt losslessly per
    /// operation kind.
    pub read_projections: Vec<(Projection, u64)>,
    /// Scan projections alone: `(projection, entries returned, scans)`.
    pub scan_projections: Vec<(Projection, u64, u64)>,
    /// Update projections alone, with multiplicity.
    pub update_projections: Vec<(Projection, u64)>,
}

impl LevelProfile {
    /// Records one occurrence of a projection.
    pub fn record_projection(&mut self, projection: &Projection) {
        bump_projection(&mut self.projections, projection, 1);
    }
}

/// Bumps `projection` by `count` in a `(projection, count)` list.
fn bump_projection(list: &mut Vec<(Projection, u64)>, projection: &Projection, count: u64) {
    if let Some(entry) = list.iter_mut().find(|(p, _)| p == projection) {
        entry.1 += count;
    } else {
        list.push((projection.clone(), count));
    }
}

/// Aggregate engine statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStatsSnapshot {
    /// Number of insert operations.
    pub inserts: u64,
    /// Number of update (partial-row) operations.
    pub updates: u64,
    /// Number of delete operations.
    pub deletes: u64,
    /// Number of point reads.
    pub point_reads: u64,
    /// Number of range scans.
    pub scans: u64,
    /// Memtable flushes.
    pub flushes: u64,
    /// Compaction jobs executed.
    pub compactions: u64,
    /// Bytes written by flushes and compactions (write amplification).
    pub compaction_bytes_written: u64,
    /// Bytes read by compactions.
    pub compaction_bytes_read: u64,
    /// Entries written by flushes and compactions.
    pub compaction_entries_written: u64,
    /// Logical bytes accepted on the write path (key + encoded fragment),
    /// before any storage overhead — the denominator of measured write
    /// amplification.
    pub ingest_bytes: u64,
    /// Writes that blocked on backpressure (stall threshold reached).
    pub stall_events: u64,
    /// Writes that briefly yielded on backpressure (slowdown threshold).
    pub slowdown_events: u64,
    /// Block-cache hits (0 when no cache is configured).
    pub cache_hits: u64,
    /// Block-cache misses (0 when no cache is configured).
    pub cache_misses: u64,
    /// Background jobs completed by an attached maintenance scheduler.
    pub bg_jobs_completed: u64,
    /// Background jobs that failed.
    pub bg_jobs_failed: u64,
    /// Background jobs queued or running at snapshot time.
    pub bg_jobs_pending: u64,
    /// Durability counters of the segmented write-ahead log.
    pub wal: WalStatsSnapshot,
    /// Per-level access profile.
    pub levels: Vec<LevelProfile>,
}

impl EngineStatsSnapshot {
    /// Total column groups fetched by point reads across all levels
    /// (the empirical counterpart of Equation 5 summed over the workload).
    pub fn total_point_read_groups(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.point_read_groups_fetched)
            .sum()
    }

    /// Returns the counters accumulated since `earlier`. All subtractions
    /// saturate at zero, so a counter reset between the two snapshots yields
    /// zeros instead of wrapping. `bg_jobs_pending` is a gauge and keeps this
    /// snapshot's value; per-level profiles likewise keep the current values.
    pub fn delta_since(&self, earlier: &EngineStatsSnapshot) -> EngineStatsSnapshot {
        EngineStatsSnapshot {
            inserts: self.inserts.saturating_sub(earlier.inserts),
            updates: self.updates.saturating_sub(earlier.updates),
            deletes: self.deletes.saturating_sub(earlier.deletes),
            point_reads: self.point_reads.saturating_sub(earlier.point_reads),
            scans: self.scans.saturating_sub(earlier.scans),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            compactions: self.compactions.saturating_sub(earlier.compactions),
            compaction_bytes_written: self
                .compaction_bytes_written
                .saturating_sub(earlier.compaction_bytes_written),
            compaction_bytes_read: self
                .compaction_bytes_read
                .saturating_sub(earlier.compaction_bytes_read),
            compaction_entries_written: self
                .compaction_entries_written
                .saturating_sub(earlier.compaction_entries_written),
            ingest_bytes: self.ingest_bytes.saturating_sub(earlier.ingest_bytes),
            stall_events: self.stall_events.saturating_sub(earlier.stall_events),
            slowdown_events: self.slowdown_events.saturating_sub(earlier.slowdown_events),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            bg_jobs_completed: self
                .bg_jobs_completed
                .saturating_sub(earlier.bg_jobs_completed),
            bg_jobs_failed: self.bg_jobs_failed.saturating_sub(earlier.bg_jobs_failed),
            bg_jobs_pending: self.bg_jobs_pending,
            wal: self.wal.delta_since(&earlier.wal),
            levels: self.levels.clone(),
        }
    }

    /// Block-cache hit rate in `[0, 1]`; zero when no cache is configured.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Thread-safe collector of the engine's operation counts and per-level
/// profile. The flush/compaction/ingest/backpressure fields of its snapshot
/// stay zero here: the engine shell counts those, and
/// [`LaserDb::stats`](crate::LaserDb::stats) merges the two.
#[derive(Debug)]
pub struct EngineStats {
    inner: Mutex<EngineStatsSnapshot>,
}

impl EngineStats {
    /// Creates a collector for a tree with `num_levels` levels.
    pub fn new(num_levels: usize) -> Self {
        EngineStats {
            inner: Mutex::new(EngineStatsSnapshot {
                levels: vec![LevelProfile::default(); num_levels],
                ..Default::default()
            }),
        }
    }

    /// Records an insert.
    pub fn record_insert(&self) {
        self.inner.lock().inserts += 1;
    }

    /// Records an update.
    pub fn record_update(&self) {
        self.inner.lock().updates += 1;
    }

    /// Records a delete.
    pub fn record_delete(&self) {
        self.inner.lock().deletes += 1;
    }

    /// Records a point read that fetched `groups_fetched` CGs at `level`.
    pub fn record_point_read_level(
        &self,
        level: usize,
        groups_fetched: u64,
        projection: &Projection,
    ) {
        let mut inner = self.inner.lock();
        if let Some(profile) = inner.levels.get_mut(level) {
            profile.point_reads += 1;
            profile.point_read_groups_fetched += groups_fetched;
            profile.record_projection(projection);
            bump_projection(&mut profile.read_projections, projection, 1);
        }
    }

    /// Records the completion of a point read.
    pub fn record_point_read(&self) {
        self.inner.lock().point_reads += 1;
    }

    /// Records a scan that returned `entries` entries from `level`.
    pub fn record_scan_level(&self, level: usize, entries: u64, projection: &Projection) {
        let mut inner = self.inner.lock();
        if let Some(profile) = inner.levels.get_mut(level) {
            profile.scans += 1;
            profile.scan_entries += entries;
            profile.record_projection(projection);
            if let Some(entry) = profile
                .scan_projections
                .iter_mut()
                .find(|(p, _, _)| p == projection)
            {
                entry.1 += entries;
                entry.2 += 1;
            } else {
                profile
                    .scan_projections
                    .push((projection.clone(), entries, 1));
            }
        }
    }

    /// Records the completion of a range scan.
    pub fn record_scan(&self) {
        self.inner.lock().scans += 1;
    }

    /// Records an update projection profile against `level`.
    pub fn record_update_level(&self, level: usize, projection: &Projection) {
        let mut inner = self.inner.lock();
        if let Some(profile) = inner.levels.get_mut(level) {
            profile.updates += 1;
            profile.record_projection(projection);
            bump_projection(&mut profile.update_projections, projection, 1);
        }
    }

    /// Returns a point-in-time copy of all counters.
    pub fn snapshot(&self) -> EngineStatsSnapshot {
        self.inner.lock().clone()
    }

    /// Resets every counter (level profiles keep their size).
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        let levels = inner.levels.len();
        *inner = EngineStatsSnapshot {
            levels: vec![LevelProfile::default(); levels],
            ..Default::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = EngineStats::new(4);
        stats.record_insert();
        stats.record_insert();
        stats.record_update();
        stats.record_delete();
        stats.record_point_read();
        stats.record_scan();
        let snap = stats.snapshot();
        assert_eq!(snap.inserts, 2);
        assert_eq!(snap.updates, 1);
        assert_eq!(snap.deletes, 1);
        assert_eq!(snap.point_reads, 1);
        assert_eq!(snap.scans, 1);
    }

    #[test]
    fn per_level_profiles() {
        let stats = EngineStats::new(3);
        let proj = Projection::of([0, 1]);
        stats.record_point_read_level(1, 2, &proj);
        stats.record_point_read_level(1, 1, &proj);
        stats.record_scan_level(2, 100, &Projection::of([5]));
        stats.record_update_level(0, &proj);
        let snap = stats.snapshot();
        assert_eq!(snap.levels[1].point_reads, 2);
        assert_eq!(snap.levels[1].point_read_groups_fetched, 3);
        assert_eq!(snap.levels[1].projections, vec![(proj.clone(), 2)]);
        assert_eq!(snap.levels[1].read_projections, vec![(proj.clone(), 2)]);
        assert_eq!(snap.levels[0].update_projections, vec![(proj.clone(), 1)]);
        assert_eq!(
            snap.levels[2].scan_projections,
            vec![(Projection::of([5]), 100, 1)]
        );
        assert_eq!(snap.levels[2].scans, 1);
        assert_eq!(snap.levels[2].scan_entries, 100);
        assert_eq!(snap.levels[0].updates, 1);
        assert_eq!(snap.total_point_read_groups(), 3);
        // Out-of-range level is ignored, not a panic.
        stats.record_point_read_level(99, 1, &proj);
    }

    #[test]
    fn reset_clears_counters_but_keeps_levels() {
        let stats = EngineStats::new(5);
        stats.record_insert();
        stats.record_point_read_level(3, 1, &Projection::of([0]));
        stats.reset();
        let snap = stats.snapshot();
        assert_eq!(snap.inserts, 0);
        assert_eq!(snap.levels.len(), 5);
        assert_eq!(snap.levels[3].point_reads, 0);
    }
}
