//! Segmented write-ahead log with group commit.
//!
//! Records use the [`crate::wal`] codec. A single log file could only be
//! truncated once *all* buffered writes were flushed — under sustained
//! ingest it would grow without bound and recovery replay time with it.
//! This module bounds both, RocksDB-style:
//!
//! * **One segment per memtable.** The engine rotates to a fresh, numbered
//!   segment (`wal-00000017.log`) every time it freezes the mutable memtable.
//!   The sealed segment holds exactly the frozen memtable's writes.
//! * **Manifest-tracked lifecycle.** Live segments (with the smallest
//!   sequence number they may contain) are recorded in the manifest via
//!   [`WalSegmentMeta`]; a segment is retired and deleted as soon as the
//!   memtable it backs has been durably flushed to an SST. Recovery therefore
//!   replays only the segments whose data is not yet in the tree, keeping
//!   replay time proportional to the *unflushed* tail rather than total
//!   ingest.
//! * **Group commit.** Appends never fsync inline. A writer that needs
//!   durability calls [`SegmentedWal::ensure_durable`] after releasing the
//!   engine's write lock; the first writer to arrive syncs the log up to the
//!   latest appended record, and every concurrent writer whose record that
//!   sync covered is acknowledged without issuing its own fsync (counted in
//!   [`WalStatsSnapshot::coalesced_acks`]). The
//!   `sync_wal_interval_ms` option relaxes this further to at most one fsync
//!   per time window.
//!
//! Per-segment replay keeps the original torn-tail tolerance: a truncated or
//! corrupt record ends replay at the last intact prefix.
//!
//! # Rotation-based in-place recovery
//!
//! A failed append may leave a torn record mid-segment, and a failed fsync
//! leaves the durability of every record since the last good sync unknown.
//! Instead of fail-stopping until reopen, the log recovers *in place*:
//!
//! ```text
//!   append/fsync error
//!        │ damaged = true
//!        ▼
//!   decode the damaged segment's intact record prefix
//!        ▼
//!   re-stage those records into a fresh segment, fsync it
//!        ▼
//!   truncate the damaged file, retire its id, swap the fresh
//!   segment in as active  →  damaged = false, writable again
//! ```
//!
//! Recovery runs immediately on the failure path and again on every later
//! append/rotate/sync while the log is damaged, so a transient fault heals
//! on the next write attempt with **no reopen and zero acked-write loss**
//! (every intact record is re-staged and fsynced before the log accepts new
//! appends). While recovery keeps failing — a persistent fault — every
//! write-path call returns the underlying storage error, reads and segment
//! shipping keep working, and the engine above degrades to read-only.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use std::sync::{Arc, OnceLock};
use telemetry::Telemetry;

use crate::coding::{put_u64, put_varint64, Decoder};
use crate::error::{Error, Result};
use crate::observability::{WalErrorStage, WalTelemetry};
use crate::storage::{SharedSyncHandle, StorageRef, WritableFile};
use crate::types::{SeqNo, WriteBatch};
use crate::wal::{decode_records, encode_record, WalRecord};

/// Prefix of WAL segment file names.
pub const SEGMENT_PREFIX: &str = "wal-";
/// Suffix of WAL segment file names.
pub const SEGMENT_SUFFIX: &str = ".log";

/// The storage file name of segment `id`.
pub fn segment_file_name(id: u64) -> String {
    format!("{SEGMENT_PREFIX}{id:08}{SEGMENT_SUFFIX}")
}

/// Parses a segment id back out of a file name produced by
/// [`segment_file_name`]. Returns `None` for anything else (including the
/// legacy `wal-current.log` name, which is not numbered).
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let middle = name
        .strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?;
    if middle.is_empty() || !middle.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    middle.parse().ok()
}

/// Manifest-tracked metadata of one live WAL segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalSegmentMeta {
    /// Monotonically increasing segment number; the file name derives from it.
    pub id: u64,
    /// Smallest sequence number any record in this segment may carry.
    pub min_seq: SeqNo,
}

impl WalSegmentMeta {
    /// The storage file name of this segment.
    pub fn file_name(&self) -> String {
        segment_file_name(self.id)
    }

    /// Appends the encoding used inside the manifest.
    pub fn encode_to(&self, dst: &mut Vec<u8>) {
        put_varint64(dst, self.id);
        put_u64(dst, self.min_seq);
    }

    /// Decodes one segment meta from a manifest decoder.
    pub fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        Ok(WalSegmentMeta {
            id: d.varint64()?,
            min_seq: d.u64()?,
        })
    }
}

/// A sealed segment's byte image as shipped from a leader to a catching-up
/// replica. `id` is the leader-side segment number (diagnostic only — the
/// replica renumbers on adoption); `min_seq`/`last_seq` bound the sequence
/// numbers of the records inside.
#[derive(Debug, Clone)]
pub struct ShippedSegment {
    /// Leader-side segment id.
    pub id: u64,
    /// Smallest sequence number any record in the image may carry.
    pub min_seq: SeqNo,
    /// Largest sequence number any record in the image may carry.
    pub last_seq: SeqNo,
    /// The raw segment file bytes (the WAL record encoding, unchanged).
    pub bytes: Vec<u8>,
}

/// When appended records become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSyncPolicy {
    /// Never fsync on the write path; segments are synced only when sealed by
    /// a rotation. A crash may lose the unsealed tail.
    Never,
    /// Every acknowledged write waits until an fsync covers its record.
    /// Concurrent writers coalesce into a single fsync (group commit).
    Always,
    /// At most one fsync per window: a write is acknowledged immediately if
    /// the log was synced within the last `interval`; otherwise it performs
    /// (or joins) a sync. Bounds data loss to one window.
    Interval(Duration),
}

impl WalSyncPolicy {
    /// Derives the policy from the engine options (`sync_wal`,
    /// `sync_wal_interval_ms`).
    pub fn from_options(sync_wal: bool, sync_wal_interval_ms: u64) -> Self {
        if !sync_wal {
            WalSyncPolicy::Never
        } else if sync_wal_interval_ms == 0 {
            WalSyncPolicy::Always
        } else {
            WalSyncPolicy::Interval(Duration::from_millis(sync_wal_interval_ms))
        }
    }
}

/// A claim ticket returned by [`SegmentedWal::append`]: identifies the
/// appended record so [`SegmentedWal::ensure_durable`] can wait for (or
/// perform) an fsync covering it.
#[derive(Debug, Clone, Copy)]
pub struct WalTicket {
    epoch: u64,
}

/// Monotonic counters describing WAL activity.
#[derive(Debug, Default)]
pub struct WalStats {
    records_appended: AtomicU64,
    syncs: AtomicU64,
    syncs_off_lock: AtomicU64,
    coalesced_acks: AtomicU64,
    rotations: AtomicU64,
    segments_deleted: AtomicU64,
    records_replayed: AtomicU64,
    segments_replayed: AtomicU64,
    orphan_segments_deleted: AtomicU64,
    recoveries: AtomicU64,
    records_restaged: AtomicU64,
}

/// Owned snapshot of [`WalStats`] plus point-in-time gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStatsSnapshot {
    /// Records appended since open (including recovery re-logging).
    pub records_appended: u64,
    /// fsync calls issued (write path + rotations/seals).
    pub syncs: u64,
    /// Write-path fsyncs issued with the append mutex *released*, so
    /// concurrent appends could overlap the `sync_data` (the group-commit
    /// leader path on backends that support shared sync handles).
    pub syncs_off_lock: u64,
    /// Durable acknowledgements that did not need their own fsync because a
    /// concurrent writer's (or a rotation's) sync already covered them.
    pub coalesced_acks: u64,
    /// Segment rotations (one per memtable freeze).
    pub rotations: u64,
    /// Segments deleted after their memtable was durably flushed.
    pub segments_deleted: u64,
    /// Records replayed by the most recent open.
    pub records_replayed: u64,
    /// Segments replayed by the most recent open.
    pub segments_replayed: u64,
    /// Stale segments deleted without replay by the most recent open.
    pub orphan_segments_deleted: u64,
    /// Successful in-place rotation recoveries after an append/fsync error
    /// (the log healed without a reopen).
    pub recoveries: u64,
    /// Records re-staged into a fresh segment by in-place recoveries.
    pub records_restaged: u64,
    /// Live segments right now (sealed + active).
    pub segments_live: u64,
    /// Total bytes across live segments right now.
    pub live_bytes: u64,
}

impl WalStatsSnapshot {
    /// Counter increments since `earlier` (saturating, so a reopened or
    /// reset WAL can never underflow the delta). The point-in-time gauges
    /// (`segments_live`, `live_bytes`) keep their current values.
    pub fn delta_since(&self, earlier: &WalStatsSnapshot) -> WalStatsSnapshot {
        WalStatsSnapshot {
            records_appended: self
                .records_appended
                .saturating_sub(earlier.records_appended),
            syncs: self.syncs.saturating_sub(earlier.syncs),
            syncs_off_lock: self.syncs_off_lock.saturating_sub(earlier.syncs_off_lock),
            coalesced_acks: self.coalesced_acks.saturating_sub(earlier.coalesced_acks),
            rotations: self.rotations.saturating_sub(earlier.rotations),
            segments_deleted: self
                .segments_deleted
                .saturating_sub(earlier.segments_deleted),
            records_replayed: self
                .records_replayed
                .saturating_sub(earlier.records_replayed),
            segments_replayed: self
                .segments_replayed
                .saturating_sub(earlier.segments_replayed),
            orphan_segments_deleted: self
                .orphan_segments_deleted
                .saturating_sub(earlier.orphan_segments_deleted),
            recoveries: self.recoveries.saturating_sub(earlier.recoveries),
            records_restaged: self
                .records_restaged
                .saturating_sub(earlier.records_restaged),
            segments_live: self.segments_live,
            live_bytes: self.live_bytes,
        }
    }

    /// Field-wise sum with `other` (gauges included), used to aggregate
    /// per-shard snapshots into one whole-deployment view.
    pub fn merged(&self, other: &WalStatsSnapshot) -> WalStatsSnapshot {
        WalStatsSnapshot {
            records_appended: self.records_appended + other.records_appended,
            syncs: self.syncs + other.syncs,
            syncs_off_lock: self.syncs_off_lock + other.syncs_off_lock,
            coalesced_acks: self.coalesced_acks + other.coalesced_acks,
            rotations: self.rotations + other.rotations,
            segments_deleted: self.segments_deleted + other.segments_deleted,
            records_replayed: self.records_replayed + other.records_replayed,
            segments_replayed: self.segments_replayed + other.segments_replayed,
            orphan_segments_deleted: self.orphan_segments_deleted + other.orphan_segments_deleted,
            recoveries: self.recoveries + other.recoveries,
            records_restaged: self.records_restaged + other.records_restaged,
            segments_live: self.segments_live + other.segments_live,
            live_bytes: self.live_bytes + other.live_bytes,
        }
    }
}

struct ActiveSegment {
    meta: WalSegmentMeta,
    file: Box<dyn WritableFile>,
    /// Shareable fsync handle of the segment file (None when the backend
    /// cannot duplicate handles; syncing then falls back to holding the
    /// append mutex across the fsync).
    sync_handle: Option<Arc<dyn SharedSyncHandle>>,
}

impl ActiveSegment {
    fn create(storage: &StorageRef, meta: WalSegmentMeta) -> Result<Self> {
        let file = storage.create(&meta.file_name())?;
        let sync_handle = file.shared_sync_handle();
        Ok(ActiveSegment {
            meta,
            file,
            sync_handle,
        })
    }

    /// Appends one encoded record (no fsync).
    fn append(&mut self, start_seq: SeqNo, batch: &WriteBatch) -> Result<()> {
        self.file.append(&encode_record(start_seq, batch))
    }
}

/// Reads a WAL file and decodes its intact records (see
/// [`decode_records`]).
fn replay_file(storage: &StorageRef, name: &str) -> Result<(Vec<WalRecord>, bool, u64)> {
    decode_records(&storage.open(name)?.read_all()?)
}

struct SealedSegment {
    meta: WalSegmentMeta,
    bytes: u64,
    /// Upper bound on the sequence numbers of this segment's records (set at
    /// seal time from the rotation's `next_min_seq`, or from the decoded
    /// records when the segment was adopted). The replication retention
    /// floor compares against this to decide whether a lagging replica may
    /// still need the segment.
    last_seq: SeqNo,
}

struct WalInner {
    active: ActiveSegment,
    /// Sealed-but-live segments, oldest first. Each backs one frozen
    /// memtable that has not finished flushing yet.
    sealed: Vec<SealedSegment>,
    /// Segments retired from the live set whose files still await deletion
    /// (deletion happens only after the manifest no longer lists them).
    retired: Vec<u64>,
    /// Files fully replayed by `open`, deleted by `finish_recovery` once
    /// their records are durable in the new active segment (or adopted back
    /// into the live set by [`SegmentedWal::adopt_recovered`]).
    replayed_files: Vec<String>,
    /// Replication retention floor: every record with a sequence number at
    /// or below the floor has been acknowledged by every replica. `None`
    /// means no replication — segments retire freely.
    retention_floor: Option<SeqNo>,
    /// Sealed segments whose retire was requested but blocked because a
    /// lagging replica may still need them (their `last_seq` exceeds the
    /// retention floor). Re-examined every time the floor advances.
    pending_retire: Vec<u64>,
    next_id: u64,
    /// Epoch of the most recently appended record.
    appended_epoch: u64,
    /// Epoch through which records are known durable.
    synced_epoch: u64,
    last_sync: Instant,
    /// Set when an append or fsync on the active segment failed. A failed
    /// append can leave a torn record in the middle of the segment; anything
    /// appended after it would be silently discarded at replay. The log
    /// therefore refuses further appends until
    /// [`SegmentedWal::recover_in_place`] succeeds: the intact record
    /// prefix of the damaged segment is re-staged into a fresh, fsynced
    /// segment and writability is restored without a reopen. While recovery
    /// itself keeps failing (persistent fault), the flag stays set and
    /// every write-path call escalates the storage error.
    damaged: bool,
}

/// One replayed WAL file, grouped so recovery can adopt sealed segments in
/// place instead of re-logging their records one by one.
#[derive(Debug, Clone)]
pub struct RecoveredSegment {
    /// Segment id; `None` for legacy single-file WALs (never adoptable).
    pub id: Option<u64>,
    /// The file the records came from.
    pub file_name: String,
    /// Byte length of the intact record prefix.
    pub bytes: u64,
    /// Whether this file ended cleanly (no torn or corrupt tail).
    pub clean: bool,
    /// The intact records, in append order.
    pub records: Vec<WalRecord>,
}

/// Outcome of WAL recovery at open, grouped per replayed file.
#[derive(Debug, Default, Clone)]
pub struct WalRecovery {
    /// Every replayed file, in replay order.
    pub segments: Vec<RecoveredSegment>,
    /// False if a torn or corrupt tail was discarded somewhere.
    pub clean: bool,
}

impl WalRecovery {
    /// Every intact record of the live segments, in replay order.
    pub fn records(&self) -> impl Iterator<Item = &WalRecord> + '_ {
        self.segments.iter().flat_map(|s| s.records.iter())
    }

    /// Total number of recovered records.
    pub fn num_records(&self) -> usize {
        self.segments.iter().map(|s| s.records.len()).sum()
    }

    /// True when no records were recovered.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(|s| s.records.is_empty())
    }

    /// Total intact bytes across the replayed files — the volume a re-log
    /// would rewrite, and what in-place adoption avoids.
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// True when every recovered record sits in a numbered segment that
    /// ended cleanly, so the whole tail can be adopted in place.
    pub fn adoptable(&self) -> bool {
        self.clean
            && !self.is_empty()
            && self
                .segments
                .iter()
                .all(|s| s.records.is_empty() || s.id.is_some())
    }
}

/// The segmented write-ahead log manager. One per engine.
pub struct SegmentedWal {
    storage: StorageRef,
    policy: WalSyncPolicy,
    inner: Mutex<WalInner>,
    /// Elects the group-commit leader: the writer holding this lock runs the
    /// fsync (with `inner` *released*, so appends overlap the sync); every
    /// writer queued behind it re-checks `synced_epoch` on entry and is
    /// acknowledged without an fsync of its own when the leader covered it.
    sync_lock: Mutex<()>,
    stats: WalStats,
    /// Pre-resolved telemetry handles (fsync latency histogram, rotation and
    /// slow-fsync events); set once by [`SegmentedWal::attach_telemetry`].
    telemetry: OnceLock<WalTelemetry>,
}

impl SegmentedWal {
    /// Opens the WAL on `storage`, replaying the live segments.
    ///
    /// `manifest_segments` is the live-segment list recorded in the manifest;
    /// a segment file on disk that the manifest does not list (and that is
    /// not newer than everything the manifest knows) is an orphan left behind
    /// by a crash between a flush and its file deletion — it is deleted
    /// without replay. `legacy_names` are pre-segmentation single-file WAL
    /// names that are replayed (first) and migrated if present.
    ///
    /// The caller must re-insert the recovered records into its memtable,
    /// then either re-log them via [`SegmentedWal::append`] or — when the
    /// tail is large and [`WalRecovery::adoptable`] — keep the sealed files
    /// as-is via [`SegmentedWal::adopt_recovered`]; in both cases it then
    /// calls [`SegmentedWal::finish_recovery`] to delete the leftover
    /// replayed files.
    pub fn open(
        storage: &StorageRef,
        policy: WalSyncPolicy,
        manifest_segments: &[WalSegmentMeta],
        legacy_names: &[&str],
        next_min_seq: SeqNo,
    ) -> Result<(Self, WalRecovery)> {
        let mut disk_ids: Vec<u64> = storage
            .list()?
            .iter()
            .filter_map(|name| parse_segment_file_name(name))
            .collect();
        disk_ids.sort_unstable();
        let max_manifest_id = manifest_segments.iter().map(|s| s.id).max().unwrap_or(0);
        let live: std::collections::HashSet<u64> = manifest_segments.iter().map(|s| s.id).collect();

        let stats = WalStats::default();
        let mut recovery = WalRecovery {
            segments: Vec::new(),
            clean: true,
        };
        let mut replayed_files: Vec<String> = Vec::new();

        // Legacy single-file WALs predate every segment: replay them first.
        for name in legacy_names {
            if storage.exists(name) {
                let (records, clean, bytes) = replay_file(storage, name)?;
                stats
                    .records_replayed
                    .fetch_add(records.len() as u64, Ordering::Relaxed);
                stats.segments_replayed.fetch_add(1, Ordering::Relaxed);
                recovery.clean &= clean;
                recovery.segments.push(RecoveredSegment {
                    id: None,
                    file_name: name.to_string(),
                    bytes,
                    clean,
                    records,
                });
                replayed_files.push(name.to_string());
            }
        }

        let mut halted = false;
        for id in &disk_ids {
            let name = segment_file_name(*id);
            // A segment the manifest does not list was already flushed (the
            // crash hit between manifest persist and file deletion) — unless
            // it is newer than everything the manifest has seen, in which
            // case it must be replayed to be safe.
            if !live.contains(id) && *id <= max_manifest_id {
                match storage.delete(&name) {
                    Ok(()) | Err(Error::NotFound(_)) => {}
                    Err(e) => return Err(e),
                }
                stats
                    .orphan_segments_deleted
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if halted {
                // A torn record in an earlier segment means later segments
                // cannot be trusted to continue the sequence; leave them for
                // inspection but do not replay past the damage.
                continue;
            }
            if !storage.exists(&name) {
                // Listed in the manifest but already unlinked: the flush that
                // retired it completed. Nothing to replay.
                continue;
            }
            let (records, clean, bytes) = replay_file(storage, &name)?;
            stats
                .records_replayed
                .fetch_add(records.len() as u64, Ordering::Relaxed);
            stats.segments_replayed.fetch_add(1, Ordering::Relaxed);
            recovery.clean &= clean;
            recovery.segments.push(RecoveredSegment {
                id: Some(*id),
                file_name: name.clone(),
                bytes,
                clean,
                records,
            });
            replayed_files.push(name);
            if !clean {
                halted = true;
            }
        }

        let next_id = disk_ids.last().copied().unwrap_or(0).max(max_manifest_id) + 1;
        let min_seq = recovery
            .records()
            .next()
            .map(|r| r.start_seq.min(next_min_seq))
            .unwrap_or(next_min_seq);
        let active = ActiveSegment::create(
            storage,
            WalSegmentMeta {
                id: next_id,
                min_seq,
            },
        )?;
        let wal = SegmentedWal {
            storage: StorageRef::clone(storage),
            policy,
            sync_lock: Mutex::new(()),
            inner: Mutex::new(WalInner {
                active,
                sealed: Vec::new(),
                retired: Vec::new(),
                replayed_files,
                retention_floor: None,
                pending_retire: Vec::new(),
                next_id: next_id + 1,
                appended_epoch: 0,
                synced_epoch: 0,
                last_sync: Instant::now(),
                damaged: false,
            }),
            stats,
            telemetry: OnceLock::new(),
        };
        Ok((wal, recovery))
    }

    /// Registers this WAL with a shared telemetry hub under `shard_label`:
    /// every group-commit fsync lands in a latency histogram, slow fsyncs
    /// and segment rotations are logged as events. Idempotent — a second
    /// attach keeps the first registration.
    pub fn attach_telemetry(&self, hub: &Arc<Telemetry>, shard_label: &str) {
        let _ = self.telemetry.set(WalTelemetry::register(hub, shard_label));
    }

    /// Appends a batch whose first entry has sequence number `start_seq` to
    /// the active segment. Does **not** fsync — call
    /// [`SegmentedWal::ensure_durable`] with the returned ticket (outside any
    /// engine lock) to wait for durability per the configured policy.
    ///
    /// A failed append may leave a torn record in the segment; appending
    /// more records after it would put them beyond the damage, where replay
    /// silently discards them. The log therefore recovers in place before
    /// accepting the next record: the intact prefix is re-staged into a
    /// fresh segment (see the module docs) and this append is retried
    /// there. Only while recovery itself fails — a persistent storage fault
    /// — do appends keep erroring; reads and segment shipping continue
    /// throughout.
    pub fn append(&self, start_seq: SeqNo, batch: &WriteBatch) -> Result<WalTicket> {
        let mut inner = self.inner.lock();
        self.ensure_writable(&mut inner)?;
        if let Err(e) = inner.active.append(start_seq, batch) {
            inner.damaged = true;
            self.note_error(WalErrorStage::Append);
            // Try to heal immediately: re-stage the intact prefix into a
            // fresh segment and retry this append there. If recovery (or
            // the retry) fails the original error escalates and the log
            // stays damaged for the next attempt.
            if self.recover_in_place(&mut inner).is_err() {
                return Err(e);
            }
            if let Err(retry_err) = inner.active.append(start_seq, batch) {
                inner.damaged = true;
                self.note_error(WalErrorStage::Append);
                return Err(retry_err);
            }
        }
        inner.active.meta.min_seq = inner.active.meta.min_seq.min(start_seq);
        inner.appended_epoch += 1;
        self.stats.records_appended.fetch_add(1, Ordering::Relaxed);
        Ok(WalTicket {
            epoch: inner.appended_epoch,
        })
    }

    /// Returns Ok when the log can accept appends, attempting in-place
    /// recovery first if an earlier failure left it damaged. The error of a
    /// failed recovery is the underlying storage fault, so callers can
    /// classify it (transient, ENOSPC, ...) for their degradation policy.
    fn ensure_writable(&self, inner: &mut WalInner) -> Result<()> {
        if inner.damaged {
            self.recover_in_place(inner)?;
        }
        Ok(())
    }

    /// Counts and logs one write-path error (satellite: no WAL error is
    /// swallowed silently).
    fn note_error(&self, stage: WalErrorStage) {
        if let Some(telemetry) = self.telemetry.get() {
            telemetry.error_event(stage);
        }
    }

    /// Rotation-based in-place recovery: decode the damaged active
    /// segment's intact record prefix, re-stage it into a fresh fsynced
    /// segment, truncate the damaged file (so a crash before the next
    /// manifest persist cannot halt replay on its torn tail) and swap the
    /// fresh segment in as active. On success the log is writable again
    /// with zero acked-write loss and no reopen.
    fn recover_in_place(&self, inner: &mut WalInner) -> Result<()> {
        let start = Instant::now();
        match self.try_recover(inner) {
            Ok(restaged) => {
                inner.damaged = false;
                self.stats.recoveries.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .records_restaged
                    .fetch_add(restaged as u64, Ordering::Relaxed);
                if let Some(telemetry) = self.telemetry.get() {
                    telemetry.rotation_event(start.elapsed(), inner.active.file.len());
                }
                Ok(())
            }
            Err(e) => {
                self.note_error(WalErrorStage::Recovery);
                Err(e)
            }
        }
    }

    fn try_recover(&self, inner: &mut WalInner) -> Result<usize> {
        let damaged_name = inner.active.meta.file_name();
        // The intact record prefix is everything that ever ack'd (and
        // possibly a torn tail, which decode_records drops).
        let records = match self.storage.open(&damaged_name) {
            Ok(file) => decode_records(&file.read_all()?)?.0,
            // The damaged segment never reached storage: nothing to re-stage.
            Err(Error::NotFound(_)) => Vec::new(),
            Err(e) => return Err(e),
        };
        let id = inner.next_id;
        let mut fresh = ActiveSegment::create(
            &self.storage,
            WalSegmentMeta {
                id,
                min_seq: inner.active.meta.min_seq,
            },
        )?;
        for record in &records {
            fresh.append(record.start_seq, &record.batch)?;
        }
        fresh.file.sync()?;
        // Truncate the damaged file: a torn tail left on disk would halt
        // replay of every later segment if we crashed before the manifest
        // stops listing it. An empty file replays clean; the id is retired
        // and the file deleted after the next manifest persist.
        let mut truncated = self.storage.create(&damaged_name)?;
        truncated.sync()?;
        inner.next_id += 1;
        let damaged = std::mem::replace(&mut inner.active, fresh);
        inner.retired.push(damaged.meta.id);
        // Everything re-staged is fsynced in the fresh segment: every epoch
        // appended so far is durable again.
        inner.synced_epoch = inner.appended_epoch;
        inner.last_sync = Instant::now();
        Ok(records.len())
    }

    /// Makes the record behind `ticket` durable per the sync policy.
    ///
    /// With [`WalSyncPolicy::Always`], the first writer to arrive syncs up to
    /// the newest appended record and every already-covered writer returns
    /// without an fsync of its own (group commit). With
    /// [`WalSyncPolicy::Interval`], a sync is issued at most once per window.
    pub fn ensure_durable(&self, ticket: &WalTicket) -> Result<()> {
        match self.policy {
            WalSyncPolicy::Never => Ok(()),
            WalSyncPolicy::Always => self.sync_through(ticket.epoch, None),
            WalSyncPolicy::Interval(window) => self.sync_through(ticket.epoch, Some(window)),
        }
    }

    /// Forces an fsync covering everything appended so far.
    pub fn sync(&self) -> Result<()> {
        let epoch = {
            let mut inner = self.inner.lock();
            self.ensure_writable(&mut inner)?;
            inner.appended_epoch
        };
        if epoch == 0 {
            return Ok(());
        }
        self.sync_off_lock(epoch)
    }

    fn sync_through(&self, epoch: u64, window: Option<Duration>) -> Result<()> {
        {
            let inner = self.inner.lock();
            if inner.synced_epoch >= epoch {
                // A rotation or a concurrent writer's fsync already covered
                // this record: acknowledged with no fsync of our own.
                self.stats.coalesced_acks.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            if let Some(window) = window {
                if inner.last_sync.elapsed() < window {
                    // Within the sync window: acknowledged immediately, the
                    // next window-expiring writer (or rotation) will cover us.
                    self.stats.coalesced_acks.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
            }
        }
        self.sync_off_lock(epoch)
    }

    /// Group commit: elect a leader via `sync_lock`, re-check coverage, then
    /// fsync through the active segment's shared handle with the append
    /// mutex *released*, so concurrent appends overlap a slow `sync_data`.
    /// Backends without shared handles fall back to syncing under the mutex.
    fn sync_off_lock(&self, epoch: u64) -> Result<()> {
        let _leader = self.sync_lock.lock();
        let (target, handle) = {
            let mut inner = self.inner.lock();
            if inner.synced_epoch >= epoch {
                // The previous leader's fsync covered this record while we
                // queued for leadership (or a rotation recovery re-staged and
                // fsynced everything).
                self.stats.coalesced_acks.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            self.ensure_writable(&mut inner)?;
            if inner.synced_epoch >= epoch {
                self.stats.coalesced_acks.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            (inner.appended_epoch, inner.active.sync_handle.clone())
        };
        let Some(handle) = handle else {
            let mut inner = self.inner.lock();
            self.ensure_writable(&mut inner)?;
            let target = inner.appended_epoch;
            return self.sync_locked(&mut inner, target);
        };
        // `target` and `handle` were captured together under `inner`, so
        // every record with epoch <= target is either in this file or in an
        // earlier segment already synced by its sealing rotation. Appends
        // racing with this fsync land in the same file (harmlessly synced
        // early) or in a newer segment (epoch > target, not claimed).
        let telemetry = self.telemetry.get();
        let fsync_start = telemetry.map(|_| Instant::now());
        let result = handle.sync();
        if let (Some(telemetry), Some(start)) = (telemetry, fsync_start) {
            telemetry.record_fsync(start.elapsed());
        }
        let mut inner = self.inner.lock();
        match result {
            Ok(()) => {
                inner.synced_epoch = inner.synced_epoch.max(target);
                inner.last_sync = Instant::now();
                self.stats.syncs.fetch_add(1, Ordering::Relaxed);
                self.stats.syncs_off_lock.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                // After a failed fsync the on-disk state of recent records is
                // unknown. Recover in place: the intact prefix is re-staged
                // into a fresh segment and fsynced there, which covers every
                // appended record — or the WAL stays damaged and the error
                // escalates.
                inner.damaged = true;
                self.note_error(WalErrorStage::Fsync);
                match self.recover_in_place(&mut inner) {
                    Ok(_) => Ok(()),
                    Err(_) => Err(e),
                }
            }
        }
    }

    fn sync_locked(&self, inner: &mut WalInner, target: u64) -> Result<()> {
        let telemetry = self.telemetry.get();
        let fsync_start = telemetry.map(|_| Instant::now());
        if let Err(e) = inner.active.file.sync() {
            // An fsync failure leaves the on-disk state of every record since
            // the last successful sync unknown. Recover in place: decode the
            // intact prefix, re-stage it into a fresh fsynced segment. If
            // recovery succeeds the target epoch is covered; otherwise the
            // WAL stays damaged and the original error escalates.
            inner.damaged = true;
            self.note_error(WalErrorStage::Fsync);
            return match self.recover_in_place(inner) {
                Ok(_) => Ok(()),
                Err(_) => Err(e),
            };
        }
        inner.synced_epoch = inner.synced_epoch.max(target);
        inner.last_sync = Instant::now();
        self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        if let (Some(telemetry), Some(start)) = (telemetry, fsync_start) {
            telemetry.record_fsync(start.elapsed());
        }
        Ok(())
    }

    /// Seals the active segment (syncing it, so the memtable it backs is
    /// fully durable) and opens a fresh one whose records will all carry
    /// sequence numbers `>= next_min_seq`. Returns the sealed segment's id,
    /// which the engine pairs with the frozen memtable for later release.
    pub fn rotate(&self, next_min_seq: SeqNo) -> Result<u64> {
        let telemetry = self.telemetry.get();
        let rotate_start = telemetry.map(|_| Instant::now());
        let mut inner = self.inner.lock();
        self.ensure_writable(&mut inner)?;
        let target = inner.appended_epoch;
        self.sync_locked(&mut inner, target)?;
        let id = inner.next_id;
        inner.next_id += 1;
        let new_active = match ActiveSegment::create(
            &self.storage,
            WalSegmentMeta {
                id,
                min_seq: next_min_seq,
            },
        ) {
            Ok(segment) => segment,
            Err(e) => {
                self.note_error(WalErrorStage::Rotation);
                return Err(e);
            }
        };
        let old = std::mem::replace(&mut inner.active, new_active);
        let sealed_id = old.meta.id;
        let sealed_bytes = old.file.len();
        inner.sealed.push(SealedSegment {
            meta: old.meta,
            bytes: sealed_bytes,
            // Every record in the sealed segment precedes the new segment's
            // first sequence number.
            last_seq: next_min_seq.saturating_sub(1),
        });
        self.stats.rotations.fetch_add(1, Ordering::Relaxed);
        if let (Some(telemetry), Some(start)) = (telemetry, rotate_start) {
            telemetry.rotation_event(start.elapsed(), sealed_bytes);
        }
        Ok(sealed_id)
    }

    /// Removes `segment_id` from the live set. The file is **not** deleted
    /// yet: the engine first persists a manifest without the segment, then
    /// calls [`SegmentedWal::delete_retired`]. No-op for unknown ids, so the
    /// release path is idempotent.
    ///
    /// With a replication retention floor set, a segment that may still
    /// contain records above the floor is *pinned* instead: it stays in the
    /// live set (and the manifest, and on disk) until
    /// [`SegmentedWal::set_retention_floor`] advances past its last record.
    /// Replaying a pinned segment at recovery is harmless — it re-applies
    /// the same entries at the same sequence numbers.
    pub fn retire(&self, segment_id: u64) {
        let mut inner = self.inner.lock();
        let Some(seg) = inner.sealed.iter().find(|s| s.meta.id == segment_id) else {
            return;
        };
        if let Some(floor) = inner.retention_floor {
            if seg.last_seq > floor {
                if !inner.pending_retire.contains(&segment_id) {
                    inner.pending_retire.push(segment_id);
                }
                return;
            }
        }
        inner.sealed.retain(|s| s.meta.id != segment_id);
        inner.retired.push(segment_id);
    }

    /// Sets the replication retention floor: every record with a sequence
    /// number `<= seq` has been acknowledged by every replica, so segments
    /// ending at or below it may retire. Returns `true` when a previously
    /// pinned retire was released — the engine should then persist its
    /// manifest and call [`SegmentedWal::delete_retired`].
    pub fn set_retention_floor(&self, seq: SeqNo) -> bool {
        let mut inner = self.inner.lock();
        inner.retention_floor = Some(seq);
        let pending = std::mem::take(&mut inner.pending_retire);
        let mut released = false;
        for id in pending {
            let eligible = inner
                .sealed
                .iter()
                .find(|s| s.meta.id == id)
                .map(|s| s.last_seq <= seq);
            match eligible {
                Some(true) => {
                    inner.sealed.retain(|s| s.meta.id != id);
                    inner.retired.push(id);
                    released = true;
                }
                Some(false) => inner.pending_retire.push(id),
                // The segment vanished (e.g. `remove_all`): drop the request.
                None => {}
            }
        }
        released
    }

    /// The current replication retention floor, if one is set.
    pub fn retention_floor(&self) -> Option<SeqNo> {
        self.inner.lock().retention_floor
    }

    /// Moves the cleanly replayed numbered segments of `recovery` back into
    /// the live sealed set instead of deleting them: the recovered records
    /// stay durable in their original files, so the caller skips re-logging
    /// them (the ROADMAP "adopt old segments in place" path). Files with no
    /// records remain scheduled for deletion by
    /// [`SegmentedWal::finish_recovery`]. Returns the adopted segment ids,
    /// oldest first, which the engine pairs with the single frozen memtable
    /// it rebuilds from the recovered records.
    ///
    /// The caller must check [`WalRecovery::adoptable`] first; non-clean or
    /// legacy-file recoveries must take the re-log path.
    pub fn adopt_recovered(&self, recovery: &WalRecovery) -> Vec<u64> {
        let mut inner = self.inner.lock();
        let mut adopted = Vec::new();
        for seg in &recovery.segments {
            let Some(id) = seg.id else { continue };
            if seg.records.is_empty() || !seg.clean {
                continue;
            }
            if !inner.replayed_files.contains(&seg.file_name) {
                continue;
            }
            inner.replayed_files.retain(|f| *f != seg.file_name);
            let min_seq = seg.records.first().map(|r| r.start_seq).unwrap_or(0);
            let last_seq = seg.records.iter().map(|r| r.end_seq()).max().unwrap_or(0);
            inner.sealed.push(SealedSegment {
                meta: WalSegmentMeta { id, min_seq },
                bytes: seg.bytes,
                last_seq,
            });
            adopted.push(id);
        }
        inner.sealed.sort_by_key(|s| s.meta.id);
        adopted
    }

    /// Installs a shipped segment image as a new sealed segment of this log
    /// (replica catch-up): validates that the image decodes cleanly end to
    /// end, writes it under the next local segment id, syncs it, and adds it
    /// to the live sealed set. Returns the local id and the decoded records
    /// for the caller to replay into a frozen memtable — catch-up cost is
    /// one file write per shipped segment, not one append per record.
    pub fn adopt_segment_bytes(&self, bytes: &[u8]) -> Result<(u64, Vec<WalRecord>)> {
        let (records, clean, intact) = decode_records(bytes)?;
        if !clean || intact != bytes.len() as u64 || records.is_empty() {
            return Err(Error::Corruption(
                "shipped WAL segment image is torn, corrupt or empty".into(),
            ));
        }
        let min_seq = records.first().map(|r| r.start_seq).unwrap_or(0);
        let last_seq = records.iter().map(|r| r.end_seq()).max().unwrap_or(0);
        let mut inner = self.inner.lock();
        self.ensure_writable(&mut inner)?;
        let id = inner.next_id;
        inner.next_id += 1;
        let meta = WalSegmentMeta { id, min_seq };
        let mut file = self.storage.create(&meta.file_name())?;
        file.append(bytes)?;
        file.sync()?;
        inner.sealed.push(SealedSegment {
            meta,
            bytes: bytes.len() as u64,
            last_seq,
        });
        Ok((id, records))
    }

    /// Byte images of the live sealed segments that may contain records with
    /// sequence numbers above `from_seq`, oldest first — what a leader ships
    /// to a replica that is catching up from `from_seq`. Sealed files are
    /// immutable, so the reads run without the log lock held; a segment
    /// retired and deleted concurrently is skipped (the floor protocol
    /// guarantees a needed segment is never deleted).
    pub fn sealed_segments_from(&self, from_seq: SeqNo) -> Result<Vec<ShippedSegment>> {
        let picks: Vec<(WalSegmentMeta, SeqNo)> = {
            let inner = self.inner.lock();
            inner
                .sealed
                .iter()
                .filter(|s| s.last_seq > from_seq)
                .map(|s| (s.meta, s.last_seq))
                .collect()
        };
        let mut out = Vec::new();
        for (meta, last_seq) in picks {
            match self.storage.open(&meta.file_name()) {
                Ok(file) => out.push(ShippedSegment {
                    id: meta.id,
                    min_seq: meta.min_seq,
                    last_seq,
                    bytes: file.read_all()?,
                }),
                Err(Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Intact records currently in the active segment whose batches extend
    /// past `from_seq` — the live tail a catching-up replica still needs.
    /// The active file may be appended to concurrently; a torn final record
    /// is simply not returned yet (it will ship once complete).
    pub fn tail_records_from(&self, from_seq: SeqNo) -> Result<Vec<WalRecord>> {
        let name = { self.inner.lock().active.meta.file_name() };
        let data = match self.storage.open(&name) {
            Ok(file) => file.read_all()?,
            Err(Error::NotFound(_)) => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let (records, _clean, _bytes) = decode_records(&data)?;
        Ok(records
            .into_iter()
            .filter(|r| r.end_seq() > from_seq)
            .collect())
    }

    /// Deletes the files of every retired segment. Idempotent: missing files
    /// are ignored.
    pub fn delete_retired(&self) -> Result<()> {
        let retired = {
            let mut inner = self.inner.lock();
            std::mem::take(&mut inner.retired)
        };
        for id in retired {
            match self.storage.delete(&segment_file_name(id)) {
                Ok(()) | Err(Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
            self.stats.segments_deleted.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Syncs the re-logged recovery records and deletes the files replayed by
    /// [`SegmentedWal::open`]. Must be called once after recovery re-logging.
    pub fn finish_recovery(&self) -> Result<()> {
        let files = {
            let mut inner = self.inner.lock();
            let target = inner.appended_epoch;
            if target > 0 {
                self.sync_locked(&mut inner, target)?;
            }
            std::mem::take(&mut inner.replayed_files)
        };
        for name in files {
            match self.storage.delete(&name) {
                Ok(()) | Err(Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The live segments (sealed + active), oldest first, as recorded in the
    /// manifest.
    pub fn live_segments(&self) -> Vec<WalSegmentMeta> {
        let inner = self.inner.lock();
        let mut out: Vec<WalSegmentMeta> = inner.sealed.iter().map(|s| s.meta).collect();
        out.push(inner.active.meta);
        out
    }

    /// Deletes every WAL file this manager knows about plus any stray
    /// segment file on disk. Idempotent. Intended for tests that simulate a
    /// crash after a clean flush; the engine should be dropped afterwards.
    pub fn remove_all(&self) -> Result<()> {
        let mut names: Vec<String> = {
            let mut inner = self.inner.lock();
            let mut names: Vec<String> = inner.sealed.iter().map(|s| s.meta.file_name()).collect();
            names.push(inner.active.meta.file_name());
            names.extend(
                std::mem::take(&mut inner.retired)
                    .into_iter()
                    .map(segment_file_name),
            );
            names.extend(std::mem::take(&mut inner.replayed_files));
            inner.sealed.clear();
            names
        };
        names.extend(
            self.storage
                .list()?
                .into_iter()
                .filter(|n| parse_segment_file_name(n).is_some()),
        );
        names.sort();
        names.dedup();
        for name in names {
            match self.storage.delete(&name) {
                Ok(()) | Err(Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// True while an append/fsync failure is unrecovered. The log self-heals:
    /// the next append, sync or rotation re-attempts rotation recovery, so
    /// this flag stays set only while the underlying fault persists.
    pub fn is_damaged(&self) -> bool {
        self.inner.lock().damaged
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> WalStatsSnapshot {
        let (segments_live, live_bytes) = {
            let inner = self.inner.lock();
            (
                inner.sealed.len() as u64 + 1,
                inner.sealed.iter().map(|s| s.bytes).sum::<u64>() + inner.active.file.len(),
            )
        };
        WalStatsSnapshot {
            records_appended: self.stats.records_appended.load(Ordering::Relaxed),
            syncs: self.stats.syncs.load(Ordering::Relaxed),
            syncs_off_lock: self.stats.syncs_off_lock.load(Ordering::Relaxed),
            coalesced_acks: self.stats.coalesced_acks.load(Ordering::Relaxed),
            rotations: self.stats.rotations.load(Ordering::Relaxed),
            segments_deleted: self.stats.segments_deleted.load(Ordering::Relaxed),
            records_replayed: self.stats.records_replayed.load(Ordering::Relaxed),
            segments_replayed: self.stats.segments_replayed.load(Ordering::Relaxed),
            orphan_segments_deleted: self.stats.orphan_segments_deleted.load(Ordering::Relaxed),
            recoveries: self.stats.recoveries.load(Ordering::Relaxed),
            records_restaged: self.stats.records_restaged.load(Ordering::Relaxed),
            segments_live,
            live_bytes,
        }
    }
}

impl Drop for SegmentedWal {
    /// Best-effort final sync. Under [`WalSyncPolicy::Interval`] the last
    /// window's acknowledged writes may not have been fsynced yet and no
    /// later writer will arrive to cover them; a clean drop must not lose
    /// them. (A hard power cut during a long write quiesce can still lose up
    /// to one window — the interval policy's documented trade-off.)
    fn drop(&mut self) {
        let inner = self.inner.get_mut();
        if !inner.damaged {
            if let Err(_e) = inner.active.file.sync() {
                // Nothing left to retry against — the log is going away — but
                // a swallowed final-sync error must still be visible to
                // operators.
                if let Some(telemetry) = self.telemetry.get() {
                    telemetry.error_event(WalErrorStage::Drop);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FaultStorage, MemStorage};

    fn batch(keys: &[u64]) -> WriteBatch {
        let mut b = WriteBatch::new();
        for &k in keys {
            b.put(k, k.to_le_bytes().to_vec());
        }
        b
    }

    fn open_fresh(storage: &StorageRef, policy: WalSyncPolicy) -> SegmentedWal {
        let (wal, recovery) = SegmentedWal::open(storage, policy, &[], &[], 1).unwrap();
        assert!(recovery.is_empty());
        wal
    }

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(segment_file_name(17), "wal-00000017.log");
        assert_eq!(parse_segment_file_name("wal-00000017.log"), Some(17));
        assert_eq!(
            parse_segment_file_name("wal-123456789.log"),
            Some(123456789)
        );
        assert_eq!(parse_segment_file_name("wal-current.log"), None);
        assert_eq!(parse_segment_file_name("00000001.sst"), None);
        assert_eq!(parse_segment_file_name("wal-.log"), None);
    }

    #[test]
    fn append_rotate_replay_across_segments() {
        let storage: StorageRef = MemStorage::new_ref();
        {
            let wal = open_fresh(&storage, WalSyncPolicy::Never);
            wal.append(1, &batch(&[1, 2])).unwrap();
            let sealed = wal.rotate(3).unwrap();
            assert_eq!(sealed, 1);
            wal.append(3, &batch(&[3])).unwrap();
            let sealed = wal.rotate(4).unwrap();
            assert_eq!(sealed, 2);
            wal.append(4, &batch(&[4, 5])).unwrap();
            assert_eq!(wal.live_segments().len(), 3);
        }
        // Reopen with the live set the manifest would carry.
        let live: Vec<WalSegmentMeta> = vec![
            WalSegmentMeta { id: 1, min_seq: 1 },
            WalSegmentMeta { id: 2, min_seq: 3 },
            WalSegmentMeta { id: 3, min_seq: 4 },
        ];
        let (wal, recovery) =
            SegmentedWal::open(&storage, WalSyncPolicy::Never, &live, &[], 6).unwrap();
        assert!(recovery.clean);
        let seqs: Vec<SeqNo> = recovery.records().map(|r| r.start_seq).collect();
        assert_eq!(seqs, vec![1, 3, 4], "records must replay in segment order");
        let stats = wal.stats();
        assert_eq!(stats.segments_replayed, 3);
        assert_eq!(stats.records_replayed, 3);
    }

    #[test]
    fn orphan_segments_are_deleted_not_replayed() {
        let storage: StorageRef = MemStorage::new_ref();
        {
            let wal = open_fresh(&storage, WalSyncPolicy::Never);
            wal.append(1, &batch(&[1])).unwrap();
            wal.rotate(2).unwrap(); // seals segment 1
            wal.append(2, &batch(&[2])).unwrap(); // active segment 2
        }
        // Manifest says only segment 2 is live: segment 1 was flushed but its
        // deletion raced a crash.
        let live = vec![WalSegmentMeta { id: 2, min_seq: 2 }];
        let (wal, recovery) =
            SegmentedWal::open(&storage, WalSyncPolicy::Never, &live, &[], 3).unwrap();
        assert_eq!(recovery.num_records(), 1);
        assert_eq!(recovery.records().next().unwrap().start_seq, 2);
        let stats = wal.stats();
        assert_eq!(stats.orphan_segments_deleted, 1);
        assert!(
            !storage.exists(&segment_file_name(1)),
            "orphan must be deleted"
        );
    }

    #[test]
    fn group_commit_coalesces_acks() {
        let storage: StorageRef = MemStorage::new_ref();
        let wal = open_fresh(&storage, WalSyncPolicy::Always);
        let t1 = wal.append(1, &batch(&[1])).unwrap();
        let t2 = wal.append(2, &batch(&[2])).unwrap();
        let t3 = wal.append(3, &batch(&[3])).unwrap();
        // The first durability wait syncs through the newest record...
        wal.ensure_durable(&t3).unwrap();
        // ...so the earlier writers are acknowledged without an fsync.
        wal.ensure_durable(&t1).unwrap();
        wal.ensure_durable(&t2).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.syncs, 1, "one fsync covers the whole window");
        assert_eq!(stats.coalesced_acks, 2);
        assert_eq!(stats.records_appended, 3);
    }

    #[test]
    fn interval_policy_bounds_sync_rate() {
        let storage: StorageRef = MemStorage::new_ref();
        let wal = open_fresh(&storage, WalSyncPolicy::Interval(Duration::from_secs(3600)));
        for seq in 1..=50u64 {
            let t = wal.append(seq, &batch(&[seq])).unwrap();
            wal.ensure_durable(&t).unwrap();
        }
        let stats = wal.stats();
        assert!(
            stats.syncs <= 1,
            "within one window at most one sync may be issued, got {}",
            stats.syncs
        );
        assert_eq!(stats.coalesced_acks + stats.syncs, 50);
    }

    #[test]
    fn rotation_covers_pending_durability_waits() {
        let storage: StorageRef = MemStorage::new_ref();
        let wal = open_fresh(&storage, WalSyncPolicy::Always);
        let t = wal.append(1, &batch(&[1])).unwrap();
        wal.rotate(2).unwrap();
        wal.ensure_durable(&t).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.syncs, 1, "only the rotation's seal sync runs");
        assert_eq!(stats.coalesced_acks, 1);
    }

    #[test]
    fn retire_then_delete_is_idempotent() {
        let storage: StorageRef = MemStorage::new_ref();
        let wal = open_fresh(&storage, WalSyncPolicy::Never);
        wal.append(1, &batch(&[1])).unwrap();
        let sealed = wal.rotate(2).unwrap();
        assert!(storage.exists(&segment_file_name(sealed)));
        wal.retire(sealed);
        assert_eq!(
            wal.live_segments().len(),
            1,
            "retired segment leaves the live set"
        );
        // The file survives until delete_retired (manifest-first ordering).
        assert!(storage.exists(&segment_file_name(sealed)));
        wal.delete_retired().unwrap();
        assert!(!storage.exists(&segment_file_name(sealed)));
        // Releasing again is a no-op.
        wal.retire(sealed);
        wal.delete_retired().unwrap();
        assert_eq!(wal.stats().segments_deleted, 1);
    }

    #[test]
    fn torn_middle_segment_halts_replay_of_later_segments() {
        let storage: StorageRef = MemStorage::new_ref();
        {
            let wal = open_fresh(&storage, WalSyncPolicy::Never);
            wal.append(1, &batch(&[1])).unwrap();
            wal.rotate(2).unwrap();
            wal.append(2, &batch(&[2])).unwrap();
            wal.rotate(3).unwrap();
            wal.append(3, &batch(&[3])).unwrap();
        }
        // Corrupt segment 2 (truncate its record mid-payload).
        let name = segment_file_name(2);
        let full = storage.open(&name).unwrap().read_all().unwrap();
        let mut f = storage.create(&name).unwrap();
        f.append(&full[..full.len() - 2]).unwrap();
        let live = vec![
            WalSegmentMeta { id: 1, min_seq: 1 },
            WalSegmentMeta { id: 2, min_seq: 2 },
            WalSegmentMeta { id: 3, min_seq: 3 },
        ];
        let (_, recovery) =
            SegmentedWal::open(&storage, WalSyncPolicy::Never, &live, &[], 4).unwrap();
        assert!(!recovery.clean);
        assert!(!recovery.adoptable(), "a torn tail must not be adopted");
        let seqs: Vec<SeqNo> = recovery.records().map(|r| r.start_seq).collect();
        assert_eq!(seqs, vec![1], "replay stops at the damaged segment");
    }

    #[test]
    fn legacy_wal_is_migrated() {
        let storage: StorageRef = MemStorage::new_ref();
        {
            let mut legacy = storage.create("wal-current.log").unwrap();
            legacy.append(&encode_record(1, &batch(&[1, 2]))).unwrap();
        }
        let (wal, recovery) =
            SegmentedWal::open(&storage, WalSyncPolicy::Never, &[], &["wal-current.log"], 3)
                .unwrap();
        assert_eq!(recovery.num_records(), 1);
        assert!(
            !recovery.adoptable(),
            "legacy single-file WALs are never adoptable"
        );
        // Re-log as the engine would, then finish.
        for r in recovery.records() {
            wal.append(r.start_seq, &r.batch).unwrap();
        }
        wal.finish_recovery().unwrap();
        assert!(
            !storage.exists("wal-current.log"),
            "legacy file migrated away"
        );
    }

    #[test]
    fn remove_all_is_idempotent() {
        let storage: StorageRef = MemStorage::new_ref();
        let wal = open_fresh(&storage, WalSyncPolicy::Never);
        wal.append(1, &batch(&[1])).unwrap();
        wal.rotate(2).unwrap();
        wal.append(2, &batch(&[2])).unwrap();
        wal.remove_all().unwrap();
        wal.remove_all().unwrap();
        assert!(storage
            .list()
            .unwrap()
            .iter()
            .all(|n| parse_segment_file_name(n).is_none()));
    }

    #[test]
    fn failed_append_recovers_in_place_once_fault_clears() {
        use crate::storage::{FaultConfig, FaultInjectingStorage};
        let base = MemStorage::new_ref();
        let faulty = std::sync::Arc::new(FaultInjectingStorage::new(StorageRef::clone(&base)));
        let storage: StorageRef = faulty.clone();
        let (wal, _) = SegmentedWal::open(&storage, WalSyncPolicy::Never, &[], &[], 1).unwrap();
        wal.append(1, &batch(&[1])).unwrap();
        faulty.set_config(FaultConfig {
            fail_append: true,
            ..Default::default()
        });
        // While the fault persists, appends error (recovery re-staging hits
        // the same fault) and the log reports damage.
        assert!(wal.append(2, &batch(&[2])).is_err());
        assert!(wal.is_damaged());
        assert!(wal.append(3, &batch(&[3])).is_err());
        // Fault cleared: the next append rotation-recovers in place — no
        // reopen — and the acked prefix survives.
        faulty.set_config(FaultConfig::default());
        wal.append(2, &batch(&[2])).unwrap();
        assert!(!wal.is_damaged());
        let stats = wal.stats();
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.records_restaged, 1, "acked record 1 re-staged");
        let seqs: Vec<SeqNo> = wal
            .tail_records_from(0)
            .unwrap()
            .iter()
            .map(|r| r.start_seq)
            .collect();
        assert_eq!(seqs, vec![1, 2], "acked writes survive, rejected one gone");
        // Rotation works again too.
        wal.rotate(3).unwrap();
        drop(wal);
        // A reopen after recovery replays the same clean state.
        let live: Vec<WalSegmentMeta> = vec![
            WalSegmentMeta { id: 1, min_seq: 1 },
            WalSegmentMeta { id: 2, min_seq: 1 },
            WalSegmentMeta { id: 3, min_seq: 3 },
        ];
        let (_wal, recovery) =
            SegmentedWal::open(&storage, WalSyncPolicy::Never, &live, &[], 4).unwrap();
        assert_eq!(recovery.num_records(), 2);
    }

    #[test]
    fn torn_append_recovers_transparently() {
        let (storage, faults) = FaultStorage::wrap(MemStorage::new_ref(), 42);
        let (wal, _) = SegmentedWal::open(&storage, WalSyncPolicy::Never, &[], &[], 1).unwrap();
        wal.append(1, &batch(&[1])).unwrap();
        faults.tear_appends(1);
        // The torn append is retried into a fresh segment after in-place
        // recovery: the caller sees success, not an error.
        wal.append(2, &batch(&[2])).unwrap();
        assert!(!wal.is_damaged());
        assert_eq!(wal.stats().recoveries, 1);
        let seqs: Vec<SeqNo> = wal
            .tail_records_from(0)
            .unwrap()
            .iter()
            .map(|r| r.start_seq)
            .collect();
        assert_eq!(seqs, vec![1, 2]);
        assert_eq!(faults.injected_faults(), 1);
    }

    #[test]
    fn write_path_syncs_run_off_the_append_lock() {
        let storage: StorageRef = MemStorage::new_ref();
        let wal = open_fresh(&storage, WalSyncPolicy::Always);
        let t = wal.append(1, &batch(&[1])).unwrap();
        wal.ensure_durable(&t).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.syncs, 1);
        assert_eq!(
            stats.syncs_off_lock, 1,
            "group-commit fsync must use the shared-handle path"
        );
        // Rotation seals under the lock; its sync is not an off-lock one.
        wal.rotate(2).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.syncs, 2);
        assert_eq!(stats.syncs_off_lock, 1);
    }

    #[test]
    fn transient_fsync_error_recovers_without_reopen() {
        let (storage, faults) = FaultStorage::wrap(MemStorage::new_ref(), 7);
        let (wal, _) = SegmentedWal::open(&storage, WalSyncPolicy::Always, &[], &[], 1).unwrap();
        let t = wal.append(1, &batch(&[1])).unwrap();
        faults.fail_syncs(1);
        // The failed group-commit fsync triggers in-place recovery; the
        // re-staged fresh segment is fsynced, so the ticket is durable and
        // the caller gets an ack — same WAL object, no reopen.
        wal.ensure_durable(&t).unwrap();
        assert!(!wal.is_damaged());
        assert_eq!(wal.stats().recoveries, 1);
        // Writes continue in the fresh segment.
        let t2 = wal.append(2, &batch(&[2])).unwrap();
        wal.ensure_durable(&t2).unwrap();
        let seqs: Vec<SeqNo> = wal
            .tail_records_from(0)
            .unwrap()
            .iter()
            .map(|r| r.start_seq)
            .collect();
        assert_eq!(seqs, vec![1, 2], "zero acked-write loss across recovery");
    }

    #[test]
    fn persistent_fsync_error_keeps_wal_damaged_until_cleared() {
        let (storage, faults) = FaultStorage::wrap(MemStorage::new_ref(), 7);
        let (wal, _) = SegmentedWal::open(&storage, WalSyncPolicy::Always, &[], &[], 1).unwrap();
        let t = wal.append(1, &batch(&[1])).unwrap();
        faults.set_sync_persistent(true);
        // Recovery itself needs a working fsync, so a persistent fault keeps
        // the log damaged and the durability error escalates to the caller.
        assert!(wal.ensure_durable(&t).is_err());
        assert!(wal.is_damaged());
        assert!(wal.append(2, &batch(&[2])).is_err());
        // The moment the device heals, the next write self-recovers.
        faults.clear();
        let t2 = wal.append(2, &batch(&[2])).unwrap();
        wal.ensure_durable(&t2).unwrap();
        assert!(!wal.is_damaged());
        let seqs: Vec<SeqNo> = wal
            .tail_records_from(0)
            .unwrap()
            .iter()
            .map(|r| r.start_seq)
            .collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn adopt_recovered_keeps_segments_live() {
        let storage: StorageRef = MemStorage::new_ref();
        {
            let wal = open_fresh(&storage, WalSyncPolicy::Never);
            wal.append(1, &batch(&[1, 2])).unwrap();
            wal.rotate(3).unwrap();
            wal.append(3, &batch(&[3])).unwrap();
        }
        let live = vec![
            WalSegmentMeta { id: 1, min_seq: 1 },
            WalSegmentMeta { id: 2, min_seq: 3 },
        ];
        let (wal, recovery) =
            SegmentedWal::open(&storage, WalSyncPolicy::Never, &live, &[], 4).unwrap();
        assert!(recovery.adoptable());
        assert!(recovery.total_bytes() > 0);
        let adopted = wal.adopt_recovered(&recovery);
        assert_eq!(adopted, vec![1, 2]);
        // The adopted segments are live again (plus the fresh active one)...
        let segs = wal.live_segments();
        assert_eq!(segs.iter().map(|s| s.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        // ...and finish_recovery must NOT delete their files.
        wal.finish_recovery().unwrap();
        assert!(storage.exists(&segment_file_name(1)));
        assert!(storage.exists(&segment_file_name(2)));
        // Retiring an adopted segment works like any sealed one.
        wal.retire(1);
        wal.delete_retired().unwrap();
        assert!(!storage.exists(&segment_file_name(1)));
    }

    #[test]
    fn retention_floor_pins_needed_segments() {
        let storage: StorageRef = MemStorage::new_ref();
        let wal = open_fresh(&storage, WalSyncPolicy::Never);
        wal.append(1, &batch(&[1, 2])).unwrap(); // seqs 1-2
        let seg1 = wal.rotate(3).unwrap();
        wal.append(3, &batch(&[3, 4])).unwrap(); // seqs 3-4
        let seg2 = wal.rotate(5).unwrap();
        // A replica has only acked through seq 2: segment 2 (seqs 3-4) must
        // survive a retire request, segment 1 (seqs 1-2) may go.
        wal.set_retention_floor(2);
        wal.retire(seg1);
        wal.retire(seg2);
        let live: Vec<u64> = wal.live_segments().iter().map(|s| s.id).collect();
        assert!(!live.contains(&seg1), "acked-past segment retires");
        assert!(live.contains(&seg2), "needed segment stays pinned");
        wal.delete_retired().unwrap();
        assert!(storage.exists(&segment_file_name(seg2)));
        // Once every replica acks past it, the pending retire releases.
        assert!(wal.set_retention_floor(4));
        let live: Vec<u64> = wal.live_segments().iter().map(|s| s.id).collect();
        assert!(!live.contains(&seg2));
        wal.delete_retired().unwrap();
        assert!(!storage.exists(&segment_file_name(seg2)));
    }

    #[test]
    fn shipped_segments_roundtrip_through_adoption() {
        let leader_storage: StorageRef = MemStorage::new_ref();
        let leader = open_fresh(&leader_storage, WalSyncPolicy::Never);
        leader.append(1, &batch(&[1, 2])).unwrap();
        leader.rotate(3).unwrap();
        leader.append(3, &batch(&[3])).unwrap();
        leader.rotate(4).unwrap();
        leader.append(4, &batch(&[4])).unwrap();

        // Ship everything above seq 0 (a fresh replica).
        let shipped = leader.sealed_segments_from(0).unwrap();
        assert_eq!(shipped.len(), 2);
        assert_eq!(shipped[0].min_seq, 1);
        assert_eq!(shipped[0].last_seq, 2);
        let tail = leader.tail_records_from(0).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].start_seq, 4);
        // A replica caught up through seq 2 needs only the second segment.
        assert_eq!(leader.sealed_segments_from(2).unwrap().len(), 1);
        assert!(leader.sealed_segments_from(4).unwrap().is_empty());

        // The replica adopts the images wholesale.
        let replica_storage: StorageRef = MemStorage::new_ref();
        let replica = open_fresh(&replica_storage, WalSyncPolicy::Never);
        let mut replayed = Vec::new();
        for seg in &shipped {
            let (_, records) = replica.adopt_segment_bytes(&seg.bytes).unwrap();
            replayed.extend(records);
        }
        let seqs: Vec<SeqNo> = replayed.iter().map(|r| r.start_seq).collect();
        assert_eq!(seqs, vec![1, 3]);
        assert_eq!(replica.live_segments().len(), 3); // active + 2 adopted

        // A torn image is rejected outright.
        let mut torn = shipped[0].bytes.clone();
        torn.truncate(torn.len() - 1);
        assert!(replica.adopt_segment_bytes(&torn).is_err());
    }

    #[test]
    fn stats_track_live_bytes() {
        let storage: StorageRef = MemStorage::new_ref();
        let wal = open_fresh(&storage, WalSyncPolicy::Never);
        wal.append(1, &batch(&[1, 2, 3])).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.segments_live, 1);
        assert!(stats.live_bytes > 0);
        wal.rotate(4).unwrap();
        assert_eq!(wal.stats().segments_live, 2);
    }
}
