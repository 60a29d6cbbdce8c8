//! Per-shard WAL-shipping replication with automatic failover.
//!
//! Each leader shard streams its write-ahead log to N in-process replicas:
//! sealed segment images during bootstrap/catch-up, live tail records as
//! group commits land. Replicas apply through the same write-ahead path as
//! recovery, so a replica *is* a warm standby engine readable at its applied
//! horizon. A health monitor tracks per-replica lag (exported as the
//! `laser_replica_lag_seqs` / `laser_replica_lag_bytes` gauges), heals gaps
//! with exponential backoff, declares unresponsive replicas lost, and
//! advances the leader's WAL retention floor so sealed segments outlive
//! every replica that still needs them.
//!
//! Promotion swaps one slot-table entry of the `SHARDS` manifest under a
//! two-phase `SHARDS.promote` intent ([`promotion`]) — the exact crash
//! matrix of the shard-split swap: a torn intent is ignored, a crash before
//! the manifest rename rolls back, a crash after it rolls forward.
//!
//! Shard splits and replication are mutually exclusive: a replicated
//! topology is frozen at its opening shard count (splitting would have to
//! re-partition every replica stream mid-flight).

pub mod health;
pub mod promotion;
pub mod protocol;
pub mod replica;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use lsm_storage::manifest::{read_manifest, write_manifest, VersionSnapshot, MANIFEST_NAME};
use lsm_storage::types::{SeqNo, UserKey, WriteBatch};
use lsm_storage::wal::encode_record;
use lsm_storage::{Error, Result};
use telemetry::{EventKind, Telemetry};

use crate::engine::ShardEngine;
use crate::storage::ShardStorageProvider;

pub use promotion::PromotionIntent;
pub use protocol::Frame;
pub use replica::{ReplicaHandle, ReplicaState};

/// First storage slot used for replicas. Leader slots (allocated by splits)
/// grow upward from 0 and never reach this in practice.
pub const REPLICA_SLOT_BASE: u64 = 1024;

/// Maximum replicas per shard (bounds the deterministic slot formula).
pub const MAX_REPLICAS_PER_SHARD: usize = 8;

/// The deterministic storage slot of replica `replica_index` of the leader
/// in `leader_slot`. Deterministic so a reopen finds its replicas without
/// any extra persisted state.
pub fn replica_slot(leader_slot: u64, replica_index: usize) -> u64 {
    REPLICA_SLOT_BASE + leader_slot * MAX_REPLICAS_PER_SHARD as u64 + replica_index as u64
}

/// When a replicated write is acknowledged to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// Acknowledge once the leader's WAL accepts the write (replicas apply
    /// asynchronously). Fastest; a leader loss can drop acked writes.
    LeaderOnly,
    /// Acknowledge once a majority of the replication group (leader plus
    /// replicas) holds the write. A leader loss never drops an acked write
    /// as long as a majority survives.
    Quorum,
}

/// Replication fault-injection points, exercised by the failover harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationFailpoint {
    /// Fail while shipping a sealed segment to a bootstrapping replica.
    MidSegmentShip,
    /// Ship a torn live-tail frame to the first replica, then fail before
    /// acknowledging the write.
    MidTailFrame,
    /// Crash mid-write of the promotion intent (a torn intent is left
    /// behind).
    MidPromotionIntent,
    /// Crash after the promotion committed but before the old leader's slot
    /// was cleaned up.
    PostPromotionPreCleanup,
}

/// Configuration of per-shard replication.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Replicas per shard (1..=[`MAX_REPLICAS_PER_SHARD`]).
    pub replication_factor: usize,
    /// When writes are acknowledged.
    pub ack_mode: AckMode,
    /// How long a quorum write waits for replica acknowledgements before
    /// failing with a storage fault.
    pub ack_timeout: Duration,
    /// Health-monitor tick interval (heartbeats, lag gauges, catch-up).
    pub heartbeat_interval: Duration,
    /// How long a lagging replica may make zero progress before the monitor
    /// declares it lost.
    pub lost_after: Duration,
    /// Route point reads to a replica when one is fresh enough (see
    /// [`ReplicationConfig::freshness_bound_seqs`]). Snapshot reads only use
    /// a replica that has applied past the snapshot.
    pub replica_reads: bool,
    /// Maximum sequence-number staleness a replica read may observe (only
    /// meaningful with `replica_reads`).
    pub freshness_bound_seqs: u64,
    /// Promote the best replica automatically when a leader write fails and
    /// the leader reports itself unhealthy.
    pub auto_failover: bool,
    /// Re-provision a replacement replica automatically when the live count
    /// of a group falls below `replication_factor` (a replica was declared
    /// lost, or promotion consumed one): the health monitor bootstraps a
    /// fresh replica from the current leader into an unused slot and rejoins
    /// it to the acknowledgement set.
    pub auto_reprovision: bool,
    /// Initial fault-injection point (tests only; also settable at runtime).
    pub failpoint: Option<ReplicationFailpoint>,
}

impl ReplicationConfig {
    /// A quorum-acknowledged group with `replication_factor` replicas and
    /// production-leaning timeouts.
    pub fn new(replication_factor: usize) -> ReplicationConfig {
        ReplicationConfig {
            replication_factor: replication_factor.clamp(1, MAX_REPLICAS_PER_SHARD),
            ack_mode: AckMode::Quorum,
            ack_timeout: Duration::from_secs(5),
            heartbeat_interval: Duration::from_millis(50),
            lost_after: Duration::from_secs(3),
            replica_reads: false,
            freshness_bound_seqs: 0,
            auto_failover: true,
            auto_reprovision: true,
            failpoint: None,
        }
    }

    /// Replica acknowledgements needed for a majority of the group (leader
    /// plus `replication_factor` replicas), counting the leader itself.
    pub fn quorum_acks(&self) -> usize {
        self.replication_factor.div_ceil(2)
    }
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig::new(2)
    }
}

/// Point-in-time view of one replica, for introspection and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaInfo {
    /// The replica's storage slot.
    pub slot: u64,
    /// Last sequence number the replica has applied.
    pub applied_seq: SeqNo,
    /// Replica lifecycle state.
    pub state: ReplicaState,
}

/// Point-in-time replication view of one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReplicationStatus {
    /// The leader's storage slot.
    pub leader_slot: u64,
    /// The leader's last assigned sequence number.
    pub leader_seq: SeqNo,
    /// One entry per replica.
    pub replicas: Vec<ReplicaInfo>,
}

/// The replication group of one shard: its current leader and the replicas
/// streaming from it. The leader link is swapped by promotion.
pub struct ReplicaSet<E: ShardEngine> {
    leader: RwLock<(Arc<E>, u64)>,
    replicas: RwLock<Vec<Arc<ReplicaHandle<E>>>>,
    /// Serializes leader writes with frame shipping so frames leave in
    /// sequence order.
    ship_lock: Mutex<()>,
    /// Highest sequence shipped to the replicas (observability only).
    shipped_through: AtomicU64,
}

impl<E: ShardEngine> ReplicaSet<E> {
    /// A group led by `leader` (in `leader_slot`) with `replicas`.
    pub fn new(leader: Arc<E>, leader_slot: u64, replicas: Vec<Arc<ReplicaHandle<E>>>) -> Self {
        ReplicaSet {
            leader: RwLock::new((leader, leader_slot)),
            replicas: RwLock::new(replicas),
            ship_lock: Mutex::new(()),
            shipped_through: AtomicU64::new(0),
        }
    }

    /// The current leader engine and its slot.
    pub fn leader(&self) -> (Arc<E>, u64) {
        let guard = self.leader.read();
        (Arc::clone(&guard.0), guard.1)
    }

    /// Snapshot of the current replica handles.
    pub fn replicas(&self) -> Vec<Arc<ReplicaHandle<E>>> {
        self.replicas.read().clone()
    }

    /// The replica in `slot`, if present.
    pub fn replica(&self, slot: u64) -> Option<Arc<ReplicaHandle<E>>> {
        self.replicas
            .read()
            .iter()
            .find(|r| r.slot == slot)
            .cloned()
    }

    /// Highest sequence shipped to the replicas so far.
    pub fn shipped_through(&self) -> SeqNo {
        self.shipped_through.load(Ordering::Acquire)
    }

    /// Swaps the leader link and drops the promoted replica from the group
    /// (promotion). Returns the removed handle.
    pub fn promote(&self, slot: u64) -> Option<Arc<ReplicaHandle<E>>> {
        let mut replicas = self.replicas.write();
        let pos = replicas.iter().position(|r| r.slot == slot)?;
        let promoted = replicas.remove(pos);
        *self.leader.write() = (Arc::clone(&promoted.engine), promoted.slot);
        Some(promoted)
    }

    /// Adds a freshly provisioned replica to the group: it joins the
    /// acknowledgement set immediately (quorum waits see it on the next
    /// write) and the retention-floor accounting on the next monitor tick.
    pub fn add_replica(&self, replica: Arc<ReplicaHandle<E>>) {
        self.replicas.write().push(replica);
    }

    /// Removes and returns the replica in `slot` (a lost one being replaced
    /// by a re-provisioned successor). The caller stops the handle.
    pub fn remove_replica(&self, slot: u64) -> Option<Arc<ReplicaHandle<E>>> {
        let mut replicas = self.replicas.write();
        let pos = replicas.iter().position(|r| r.slot == slot)?;
        Some(replicas.remove(pos))
    }

    /// Point-in-time status of the group.
    pub fn status(&self) -> ShardReplicationStatus {
        let (leader, leader_slot) = self.leader();
        ShardReplicationStatus {
            leader_slot,
            leader_seq: leader.last_seq(),
            replicas: self
                .replicas()
                .iter()
                .map(|r| {
                    let (applied_seq, state) = r.shared.applied();
                    ReplicaInfo {
                        slot: r.slot,
                        applied_seq,
                        state,
                    }
                })
                .collect(),
        }
    }

    /// Applies `batch` on the leader and ships it to every replica, honoring
    /// the configured acknowledgement mode. Returns the leader's new
    /// sequence horizon.
    pub fn write_through(
        &self,
        batch: &WriteBatch,
        config: &ReplicationConfig,
        failpoint: Option<ReplicationFailpoint>,
    ) -> Result<SeqNo> {
        let _ship = self.ship_lock.lock();
        let (leader, leader_slot) = self.leader();
        let prev = leader.last_seq();
        leader.write(batch)?;
        let end = leader.last_seq();
        if end == prev {
            return Ok(end);
        }
        let frame = Frame::TailRecord {
            shard_slot: leader_slot,
            record: encode_record(prev + 1, batch),
        }
        .encode();
        let replicas = self.replicas();
        if let Some(ReplicationFailpoint::MidTailFrame) = failpoint {
            // Simulate a crash mid-ship: the first replica receives a torn
            // frame (dropped by its checksum), nobody is acknowledged.
            if let Some(first) = replicas.first() {
                first.send(frame[..frame.len() / 2].to_vec());
            }
            return Err(Error::StorageFault(
                "injected failpoint: leader lost mid tail frame".to_string(),
            ));
        }
        for replica in &replicas {
            replica.send(frame.clone());
        }
        self.shipped_through.store(end, Ordering::Release);
        match config.ack_mode {
            AckMode::LeaderOnly => Ok(end),
            AckMode::Quorum => {
                let needed = config.quorum_acks();
                let deadline = Instant::now() + config.ack_timeout;
                let mut acked = 0usize;
                for replica in &replicas {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if replica.shared.wait_applied(end, remaining) {
                        acked += 1;
                        if acked >= needed {
                            return Ok(end);
                        }
                    }
                }
                Err(Error::StorageFault(format!(
                    "replication quorum timeout: {acked}/{needed} replica acks for seq {end}"
                )))
            }
        }
    }
}

/// Everything the health monitor needs to rebuild a lost replica: the
/// storage provider (slot allocation and checkpoint cloning), the engine
/// options replicas open with, each shard's routed key range (frozen — shard
/// splits are disabled under replication) and a submission-side view of the
/// shared maintenance pool for the replacement engine.
pub struct ReprovisionContext<E: ShardEngine> {
    /// The provider the topology was opened on.
    pub provider: Arc<dyn ShardStorageProvider>,
    /// Engine options every replica opens with.
    pub options: E::Options,
    /// Routed `[lo, hi]` key range per shard index.
    pub shard_ranges: Vec<(UserKey, UserKey)>,
    /// Shared maintenance pool client, when background maintenance is on.
    pub scheduler: Option<lsm_storage::SchedulerClient>,
}

/// Everything the replication runtime owns, shared with the health-monitor
/// thread. Lives on the sharded facade as `Option<Arc<ReplicationState>>`.
pub struct ReplicationState<E: ShardEngine> {
    /// The active configuration.
    pub config: ReplicationConfig,
    /// One replica set per shard, positionally parallel to the router.
    pub sets: RwLock<Vec<Arc<ReplicaSet<E>>>>,
    /// The active fault-injection point, if any.
    pub failpoint: Mutex<Option<ReplicationFailpoint>>,
    /// Set to stop the health monitor.
    pub shutdown: AtomicBool,
    /// The health-monitor thread handle.
    pub monitor: Mutex<Option<JoinHandle<()>>>,
    /// Telemetry hub, once attached.
    pub telemetry: OnceLock<Arc<Telemetry>>,
    /// Context for automatic replica re-provisioning, set at open. Absent in
    /// unit harnesses that drive `health::monitor_tick` without a
    /// provider; re-provisioning is then skipped.
    pub reprovision: OnceLock<ReprovisionContext<E>>,
    /// Replicas re-provisioned since open (observability and tests).
    pub reprovisions: AtomicU64,
}

impl<E: ShardEngine> ReplicationState<E> {
    /// Fresh state with no sets yet (populated during open).
    pub fn new(config: ReplicationConfig) -> ReplicationState<E> {
        let failpoint = config.failpoint;
        ReplicationState {
            config,
            sets: RwLock::new(Vec::new()),
            failpoint: Mutex::new(failpoint),
            shutdown: AtomicBool::new(false),
            monitor: Mutex::new(None),
            telemetry: OnceLock::new(),
            reprovision: OnceLock::new(),
            reprovisions: AtomicU64::new(0),
        }
    }

    /// The current failpoint (tests).
    pub fn failpoint(&self) -> Option<ReplicationFailpoint> {
        *self.failpoint.lock()
    }

    /// The replica set of the shard at `index`.
    pub fn set(&self, index: usize) -> Option<Arc<ReplicaSet<E>>> {
        self.sets.read().get(index).cloned()
    }

    /// Stops the monitor thread and every replica apply thread.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.monitor.lock().take() {
            let _ = handle.join();
        }
        for set in self.sets.read().iter() {
            for replica in set.replicas() {
                replica.stop();
            }
        }
    }
}

/// Builds (or re-attaches) one replica of `leader`: clones a checkpoint of
/// the leader's SSTs into the replica's slot on first boot (zero-copy
/// links), opens the replica engine, catches it up from the leader's
/// retained WAL — sealed segments adopted in place, live tail applied per
/// record — and starts its apply thread.
///
/// A replica too stale for the leader's retained WAL is re-seeded from a
/// fresh checkpoint. Transient races with leader flushes retry.
pub fn bootstrap_replica<E: ShardEngine>(
    provider: &Arc<dyn ShardStorageProvider>,
    leader: &Arc<E>,
    leader_slot: u64,
    slot: u64,
    options: &E::Options,
    key_bound: (UserKey, UserKey),
    failpoint: Option<ReplicationFailpoint>,
) -> Result<Arc<ReplicaHandle<E>>> {
    let mut last_err = None;
    for _attempt in 0..3 {
        let storage = provider.shard(slot as usize)?;
        if !storage.exists(MANIFEST_NAME) {
            if let Err(e) = clone_checkpoint(provider, leader_slot, slot) {
                // The leader compacted mid-clone; retry from scratch.
                let _ = provider.clear_shard(slot as usize);
                last_err = Some(e);
                continue;
            }
        }
        let engine = Arc::new(E::open_shard(
            provider.shard(slot as usize)?,
            options,
            None,
        )?);
        engine.set_key_bound(key_bound.0, key_bound.1);
        match catch_up_direct(leader.as_ref(), engine.as_ref(), failpoint) {
            Ok(applied) => return Ok(Arc::new(ReplicaHandle::start(engine, slot, applied))),
            Err(Error::InvalidArgument(msg)) if msg.contains("replication gap") => {
                // Too stale for the leader's retained WAL: re-seed from a
                // fresh checkpoint.
                engine.close()?;
                drop(engine);
                provider.clear_shard(slot as usize)?;
                last_err = Some(Error::invalid(msg));
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        Error::StorageFault(format!(
            "replica bootstrap for slot {slot} did not converge"
        ))
    }))
}

/// Links the leader's current SST set into `slot` and writes a replica
/// manifest describing exactly those files (no WAL segments — the WAL
/// arrives by shipping). The replica's sequence horizon is what the SSTs
/// actually contain, so WAL catch-up overlaps rather than gaps.
fn clone_checkpoint(
    provider: &Arc<dyn ShardStorageProvider>,
    leader_slot: u64,
    slot: u64,
) -> Result<()> {
    let leader_storage = provider.shard(leader_slot as usize)?;
    let leader_manifest = read_manifest(&leader_storage)?;
    for file in &leader_manifest.files {
        provider.link_file(leader_slot as usize, slot as usize, &file.file_name())?;
    }
    let last_seq = leader_manifest
        .files
        .iter()
        .map(|f| f.max_seq)
        .max()
        .unwrap_or(0);
    let snapshot = VersionSnapshot {
        next_file_number: leader_manifest.next_file_number,
        last_seq,
        files: leader_manifest.files.clone(),
        wal_segments: Vec::new(),
    };
    write_manifest(&provider.shard(slot as usize)?, &snapshot)
}

/// Synchronously catches `replica` up from `leader`'s retained WAL: sealed
/// segments are adopted in place (O(1) per segment; partial overlaps fall
/// back to per-record application), the live tail is applied per record.
/// Returns the replica's new applied horizon.
fn catch_up_direct<E: ShardEngine>(
    leader: &E,
    replica: &E,
    failpoint: Option<ReplicationFailpoint>,
) -> Result<SeqNo> {
    // `shard_wal_catchup` takes the last *applied* sequence and returns
    // everything extending past it.
    let from = replica.last_seq();
    let (segments, tail) = leader.wal_catchup(from)?;
    // In-place adoption freezes a whole segment as an immutable memtable, so
    // it is only safe while nothing older sits in the replica's *mutable*
    // memtable (frozen memtables flush in queue order; the mutable always
    // flushes last and must therefore hold the newest sequences).
    let mut adopt_ok = replica.buffered_bytes() == 0;
    for segment in segments {
        if failpoint == Some(ReplicationFailpoint::MidSegmentShip) {
            return Err(Error::StorageFault(
                "injected failpoint: leader lost mid segment ship".to_string(),
            ));
        }
        if adopt_ok {
            match replica.adopt_wal_segment(&segment.bytes) {
                Ok(_) => continue,
                Err(Error::InvalidArgument(msg)) if msg.contains("overlaps applied prefix") => {}
                Err(e) => return Err(e),
            }
        }
        apply_segment_records(replica, &segment.bytes)?;
        adopt_ok = false;
    }
    for record in &tail {
        replica.apply_replicated(record.start_seq, &record.batch)?;
    }
    Ok(replica.last_seq())
}

/// Decodes a segment image and applies its records one by one (the overlap
/// fallback of segment adoption).
fn apply_segment_records<E: ShardEngine>(replica: &E, bytes: &[u8]) -> Result<()> {
    let (records, clean, _) = lsm_storage::wal::decode_records(bytes)?;
    if !clean {
        return Err(Error::corruption("torn segment image during catch-up"));
    }
    for record in &records {
        replica.apply_replicated(record.start_seq, &record.batch)?;
    }
    Ok(())
}

/// Re-ships the leader's retained WAL to a lagging replica *through its
/// frame channel* (preserving the single-writer apply order): every record —
/// from sealed segments or the live tail — is framed as a tail record, since
/// a streaming replica's mutable memtable makes in-place segment adoption
/// unsafe. Used by the health monitor to heal gaps and by promotion to
/// re-target survivors.
pub fn reship_tail<E: ShardEngine>(
    set: &ReplicaSet<E>,
    replica: &ReplicaHandle<E>,
) -> Result<usize> {
    // Hold the ship lock so re-shipped frames cannot interleave with live
    // tail frames out of order.
    let _ship = set.ship_lock.lock();
    let (leader, leader_slot) = set.leader();
    let (applied, _) = replica.shared.applied();
    let (segments, tail) = leader.wal_catchup(applied)?;
    let mut shipped = 0usize;
    for segment in segments {
        let (records, clean, _) = lsm_storage::wal::decode_records(&segment.bytes)?;
        if !clean {
            return Err(Error::corruption("torn segment image during re-ship"));
        }
        for record in &records {
            if record.end_seq() <= applied {
                continue;
            }
            let frame = Frame::TailRecord {
                shard_slot: leader_slot,
                record: encode_record(record.start_seq, &record.batch),
            };
            replica.send(frame.encode());
            shipped += 1;
        }
    }
    for record in &tail {
        if record.end_seq() <= applied {
            continue;
        }
        let frame = Frame::TailRecord {
            shard_slot: leader_slot,
            record: encode_record(record.start_seq, &record.batch),
        };
        replica.send(frame.encode());
        shipped += 1;
    }
    if shipped > 0 {
        replica.shared.set_state(ReplicaState::CatchingUp);
    }
    Ok(shipped)
}

/// Applies everything `source`'s retained WAL holds beyond `target`'s
/// horizon directly into `target`, strictly record by record (never by
/// segment adoption — the target's mutable memtable may hold older data).
/// Used at open to pull quorum-acknowledged writes that survived only on a
/// replica back into the leader before it serves traffic.
pub fn reconcile_from<E: ShardEngine>(source: &E, target: &E) -> Result<SeqNo> {
    let from = target.last_seq();
    let (segments, tail) = source.wal_catchup(from)?;
    for segment in segments {
        apply_segment_records(target, &segment.bytes)?;
    }
    for record in &tail {
        target.apply_replicated(record.start_seq, &record.batch)?;
    }
    Ok(target.last_seq())
}

/// Records a replication event on the hub, labeled by leader slot.
pub(crate) fn record_replication_event(
    telemetry: Option<&Arc<Telemetry>>,
    kind: EventKind,
    leader_slot: u64,
    duration: Duration,
    bytes: u64,
    entries: u64,
) {
    if let Some(hub) = telemetry {
        hub.record_event(
            kind,
            &leader_slot.to_string(),
            duration,
            bytes,
            bytes,
            entries,
        );
    }
}
