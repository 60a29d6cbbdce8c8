//! The replication health monitor: one background thread that, every
//! heartbeat interval, measures per-replica lag (exported as the
//! `laser_replica_lag_seqs` / `laser_replica_lag_bytes` gauges), sends
//! liveness heartbeats, re-ships missed WAL to gapped or stalled replicas
//! with exponential backoff, declares replicas that stop making progress
//! lost, advances every group member's WAL retention floor to the slowest
//! live replica's applied horizon — so a sealed segment is never retired
//! while a lagging-but-healthy replica still needs it — and re-provisions a
//! replacement replica whenever a group's live count falls below the
//! configured replication factor (after a `ReplicaLost` or a promotion).

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use lsm_storage::maintenance::register_shard_engine_with;
use lsm_storage::observability::OpTrace;
use telemetry::trace::TraceKind;
use telemetry::{EventKind, Gauge, Telemetry};

use crate::engine::ShardEngine;
use crate::replication::protocol::Frame;
use crate::replication::replica::ReplicaState;
use crate::replication::{
    bootstrap_replica, record_replication_event, replica_slot, reship_tail, ReplicaSet,
    ReplicationState, MAX_REPLICAS_PER_SHARD,
};

/// The pair of lag gauges exported for one (leader, replica) link.
pub(crate) struct LagGauges {
    seqs: Gauge,
    bytes: Gauge,
}

impl LagGauges {
    fn new(hub: &Arc<Telemetry>, engine: &str, leader_slot: u64, replica_slot: u64) -> LagGauges {
        let shard = leader_slot.to_string();
        let replica = replica_slot.to_string();
        let labels = [
            ("engine", engine),
            ("shard", shard.as_str()),
            ("replica", replica.as_str()),
        ];
        LagGauges {
            seqs: hub.registry().gauge("laser_replica_lag_seqs", &labels),
            bytes: hub.registry().gauge("laser_replica_lag_bytes", &labels),
        }
    }
}

/// Spawns the monitor thread for `state`. The caller stores the handle in
/// `state.monitor`; setting `state.shutdown` stops the loop.
pub(crate) fn spawn_monitor<E: ShardEngine>(state: Arc<ReplicationState<E>>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("replication-monitor".to_string())
        .spawn(move || {
            let mut gauges = HashMap::new();
            let interval = state.config.heartbeat_interval;
            while !state.shutdown.load(Ordering::Acquire) {
                std::thread::sleep(interval);
                if state.shutdown.load(Ordering::Acquire) {
                    break;
                }
                monitor_tick(&state, &mut gauges);
            }
        })
        .expect("spawn replication monitor thread")
}

/// One monitor pass over every replica set. Split out of the thread loop so
/// tests can drive it deterministically.
pub(crate) fn monitor_tick<E: ShardEngine>(
    state: &ReplicationState<E>,
    gauges: &mut HashMap<(u64, u64), LagGauges>,
) {
    let telemetry = state.telemetry.get();
    let sets = state.sets.read().clone();
    for (index, set) in sets.into_iter().enumerate() {
        let (leader, leader_slot) = set.leader();
        let leader_seq = leader.last_seq();
        // Cheap byte estimate for the lag gauge: average ingested bytes per
        // sequence number on the leader.
        let avg_bytes_per_seq = leader
            .stats()
            .ingest_bytes
            .checked_div(leader_seq)
            .unwrap_or(0);
        let mut min_live_applied = leader_seq;
        for replica in set.replicas() {
            replica.send(
                Frame::Heartbeat {
                    shard_slot: leader_slot,
                    leader_seq,
                }
                .encode(),
            );
            let (applied, replica_state) = replica.shared.applied();
            let lag = leader_seq.saturating_sub(applied);
            if let Some(hub) = telemetry {
                let entry = gauges
                    .entry((leader_slot, replica.slot))
                    .or_insert_with(|| {
                        LagGauges::new(hub, leader.config().label, leader_slot, replica.slot)
                    });
                entry.seqs.set(lag);
                entry.bytes.set(lag.saturating_mul(avg_bytes_per_seq));
            }
            if replica_state == ReplicaState::Lost {
                continue;
            }
            min_live_applied = min_live_applied.min(applied);
            if lag == 0 {
                continue;
            }
            // No progress this tick: bump the stall counter. A replica that
            // stays silent past `lost_after` leaves the quorum; one that is
            // merely slow gets its missed WAL re-shipped on an exponential
            // backoff (ticks 2, 4, 8, ...).
            let (stalled_for, checks) = replica.shared.with_status(|status| {
                status.stalled_checks = status.stalled_checks.saturating_add(1);
                (status.last_progress.elapsed(), status.stalled_checks)
            });
            if stalled_for >= state.config.lost_after {
                replica.shared.set_state(ReplicaState::Lost);
                record_replication_event(
                    telemetry,
                    EventKind::ReplicaLost,
                    leader_slot,
                    stalled_for,
                    0,
                    0,
                );
                continue;
            }
            let backoff_due = checks >= 2 && checks.is_power_of_two();
            if replica_state == ReplicaState::CatchingUp || backoff_due {
                // A slow re-ship is worth a flight-recorder trace: claim the
                // `replicate` op kind so it is force-sampled past its slow
                // threshold.
                let op = telemetry.map(|hub| OpTrace::begin(hub, TraceKind::Replicate));
                let start = Instant::now();
                let shipped = reship_tail(set.as_ref(), replica.as_ref()).unwrap_or(0);
                if let (Some(hub), Some(op)) = (telemetry, op) {
                    op.end(
                        hub,
                        TraceKind::Replicate,
                        start.elapsed(),
                        &[("frames", shipped as u64), ("replica", replica.slot)],
                    );
                }
                if shipped > 0 {
                    record_replication_event(
                        telemetry,
                        EventKind::ReplicaCatchup,
                        leader_slot,
                        start.elapsed(),
                        0,
                        shipped as u64,
                    );
                }
            }
        }
        // Pin sealed WAL segments on every group member down to the slowest
        // live replica: the leader so it can still feed catch-up, the
        // replicas so a promoted survivor can feed its new siblings.
        let _ = leader.set_wal_retention_floor(min_live_applied);
        for replica in set.replicas() {
            let (_, replica_state) = replica.shared.applied();
            if replica_state != ReplicaState::Lost {
                let _ = replica.engine.set_wal_retention_floor(min_live_applied);
            }
        }
        reprovision_missing(state, index, &set, telemetry);
    }
}

/// Restores a group whose live replica count fell below the configured
/// replication factor: bootstraps a replacement from the current leader into
/// a fresh slot of the leader's deterministic slot family, joins it to the
/// acknowledgement set and retires one lost predecessor. One replacement per
/// set per tick bounds the monitor's work; a failed bootstrap (device still
/// broken, leader flushing mid-clone) simply retries next tick.
fn reprovision_missing<E: ShardEngine>(
    state: &ReplicationState<E>,
    index: usize,
    set: &Arc<ReplicaSet<E>>,
    telemetry: Option<&Arc<Telemetry>>,
) {
    if !state.config.auto_reprovision {
        return;
    }
    let Some(ctx) = state.reprovision.get() else {
        return;
    };
    let replicas = set.replicas();
    let live = replicas
        .iter()
        .filter(|r| r.shared.applied().1 != ReplicaState::Lost)
        .count();
    if live >= state.config.replication_factor {
        return;
    }
    let (leader, leader_slot) = set.leader();
    // A fail-stopped or degraded leader cannot seed a trustworthy
    // checkpoint; failover has to fix the leadership first.
    if !leader.is_healthy() {
        return;
    }
    // A fresh slot from the leader's deterministic family: the first one not
    // holding a current group member. A lost replica keeps its slot until
    // its replacement is live, so the replacement never reuses it.
    let used: Vec<u64> = replicas
        .iter()
        .map(|r| r.slot)
        .chain([leader_slot])
        .collect();
    let Some(slot) = (0..MAX_REPLICAS_PER_SHARD)
        .map(|i| replica_slot(leader_slot, i))
        .find(|slot| !used.contains(slot))
    else {
        return;
    };
    let key_bound = ctx
        .shard_ranges
        .get(index)
        .copied()
        .unwrap_or((0, u64::MAX));
    let start = Instant::now();
    // Drop leftovers of a previous tenant of the slot (or a torn attempt).
    let _ = ctx.provider.clear_shard(slot as usize);
    let replica = match bootstrap_replica(
        &ctx.provider,
        &leader,
        leader_slot,
        slot,
        &ctx.options,
        key_bound,
        None,
    ) {
        Ok(replica) => replica,
        Err(_) => return,
    };
    if let Some(scheduler) = &ctx.scheduler {
        let _ = register_shard_engine_with(scheduler, &**replica.engine);
    }
    if let Some(hub) = telemetry {
        replica
            .engine
            .attach_telemetry(hub, &replica.slot.to_string());
    }
    // Retire one lost handle per replacement so the group converges on the
    // configured factor instead of accumulating dead members.
    if let Some(lost) = replicas
        .iter()
        .find(|r| r.shared.applied().1 == ReplicaState::Lost)
    {
        if let Some(old) = set.remove_replica(lost.slot) {
            old.stop();
        }
    }
    set.add_replica(replica);
    state.reprovisions.fetch_add(1, Ordering::Relaxed);
    record_replication_event(
        telemetry,
        EventKind::ReplicaProvision,
        leader_slot,
        start.elapsed(),
        0,
        1,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::replica::ReplicaHandle;
    use crate::replication::{ReplicaSet, ReplicationConfig, ReplicationState};
    use lsm_storage::storage::MemStorage;
    use lsm_storage::types::WriteBatch;
    use lsm_storage::{LsmDb, LsmOptions};
    use std::time::{Duration, Instant};

    fn engine() -> Arc<LsmDb> {
        Arc::new(LsmDb::open(MemStorage::new_ref(), LsmOptions::small_for_tests()).unwrap())
    }

    #[test]
    fn stalled_replica_declared_lost_and_excluded_from_floor() {
        let leader = engine();
        let mut batch = WriteBatch::new();
        batch.put(1, vec![1]);
        leader.write(&batch).unwrap();

        let replica = Arc::new(ReplicaHandle::start(engine(), 1024, 0));
        replica.pause();
        let set = Arc::new(ReplicaSet::new(
            Arc::clone(&leader),
            0,
            vec![replica.clone()],
        ));
        let mut config = ReplicationConfig::new(1);
        config.lost_after = Duration::from_millis(0);
        let state: ReplicationState<LsmDb> = ReplicationState::new(config);
        state.sets.write().push(set);

        let mut gauges = HashMap::new();
        monitor_tick(&state, &mut gauges);
        let (_, replica_state) = replica.shared.applied();
        assert_eq!(replica_state, ReplicaState::Lost);
        replica.stop();
    }

    #[test]
    fn backoff_reships_to_catching_up_replica() {
        let leader = engine();
        let mut batch = WriteBatch::new();
        batch.put(7, vec![7]);
        leader.write(&batch).unwrap();

        let replica = Arc::new(ReplicaHandle::start(engine(), 1024, 0));
        replica.shared.set_state(ReplicaState::CatchingUp);
        let set = Arc::new(ReplicaSet::new(
            Arc::clone(&leader),
            0,
            vec![replica.clone()],
        ));
        let mut config = ReplicationConfig::new(1);
        config.lost_after = Duration::from_secs(60);
        let state: ReplicationState<LsmDb> = ReplicationState::new(config);
        state.sets.write().push(set);

        let mut gauges = HashMap::new();
        monitor_tick(&state, &mut gauges);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (applied, _) = replica.shared.applied();
            if applied >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "reship never applied");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(replica.engine.get(7).unwrap(), Some(vec![7]));
        replica.stop();
    }

    #[test]
    fn sealed_segments_pinned_for_lagging_replica_until_acked() {
        // A sealed WAL segment must survive a flush while a
        // lagging-but-healthy replica still needs it, and retire once every
        // replica has acked past it.
        let mut options = LsmOptions::small_for_tests();
        options.auto_compact = false;
        let leader = Arc::new(LsmDb::open(MemStorage::new_ref(), options).unwrap());

        let replica = Arc::new(ReplicaHandle::start(engine(), 1024, 0));
        replica.pause();
        let set = Arc::new(ReplicaSet::new(
            Arc::clone(&leader),
            0,
            vec![replica.clone()],
        ));
        let mut config = ReplicationConfig::new(1);
        config.lost_after = Duration::from_secs(60);
        let state: ReplicationState<LsmDb> = ReplicationState::new(config);
        state.sets.write().push(set);

        // The first tick pins the floor at the paused replica's applied
        // horizon (zero) BEFORE any flush can run, so the inline flushes the
        // workload triggers may seal and flush memtables but must not delete
        // their WAL segments.
        let mut gauges = HashMap::new();
        monitor_tick(&state, &mut gauges);

        for i in 0..12u64 {
            let mut batch = WriteBatch::new();
            batch.put(i, vec![i as u8; 4 << 10]);
            leader.write(&batch).unwrap();
        }
        let leader_seq = leader.last_seq();
        leader.flush().unwrap();
        let pinned = leader.wal_stats();
        assert!(
            pinned.segments_live > 1,
            "workload should have rolled sealed segments ({} live)",
            pinned.segments_live
        );
        assert_eq!(
            pinned.segments_deleted, 0,
            "sealed segment retired while a lagging live replica needed it"
        );

        // Catch the replica up; reships fire on the catch-up path.
        replica.resume();
        replica.shared.set_state(ReplicaState::CatchingUp);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            monitor_tick(&state, &mut gauges);
            let (applied, _) = replica.shared.applied();
            if applied >= leader_seq {
                break;
            }
            assert!(Instant::now() < deadline, "replica never caught up");
            std::thread::sleep(Duration::from_millis(5));
        }

        // Every record is acked: the next tick advances the floor past the
        // pinned segments and they finally retire.
        monitor_tick(&state, &mut gauges);
        let retired = leader.wal_stats();
        assert!(
            retired.segments_deleted > 0,
            "fully acked sealed segments should retire once the floor advances"
        );
        assert!(retired.segments_live < pinned.segments_live);
        replica.stop();
    }

    #[test]
    fn reprovision_replaces_lost_replica_with_byte_identical_copy() {
        use crate::replication::ReprovisionContext;
        use crate::storage::{MemShardStorage, ShardStorageProvider};

        let provider = MemShardStorage::new_ref();
        let mut options = LsmOptions::small_for_tests();
        options.auto_compact = false;
        let leader = Arc::new(LsmDb::open(provider.shard(0).unwrap(), options.clone()).unwrap());
        for key in 0..20u64 {
            let mut batch = WriteBatch::new();
            batch.put(key, vec![key as u8; 64]);
            leader.write(&batch).unwrap();
        }

        // A paused replica that the first tick will declare lost.
        let doomed = Arc::new(ReplicaHandle::start(engine(), replica_slot(0, 0), 0));
        doomed.pause();
        let set = Arc::new(ReplicaSet::new(
            Arc::clone(&leader),
            0,
            vec![doomed.clone()],
        ));
        let mut config = ReplicationConfig::new(1);
        config.lost_after = Duration::from_millis(0);
        let state: ReplicationState<LsmDb> = ReplicationState::new(config);
        state.sets.write().push(Arc::clone(&set));
        let dyn_provider: Arc<dyn ShardStorageProvider> = provider.clone();
        state
            .reprovision
            .set(ReprovisionContext {
                provider: dyn_provider,
                options,
                shard_ranges: vec![(0, u64::MAX)],
                scheduler: None,
            })
            .ok()
            .expect("context set once");

        // One tick: the stalled replica leaves the quorum and a replacement
        // is bootstrapped into the next fresh slot of the leader's family.
        let mut gauges = HashMap::new();
        monitor_tick(&state, &mut gauges);
        assert_eq!(state.reprovisions.load(Ordering::Relaxed), 1);
        let replicas = set.replicas();
        assert_eq!(replicas.len(), 1, "the lost handle must be retired");
        let replacement = &replicas[0];
        assert_eq!(replacement.slot, replica_slot(0, 1));

        // The rebuilt replica holds every acked write, byte for byte.
        let leader_seq = leader.last_seq();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (applied, state_now) = replacement.shared.applied();
            if applied >= leader_seq && state_now == ReplicaState::Streaming {
                break;
            }
            assert!(Instant::now() < deadline, "replacement never converged");
            std::thread::sleep(Duration::from_millis(5));
        }
        for key in 0..20u64 {
            assert_eq!(
                replacement.engine.get(key).unwrap(),
                Some(vec![key as u8; 64]),
                "replacement diverged at key {key}"
            );
        }
        replacement.stop();
    }
}
