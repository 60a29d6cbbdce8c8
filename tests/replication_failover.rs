//! Failover harness for per-shard WAL-shipping replication: an in-process
//! leader + 2-replica cluster per shard is killed at every injected
//! failpoint (mid segment ship, mid tail frame, mid promotion intent, post
//! promotion pre cleanup) and must recover with zero acked-write loss under
//! quorum acknowledgement, with replica reads byte-identical to leader reads
//! at the same sequence horizon.
//!
//! The CI `fault-matrix` job drives this file across a
//! {WAL sync policy} x {seed set} matrix via two environment variables:
//!
//! * `LASER_FAULT_SYNC_POLICY` — `always` (fsync every commit), `interval`
//!   (windowed fsync), or unset to run both in one process.
//! * `LASER_FAULT_SEED` — comma-separated u64 seeds for the deterministic
//!   workload generator; unset uses a small built-in set.
//!
//! Every scenario is written once against the shared [`TestEngine`] adapter
//! and runs for both level formats of the engine shell, `ShardedDb<LsmDb>`
//! and `ShardedDb<LaserDb>` (the `*_laser` tests). Each run prints its
//! `(engine, scenario, policy, seed)` line, so a failing matrix cell is
//! reproducible locally by exporting those two variables and re-running the
//! named test.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use laser::laser_sharding::{
    AckMode, MemShardStorage, ReplicaState, ReplicationConfig, ReplicationFailpoint, ShardSnapshot,
    ShardStorageProvider, ShardedDb, ShardedOptions,
};
use laser::lsm_storage::storage::StorageRef;
use laser::lsm_storage::types::WriteBatch;
use laser::lsm_storage::{FaultConfig, FaultInjectingStorage, LsmDb, Result};
use laser::LaserDb;

mod common;

use common::TestEngine;

/// Reference model of every *acknowledged* write, as the payload written
/// under each key. Unacknowledged writes (e.g. the batch in flight at a
/// failpoint) are deliberately absent: recovery may keep or drop them, but
/// must keep everything in here.
type Model = BTreeMap<u64, Vec<u8>>;

// ---------------------------------------------------------------------------
// Matrix parameters (environment-driven, CI sets them per matrix cell)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SyncPolicy {
    /// fsync covers every acknowledged commit.
    EveryCommit,
    /// At most one fsync per 10ms window (bounded-loss group commit).
    Interval,
}

impl SyncPolicy {
    fn name(self) -> &'static str {
        match self {
            SyncPolicy::EveryCommit => "always",
            SyncPolicy::Interval => "interval",
        }
    }
}

fn policies_from_env() -> Vec<SyncPolicy> {
    match std::env::var("LASER_FAULT_SYNC_POLICY").ok().as_deref() {
        Some("always") => vec![SyncPolicy::EveryCommit],
        Some("interval") => vec![SyncPolicy::Interval],
        _ => vec![SyncPolicy::EveryCommit, SyncPolicy::Interval],
    }
}

fn seeds_from_env() -> Vec<u64> {
    match std::env::var("LASER_FAULT_SEED") {
        Ok(raw) => {
            let seeds: Vec<u64> = raw
                .split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect();
            assert!(
                !seeds.is_empty(),
                "LASER_FAULT_SEED set but unparsable: {raw}"
            );
            seeds
        }
        Err(_) => vec![7, 0xC0FFEE],
    }
}

fn engine_options<E: TestEngine>(policy: SyncPolicy) -> E::Options {
    match policy {
        SyncPolicy::EveryCommit => E::test_options(true, 0),
        SyncPolicy::Interval => E::test_options(false, 10),
    }
}

/// `engine=<name> <scenario> policy=<policy> seed=<seed>`: the line every
/// scenario run prints and prefixes its assertions with.
fn scenario_ctx<E: TestEngine>(scenario: &str, policy: SyncPolicy, seed: u64) -> String {
    let ctx = format!(
        "engine={} {scenario} policy={} seed={seed}",
        E::NAME,
        policy.name()
    );
    eprintln!("scenario {ctx}");
    ctx
}

/// Quorum-acked 2-replica groups with a fast monitor and without the
/// lost-after cliff (the harness injects its own faults).
fn replication_config() -> ReplicationConfig {
    let mut config = ReplicationConfig::new(2);
    config.heartbeat_interval = Duration::from_millis(5);
    config.ack_timeout = Duration::from_secs(10);
    config.lost_after = Duration::from_secs(60);
    config
}

/// Two shards split at key 1000.
fn sharded_options(config: ReplicationConfig) -> ShardedOptions {
    ShardedOptions::with_boundaries(vec![1000]).replication(config)
}

// ---------------------------------------------------------------------------
// Deterministic workload
// ---------------------------------------------------------------------------

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Keys stay inside [0, 900) and [1000, 1900): the range [900, 1000) is
/// reserved for the in-flight batch a failpoint kills, so the acked model
/// and the maybe-recovered unacked batch can never disagree about one key.
fn workload_key(r: u64) -> u64 {
    let k = r % 1800;
    if k < 900 {
        k
    } else {
        k + 100
    }
}

/// Applies `batches` random batches (1-4 entries, both shards) and records
/// every *acknowledged* one in the model. Panics (with context) if an
/// ordinary quorum write fails.
fn write_workload<E: TestEngine>(
    db: &ShardedDb<E>,
    rng: &mut u64,
    model: &mut Model,
    batches: usize,
    ctx: &str,
) {
    for i in 0..batches {
        let mut batch = WriteBatch::new();
        let mut staged = Vec::new();
        for _ in 0..(xorshift(rng) % 4 + 1) {
            let key = workload_key(xorshift(rng));
            let payload = E::payload(xorshift(rng), 0);
            batch.put(key, payload.clone());
            staged.push((key, payload));
        }
        db.write(&batch)
            .unwrap_or_else(|e| panic!("[{ctx}] workload batch {i} not acked: {e}"));
        model.extend(staged);
    }
}

/// Every acked write must be present with its acked value.
fn verify_model<E: TestEngine>(db: &ShardedDb<E>, model: &Model, ctx: &str) {
    for (key, expected) in model {
        let got = db
            .get(*key, &E::all_columns())
            .unwrap_or_else(|e| panic!("[{ctx}] get({key}) failed: {e}"));
        assert_eq!(
            got,
            Some(E::value(expected)),
            "[{ctx}] acked write lost or corrupted at key {key}"
        );
    }
}

/// Every acked write read at `snapshot` (replica routing included) must be
/// byte-identical to the acked history.
fn verify_model_at<E: TestEngine>(
    db: &ShardedDb<E>,
    model: &Model,
    snapshot: &ShardSnapshot,
    ctx: &str,
) {
    for (key, expected) in model {
        let got = db
            .get_at(*key, &E::all_columns(), snapshot)
            .unwrap_or_else(|e| panic!("[{ctx}] get_at({key}) failed: {e}"));
        assert_eq!(
            got,
            Some(E::value(expected)),
            "[{ctx}] snapshot read diverged at key {key}"
        );
    }
}

/// Blocks until every replica streams and has applied `snapshot`'s horizon,
/// so snapshot reads are eligible for replica routing.
fn wait_for_snapshot_horizon<E: TestEngine>(
    db: &ShardedDb<E>,
    snapshot: &ShardSnapshot,
    ctx: &str,
) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let caught_up =
            db.replication_status()
                .iter()
                .zip(snapshot.seqs())
                .all(|(status, &seq)| {
                    status
                        .replicas
                        .iter()
                        .all(|r| r.state == ReplicaState::Streaming && r.applied_seq >= seq)
                });
        if caught_up {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "[{ctx}] replicas never reached the snapshot horizon"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn open<E: TestEngine>(
    provider: Arc<MemShardStorage>,
    policy: SyncPolicy,
    config: ReplicationConfig,
) -> Result<ShardedDb<E>> {
    ShardedDb::open(
        provider,
        engine_options::<E>(policy),
        sharded_options(config),
    )
}

/// Instantiates each engine-generic scenario for both formats.
macro_rules! for_both_engines {
    ($($scenario:ident => $lsm:ident, $laser:ident;)*) => {$(
        #[test]
        fn $lsm() {
            $scenario::<LsmDb>();
        }

        #[test]
        fn $laser() {
            $scenario::<LaserDb>();
        }
    )*};
}

for_both_engines! {
    mid_tail_frame => crash_matrix_mid_tail_frame, crash_matrix_mid_tail_frame_laser;
    mid_segment_ship => crash_matrix_mid_segment_ship, crash_matrix_mid_segment_ship_laser;
    mid_promotion_intent =>
        crash_matrix_mid_promotion_intent, crash_matrix_mid_promotion_intent_laser;
    post_promotion_pre_cleanup =>
        crash_matrix_post_promotion_pre_cleanup, crash_matrix_post_promotion_pre_cleanup_laser;
    auto_failover =>
        auto_failover_promotes_replica_on_leader_wal_fail_stop,
        auto_failover_promotes_replica_on_leader_wal_fail_stop_laser;
    reprovision =>
        reprovision_restores_replication_factor_after_promotion,
        reprovision_restores_replication_factor_after_promotion_laser;
    replica_reads =>
        replica_reads_byte_identical_at_snapshot_horizon,
        replica_reads_byte_identical_at_snapshot_horizon_laser;
    leader_only_acks =>
        leader_only_acks_converge_without_waiting,
        leader_only_acks_converge_without_waiting_laser;
}

// ---------------------------------------------------------------------------
// The crash matrix
// ---------------------------------------------------------------------------

/// Mid tail frame: the leader dies after appending to its own WAL but while
/// shipping the live-tail frame (the first replica receives a torn frame).
/// The write is not acknowledged; after the crash and reopen nothing acked
/// is lost and the group converges again.
fn mid_tail_frame<E: TestEngine>() {
    for policy in policies_from_env() {
        for seed in seeds_from_env() {
            let ctx = scenario_ctx::<E>("mid_tail_frame", policy, seed);
            let provider = MemShardStorage::new_ref();
            let mut model = Model::new();
            let mut rng = seed | 1;

            let db = open::<E>(provider.clone(), policy, replication_config()).unwrap();
            write_workload(&db, &mut rng, &mut model, 30, &ctx);

            db.set_replication_failpoint(Some(ReplicationFailpoint::MidTailFrame));
            let mut doomed = WriteBatch::new();
            doomed.put(950, E::payload(950, 0));
            let err = db.write(&doomed);
            assert!(err.is_err(), "[{ctx}] torn-frame write must not be acked");
            drop(db); // crash: no close, queues and monitor die with the process

            let db = open::<E>(provider.clone(), policy, replication_config()).unwrap();
            verify_model(&db, &model, &ctx);
            // The group still accepts quorum writes after recovery.
            write_workload(&db, &mut rng, &mut model, 10, &ctx);
            verify_model(&db, &model, &ctx);
            db.close().unwrap();
        }
    }
}

/// Mid segment ship: the leader dies while streaming a sealed WAL segment to
/// a bootstrapping replica. The open fails (the replica never converges), a
/// retry without the fault bootstraps cleanly, and nothing acked is lost.
fn mid_segment_ship<E: TestEngine>() {
    for policy in policies_from_env() {
        for seed in seeds_from_env() {
            let ctx = scenario_ctx::<E>("mid_segment_ship", policy, seed);
            let provider = MemShardStorage::new_ref();
            let mut model = Model::new();
            let mut rng = seed | 1;

            // Seed an unreplicated leader with enough data to roll several
            // WAL segments, then crash it (no close, no flush).
            let db: ShardedDb<E> = ShardedDb::open(
                provider.clone(),
                engine_options::<E>(policy),
                ShardedOptions::with_boundaries(vec![1000]),
            )
            .unwrap();
            for _ in 0..6 {
                let mut batch = WriteBatch::new();
                let key = workload_key(xorshift(&mut rng));
                let payload = E::payload(xorshift(&mut rng), 4 << 10);
                batch.put(key, payload.clone());
                db.write(&batch)
                    .unwrap_or_else(|e| panic!("[{ctx}] seed write: {e}"));
                model.insert(key, payload);
            }
            drop(db);

            // First replicated open hits the failpoint while catching a
            // fresh replica up from those sealed segments.
            let mut faulty = replication_config();
            faulty.failpoint = Some(ReplicationFailpoint::MidSegmentShip);
            let err = open::<E>(provider.clone(), policy, faulty);
            assert!(
                err.is_err(),
                "[{ctx}] bootstrap must fail at the mid-segment-ship failpoint"
            );

            let db = open::<E>(provider.clone(), policy, replication_config()).unwrap();
            verify_model(&db, &model, &ctx);
            write_workload(&db, &mut rng, &mut model, 10, &ctx);
            verify_model(&db, &model, &ctx);
            db.close().unwrap();
        }
    }
}

/// Mid promotion intent: the process dies while writing `SHARDS.promote`
/// (a torn intent is left on disk). The torn intent is ignored on reopen —
/// the old leader stays leader and nothing acked is lost.
fn mid_promotion_intent<E: TestEngine>() {
    for policy in policies_from_env() {
        for seed in seeds_from_env() {
            let ctx = scenario_ctx::<E>("mid_promotion_intent", policy, seed);
            let provider = MemShardStorage::new_ref();
            let mut model = Model::new();
            let mut rng = seed | 1;

            let db = open::<E>(provider.clone(), policy, replication_config()).unwrap();
            write_workload(&db, &mut rng, &mut model, 30, &ctx);
            let leader_before = db.replication_status()[0].leader_slot;

            db.set_replication_failpoint(Some(ReplicationFailpoint::MidPromotionIntent));
            let err = db.promote_shard(0);
            assert!(
                err.is_err(),
                "[{ctx}] promotion must crash at the failpoint"
            );
            drop(db);

            let db = open::<E>(provider.clone(), policy, replication_config()).unwrap();
            let status = db.replication_status();
            assert_eq!(
                status[0].leader_slot, leader_before,
                "[{ctx}] a torn promotion intent must roll back to the old leader"
            );
            verify_model(&db, &model, &ctx);
            write_workload(&db, &mut rng, &mut model, 10, &ctx);
            verify_model(&db, &model, &ctx);
            db.close().unwrap();
        }
    }
}

/// Post promotion pre cleanup: the process dies after the `SHARDS` manifest
/// committed the new leader but before the old leader's slot was cleaned
/// up. Reopen rolls the promotion forward (the promoted replica serves as
/// leader) and nothing acked is lost.
fn post_promotion_pre_cleanup<E: TestEngine>() {
    for policy in policies_from_env() {
        for seed in seeds_from_env() {
            let ctx = scenario_ctx::<E>("post_promotion_pre_cleanup", policy, seed);
            let provider = MemShardStorage::new_ref();
            let mut model = Model::new();
            let mut rng = seed | 1;

            let db = open::<E>(provider.clone(), policy, replication_config()).unwrap();
            write_workload(&db, &mut rng, &mut model, 30, &ctx);
            let leader_before = db.replication_status()[0].leader_slot;

            db.set_replication_failpoint(Some(ReplicationFailpoint::PostPromotionPreCleanup));
            let err = db.promote_shard(0);
            assert!(
                err.is_err(),
                "[{ctx}] promotion must crash at the failpoint"
            );
            drop(db);

            let db = open::<E>(provider.clone(), policy, replication_config()).unwrap();
            let status = db.replication_status();
            assert_ne!(
                status[0].leader_slot, leader_before,
                "[{ctx}] a committed promotion must roll forward to the replica"
            );
            verify_model(&db, &model, &ctx);
            write_workload(&db, &mut rng, &mut model, 10, &ctx);
            verify_model(&db, &model, &ctx);
            db.close().unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// Automatic failover (WAL fail-stop, no process crash)
// ---------------------------------------------------------------------------

/// A shard-storage provider that wraps every slot in a
/// [`FaultInjectingStorage`], so a test can fail-stop one shard's WAL at
/// will while the other slots stay healthy.
struct FaultyShardStorage {
    inner: Arc<MemShardStorage>,
    slots: Mutex<BTreeMap<usize, Arc<FaultInjectingStorage>>>,
}

impl FaultyShardStorage {
    fn new() -> Arc<FaultyShardStorage> {
        Arc::new(FaultyShardStorage {
            inner: MemShardStorage::new_ref(),
            slots: Mutex::new(BTreeMap::new()),
        })
    }

    fn injector(&self, slot: usize) -> Arc<FaultInjectingStorage> {
        let mut slots = self.slots.lock().unwrap();
        let entry = slots.entry(slot).or_insert_with(|| {
            let inner = self.inner.shard(slot).expect("mem shard");
            Arc::new(FaultInjectingStorage::new(inner))
        });
        Arc::clone(entry)
    }
}

impl ShardStorageProvider for FaultyShardStorage {
    fn root(&self) -> Result<StorageRef> {
        self.inner.root()
    }

    fn shard(&self, slot: usize) -> Result<StorageRef> {
        let storage: StorageRef = self.injector(slot);
        Ok(storage)
    }

    fn link_file(&self, from: usize, to: usize, name: &str) -> Result<()> {
        self.inner.link_file(from, to, name)
    }

    fn clear_shard(&self, slot: usize) -> Result<()> {
        self.inner.clear_shard(slot)
    }
}

/// Fail-stopping the leader's WAL mid-stream makes the next write promote
/// the best replica automatically and succeed against it; the demoted
/// leader's acked writes all survive on the new leader.
fn auto_failover<E: TestEngine>() {
    for policy in policies_from_env() {
        for seed in seeds_from_env() {
            let ctx = scenario_ctx::<E>("auto_failover", policy, seed);
            let provider = FaultyShardStorage::new();
            let mut model = Model::new();
            let mut rng = seed | 1;

            // This scenario asserts that promotion consumed a replica, so
            // the monitor must not race a replacement into the set.
            let mut config = replication_config();
            config.auto_reprovision = false;
            let db: ShardedDb<E> = ShardedDb::open(
                provider.clone(),
                engine_options::<E>(policy),
                sharded_options(config),
            )
            .unwrap();
            write_workload(&db, &mut rng, &mut model, 30, &ctx);

            let status_before = db.replication_status();
            let leader_slot = status_before[0].leader_slot;
            provider
                .injector(leader_slot as usize)
                .set_config(FaultConfig {
                    fail_append: true,
                    fail_sync: true,
                    ..Default::default()
                });

            // The next write routed to shard 0 fail-stops the old leader,
            // triggers promotion and must still be acknowledged.
            let mut batch = WriteBatch::new();
            batch.put(10, E::payload(10, 0));
            db.write(&batch)
                .unwrap_or_else(|e| panic!("[{ctx}] failover write not acked: {e}"));
            model.insert(10, E::payload(10, 0));

            let status_after = db.replication_status();
            assert_ne!(
                status_after[0].leader_slot, leader_slot,
                "[{ctx}] the failed leader must have been replaced"
            );
            assert_eq!(
                status_after[0].replicas.len(),
                status_before[0].replicas.len() - 1,
                "[{ctx}] promotion consumes one replica"
            );
            verify_model(&db, &model, &ctx);
            write_workload(&db, &mut rng, &mut model, 10, &ctx);
            verify_model(&db, &model, &ctx);
        }
    }
}

// ---------------------------------------------------------------------------
// Automatic replica re-provisioning
// ---------------------------------------------------------------------------

/// After a graceful promotion consumes a replica, the health monitor
/// bootstraps a replacement into a fresh slot: the set returns to the
/// configured replication factor, and snapshot reads served with replica
/// routing stay byte-identical to the acked history.
fn reprovision<E: TestEngine>() {
    for policy in policies_from_env() {
        for seed in seeds_from_env() {
            let ctx = scenario_ctx::<E>("reprovision", policy, seed);
            let provider = MemShardStorage::new_ref();
            let mut model = Model::new();
            let mut rng = seed | 1;

            let mut config = replication_config();
            config.replica_reads = true;
            config.freshness_bound_seqs = 0;
            let db = open::<E>(provider.clone(), policy, config).unwrap();
            write_workload(&db, &mut rng, &mut model, 30, &ctx);

            let factor = db.replication_status()[0].replicas.len();
            db.promote_shard(0)
                .unwrap_or_else(|e| panic!("[{ctx}] promote: {e}"));

            // Promotion consumed one replica; the monitor must bootstrap a
            // replacement and stream it back to parity.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let status = db.replication_status();
                let healed = status[0].replicas.len() == factor
                    && status[0]
                        .replicas
                        .iter()
                        .all(|r| r.state == ReplicaState::Streaming);
                if healed {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "[{ctx}] replica set never returned to the replication factor"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            assert!(
                db.replication_reprovisions() >= 1,
                "[{ctx}] the re-provision must be accounted"
            );
            assert!(
                db.replication_status()[0]
                    .replicas
                    .iter()
                    .all(|r| r.slot >= 1024),
                "[{ctx}] the replacement must live in a fresh replica slot"
            );

            // Quorum writes flow against the healed set...
            write_workload(&db, &mut rng, &mut model, 10, &ctx);
            // ...and snapshot reads (replica routing included) stay
            // byte-identical once the rebuilt replica reaches the horizon.
            let snapshot = db.snapshot();
            wait_for_snapshot_horizon(&db, &snapshot, &ctx);
            verify_model_at(&db, &model, &snapshot, &ctx);
            db.close().unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// Replica reads
// ---------------------------------------------------------------------------

/// With replica reads enabled, point reads and cross-shard scans served at
/// a snapshot horizon are byte-identical to the acked history, whether a
/// replica or the leader answered; the scan legs fan out to replicas too.
fn replica_reads<E: TestEngine>() {
    for policy in policies_from_env() {
        for seed in seeds_from_env() {
            let ctx = scenario_ctx::<E>("replica_reads", policy, seed);
            let provider = MemShardStorage::new_ref();
            let mut model = Model::new();
            let mut rng = seed | 1;

            let mut config = replication_config();
            config.replica_reads = true;
            config.freshness_bound_seqs = 0;
            let db = open::<E>(provider.clone(), policy, config).unwrap();
            write_workload(&db, &mut rng, &mut model, 40, &ctx);

            // Wait until every replica holds the full snapshot horizon, so
            // snapshot reads are eligible for replica routing.
            let snapshot = db.snapshot();
            wait_for_snapshot_horizon(&db, &snapshot, &ctx);
            verify_model_at(&db, &model, &snapshot, &ctx);
            // Byte identity of the all-column cross-shard scan.
            let scanned = db
                .scan_at(0, 2000, &E::all_columns(), &snapshot)
                .unwrap_or_else(|e| panic!("[{ctx}] scan_at failed: {e}"));
            let expected: Vec<(u64, E::Value)> = model
                .iter()
                .map(|(key, payload)| (*key, E::value(payload)))
                .collect();
            assert_eq!(scanned, expected, "[{ctx}] cross-shard scan diverged");
            db.close().unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// Leader-only acknowledgement
// ---------------------------------------------------------------------------

/// Under `AckMode::LeaderOnly` a write is acknowledged at the leader's WAL
/// and shipped asynchronously: the replicas still converge on the full
/// history, and snapshot reads routed to them are byte-identical.
fn leader_only_acks<E: TestEngine>() {
    for policy in policies_from_env() {
        for seed in seeds_from_env() {
            let ctx = scenario_ctx::<E>("leader_only_acks", policy, seed);
            let mut model = Model::new();
            let mut rng = seed | 1;

            let mut config = replication_config();
            config.ack_mode = AckMode::LeaderOnly;
            config.replica_reads = true;
            config.freshness_bound_seqs = 0;
            let db = open::<E>(MemShardStorage::new_ref(), policy, config).unwrap();
            write_workload(&db, &mut rng, &mut model, 40, &ctx);
            verify_model(&db, &model, &ctx);

            let snapshot = db.snapshot();
            wait_for_snapshot_horizon(&db, &snapshot, &ctx);
            verify_model_at(&db, &model, &snapshot, &ctx);
            db.close().unwrap();
        }
    }
}
