//! The sharded database facade, including online re-sharding: a hot shard
//! can be split live, while writes and scans continue.
//!
//! ## Split state machine
//!
//! ```text
//!            ┌────────────┐ write SHARDS.intent ┌──────────┐
//!   steady ──│  INTENT    │────────────────────▶│ PREPARE  │ link parent SSTs
//!   state    └────────────┘                     └────┬─────┘ into child slots,
//!                 ▲  crash ⇒ roll back (clear        │       write child
//!                 │  child slots, delete intent)     ▼       manifests
//!            ┌────┴───────┐  rename SHARDS      ┌──────────┐
//!            │  CLEANUP   │◀────────────────────│  COMMIT  │ (atomic)
//!            └────────────┘  crash ⇒ roll       └──────────┘
//!             delete intent,  forward (clear
//!             clear parent    parent slot,
//!             slot            delete intent)
//! ```
//!
//! The `SHARDS` manifest rename is the single commit point; the intent file
//! is only a recovery hint (see [`crate::manifest`] for the crash matrix).
//! In memory, the topology is an immutable [`Arc`] snapshot swapped under a
//! write lock: writers hold the lock shared for the duration of a batch (so
//! a split never observes half a batch and a batch never lands on a retired
//! shard), while scans pin the `Arc` and run lock-free against a consistent
//! topology.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use lsm_storage::cache::{BlockCache, BlockCacheStats, ScopeId, ScopedCache};
use lsm_storage::maintenance::{register_shard_engine, JobKind, JobScheduler};
use lsm_storage::manifest::{read_manifest, write_manifest, VersionSnapshot};
use lsm_storage::observability::OpTrace;
use lsm_storage::storage::IoStatsSnapshot;
use lsm_storage::types::{SeqNo, UserKey, WriteBatch, MAX_SEQNO};
use lsm_storage::wal_segment::WalStatsSnapshot;
use lsm_storage::{EngineMaintenance, Error, Result};
use telemetry::trace::{self, TraceContext, TraceKind, ROOT_SPAN_ID};
use telemetry::{
    Event, EventKind, Gauge, Histogram, Telemetry, WorkloadProfiler, WorkloadSnapshot,
};

use crate::engine::ShardEngine;
use crate::http::{self, HttpResponse, TelemetryServer, CONTENT_TYPE_JSON};
use crate::manifest::{
    read_shard_manifest, read_split_intent, remove_split_intent, write_shard_manifest,
    write_split_intent, ShardManifest, SplitIntent,
};
use crate::pool::WorkerPool;
use crate::replication::promotion::{
    read_promotion_intent, remove_promotion_intent, write_promotion_intent,
    write_torn_promotion_intent, PromotionIntent,
};
use crate::replication::{
    bootstrap_replica, reconcile_from, record_replication_event, replica_slot, reship_tail,
    ReplicaSet, ReplicaState, ReplicationConfig, ReplicationFailpoint, ReplicationState,
    ReprovisionContext, ShardReplicationStatus,
};
use crate::router::ShardRouter;
use crate::storage::ShardStorageProvider;

/// When a shard is split automatically (no trigger fires manually): the
/// policy is evaluated on the write path from shard-level statistics.
#[derive(Debug, Clone)]
pub struct SplitPolicy {
    /// Resident bytes (memtable + SSTs) above which a shard splits;
    /// 0 disables this trigger.
    pub max_resident_bytes: u64,
    /// Bytes routed into one shard since it was opened (or created by a
    /// previous split) above which it splits; 0 disables this trigger.
    pub max_ingest_bytes: u64,
    /// Pending background jobs of one shard at which it splits (sustained
    /// flush/compaction pressure); 0 disables this trigger.
    pub split_pending_jobs: usize,
    /// Hard cap on the number of shards; no automatic split beyond it.
    pub max_shards: usize,
    /// Evaluate the policy once every this many batches (amortises the
    /// shard-stat scan off the hot path). Clamped to at least 1.
    pub check_every_batches: u64,
}

impl Default for SplitPolicy {
    fn default() -> Self {
        SplitPolicy {
            max_resident_bytes: 64 << 20,
            max_ingest_bytes: 0,
            split_pending_jobs: 0,
            max_shards: 16,
            check_every_batches: 32,
        }
    }
}

/// Simulated crash points inside [`ShardedDb::split_shard_with_failpoint`],
/// used by crash-safety tests: the split returns an error at the chosen
/// stage, leaving on-disk state exactly as a crash there would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitFailpoint {
    /// Crash right after the intent record is durable (before any child
    /// state exists). Replay must roll back to the old topology.
    AfterIntent,
    /// Crash after the children are fully prepared (SSTs linked, manifests
    /// written) but before the `SHARDS` commit. Replay must roll back.
    AfterPrepare,
}

/// Configuration of the sharding layer (the per-shard engine options are
/// passed separately and shared by every shard).
#[derive(Debug, Clone)]
pub struct ShardedOptions {
    /// Requested shard count for a *fresh* directory. A reopened database
    /// always keeps the topology persisted in its shard manifest.
    pub num_shards: usize,
    /// Explicit split points for a fresh directory (`num_shards - 1`
    /// ascending keys). `None` splits the full `u64` key space uniformly —
    /// workloads whose keys occupy a narrow range should pass boundaries
    /// matching their distribution instead.
    pub boundaries: Option<Vec<UserKey>>,
    /// Threads of the cross-shard fan-out pool (scans and multi-shard batch
    /// writes). 0 means `min(num_shards, 8)`.
    pub fanout_threads: usize,
    /// Workers of the shared background maintenance scheduler serving every
    /// shard; 0 disables background maintenance (flush/compaction then run
    /// inline on the write path, per shard).
    pub maintenance_workers: usize,
    /// Global byte budget of the process-wide block cache shared by all
    /// shards; 0 disables caching (unless an external cache is supplied via
    /// [`ShardedDb::open_with_cache`]).
    pub cache_bytes: usize,
    /// Automatic shard splitting; `None` splits only on explicit
    /// [`ShardedDb::split_shard`] calls.
    pub split_policy: Option<SplitPolicy>,
    /// Per-shard WAL-shipping replication; `None` runs unreplicated. Shard
    /// splits are disabled while replication is on.
    pub replication: Option<ReplicationConfig>,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        ShardedOptions {
            num_shards: 4,
            boundaries: None,
            fanout_threads: 0,
            maintenance_workers: 0,
            cache_bytes: 0,
            split_policy: None,
            replication: None,
        }
    }
}

impl ShardedOptions {
    /// Options for `num_shards` shards, everything else default.
    pub fn with_shards(num_shards: usize) -> Self {
        ShardedOptions {
            num_shards,
            ..Default::default()
        }
    }

    /// Options with explicit split points (shard count follows from them).
    pub fn with_boundaries(boundaries: Vec<UserKey>) -> Self {
        ShardedOptions {
            num_shards: boundaries.len() + 1,
            boundaries: Some(boundaries),
            ..Default::default()
        }
    }

    /// Sets the fan-out pool size.
    pub fn fanout_threads(mut self, threads: usize) -> Self {
        self.fanout_threads = threads;
        self
    }

    /// Enables background maintenance with `workers` shared worker threads.
    pub fn maintenance_workers(mut self, workers: usize) -> Self {
        self.maintenance_workers = workers;
        self
    }

    /// Sets the global block-cache budget in bytes.
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Enables automatic shard splitting under `policy`.
    pub fn split_policy(mut self, policy: SplitPolicy) -> Self {
        self.split_policy = Some(policy);
        self
    }

    /// Enables per-shard WAL-shipping replication under `config` (disables
    /// shard splitting).
    pub fn replication(mut self, config: ReplicationConfig) -> Self {
        self.replication = Some(config);
        self
    }
}

/// A consistent cross-shard snapshot: one sequence number per shard,
/// captured atomically with respect to (multi-shard) batch writes — a
/// snapshot can never observe half of a batch. A snapshot is pinned to the
/// topology epoch it was captured in; it does not survive a shard split
/// (reads against it then fail rather than silently mis-route).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    epoch: u64,
    seqs: Vec<SeqNo>,
}

impl ShardSnapshot {
    /// The per-shard visibility horizon (indexed by shard).
    pub fn seqs(&self) -> &[SeqNo] {
        &self.seqs
    }

    /// The topology epoch this snapshot was captured in.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// The replication state and one shard's replica set, as the write path
/// resolves them per batch.
type ShardReplication<'a, E> = (&'a Arc<ReplicationState<E>>, Arc<ReplicaSet<E>>);

/// One shard of the topology: the engine plus its placement bookkeeping.
struct Shard<E> {
    engine: Arc<E>,
    /// Storage slot the shard's data lives in (see [`crate::storage`]).
    slot: u64,
    /// Accounting scope of the process-wide cache, if caching is on.
    cache_scope: Option<ScopeId>,
    /// Bytes routed into this shard since it was opened (split-policy input).
    ingested_bytes: AtomicU64,
    /// Workload profile (key heatmap + op mix) fed by the router once
    /// telemetry is attached; also a split-key source for unflushed shards.
    profiler: OnceLock<Arc<WorkloadProfiler>>,
}

/// An immutable topology snapshot: the router plus the shard handles, shared
/// via `Arc` so readers pin a consistent view while a split swaps in a new
/// one. Non-split shards are carried over by reference (their counters and
/// engines survive the swap).
struct Topology<E> {
    epoch: u64,
    router: ShardRouter,
    shards: Vec<Arc<Shard<E>>>,
    next_slot: u64,
}

impl<E> Topology<E> {
    fn manifest(&self) -> ShardManifest {
        ShardManifest {
            boundaries: self.router.boundaries().to_vec(),
            slots: self.shards.iter().map(|s| s.slot).collect(),
            next_slot: self.next_slot,
        }
    }
}

/// Pre-resolved handles into a shared telemetry hub: the facade-level
/// batch-commit histogram plus topology gauges refreshed on export.
struct ShardedTelemetry {
    hub: Arc<Telemetry>,
    batch_commit_ns: Histogram,
    shards_gauge: Gauge,
    cache_bytes_gauge: Gauge,
    bg_pending_gauge: Gauge,
    cache_hits_gauge: Gauge,
    cache_misses_gauge: Gauge,
    /// Cache hit rate in basis points (gauges are integers).
    cache_hit_rate_bp_gauge: Gauge,
    /// Last per-scope cache hit/miss totals exported per shard slot, so the
    /// monotonic scope counters can feed the Prometheus counters as deltas.
    cache_export: Mutex<HashMap<u64, (u64, u64)>>,
}

/// Counters of the sharding layer itself (per-shard engine counters stay
/// available through [`ShardedDb::shards`]).
#[derive(Debug, Default)]
struct ShardedStats {
    batches: AtomicU64,
    cross_shard_batches: AtomicU64,
    fanout_scans: AtomicU64,
    splits: AtomicU64,
    auto_split_failures: AtomicU64,
}

/// Owned snapshot of the sharding layer's counters plus cache accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardedStatsSnapshot {
    /// Number of shards.
    pub num_shards: usize,
    /// Topology epoch (bumped by every split).
    pub epoch: u64,
    /// Batches written through the facade.
    pub batches: u64,
    /// Batches that spanned more than one shard.
    pub cross_shard_batches: u64,
    /// Cross-shard scans that fanned out over more than one shard.
    pub fanout_scans: u64,
    /// Shard splits committed since open.
    pub splits: u64,
    /// Automatic splits that were attempted but failed.
    pub auto_split_failures: u64,
    /// Global block-cache counters (all shards combined), if caching is on.
    pub cache: Option<BlockCacheStats>,
    /// Resident cache bytes per shard (indexed by shard), if caching is on.
    pub per_shard_cache_bytes: Vec<u64>,
    /// Background jobs completed across all shards by the shared scheduler.
    pub bg_jobs_completed: u64,
    /// Background jobs queued or running across all shards.
    pub bg_jobs_pending: u64,
    /// WAL durability counters summed over every shard.
    pub wal: WalStatsSnapshot,
    /// Storage I/O counters summed over every shard.
    pub io: IoStatsSnapshot,
}

impl ShardedStatsSnapshot {
    /// Returns the counters accumulated since `earlier`. All subtractions
    /// saturate at zero, so counter resets (or a topology change between the
    /// snapshots) yield zeros instead of wrapping. Gauges — shard count,
    /// epoch, cache residency, pending jobs — keep this snapshot's values.
    pub fn delta_since(&self, earlier: &ShardedStatsSnapshot) -> ShardedStatsSnapshot {
        ShardedStatsSnapshot {
            num_shards: self.num_shards,
            epoch: self.epoch,
            batches: self.batches.saturating_sub(earlier.batches),
            cross_shard_batches: self
                .cross_shard_batches
                .saturating_sub(earlier.cross_shard_batches),
            fanout_scans: self.fanout_scans.saturating_sub(earlier.fanout_scans),
            splits: self.splits.saturating_sub(earlier.splits),
            auto_split_failures: self
                .auto_split_failures
                .saturating_sub(earlier.auto_split_failures),
            cache: self.cache,
            per_shard_cache_bytes: self.per_shard_cache_bytes.clone(),
            bg_jobs_completed: self
                .bg_jobs_completed
                .saturating_sub(earlier.bg_jobs_completed),
            bg_jobs_pending: self.bg_jobs_pending,
            wal: self.wal.delta_since(&earlier.wal),
            io: self.io.delta_since(&earlier.io),
        }
    }
}

/// A range-sharded database: N engine shards behind one router, with live
/// shard splitting.
///
/// See the crate docs for the architecture. The facade is generic over the
/// engine type: `ShardedDb<LsmDb>` shards the plain key-value engine,
/// `ShardedDb<LaserDb>` the Real-Time LSM-Tree (values are then
/// [`RowFragment`](laser_core::RowFragment)s and reads take a
/// [`Projection`](laser_core::Projection)).
pub struct ShardedDb<E: ShardEngine> {
    // Field order is drop order: the scheduler drains and joins its workers
    // while every shard is still alive, then the fan-out pool, then the
    // topology (and with it the shards themselves).
    scheduler: Option<JobScheduler>,
    pool: WorkerPool,
    /// The current topology. Writers hold this shared for the duration of a
    /// batch; a split holds it exclusively while draining the parent and
    /// swapping the routing table. Scans only pin the inner `Arc`.
    topology: RwLock<Arc<Topology<E>>>,
    provider: Arc<dyn ShardStorageProvider>,
    engine_options: E::Options,
    /// The engines' telemetry label (`"lsm"`, `"laser"`), as the shards'
    /// shells report it.
    engine_label: &'static str,
    cache: Option<Arc<BlockCache>>,
    /// Snapshot barrier: batch writers hold it shared while applying every
    /// per-shard sub-batch; [`ShardedDb::snapshot`] takes it exclusively, so
    /// a snapshot waits out in-flight batches instead of splitting one.
    snapshot_lock: RwLock<()>,
    /// Serialises shard splits (manual and automatic).
    split_lock: Mutex<()>,
    split_policy: Option<SplitPolicy>,
    /// Replication runtime (replica sets, health monitor, failpoints), if
    /// replication was enabled at open. Mutually exclusive with splits.
    replication: Option<Arc<ReplicationState<E>>>,
    stats: ShardedStats,
    /// Shared telemetry hub, set once by [`ShardedDb::attach_telemetry`].
    /// While absent, instrumentation costs one branch per operation.
    telemetry: OnceLock<ShardedTelemetry>,
}

impl<E: ShardEngine> Drop for ShardedDb<E> {
    fn drop(&mut self) {
        // Stop the health monitor and replica apply threads before any field
        // drops: they hold engine Arcs and must not race the scheduler
        // shutdown.
        if let Some(state) = &self.replication {
            state.shutdown();
        }
    }
}

impl<E: ShardEngine> std::fmt::Debug for ShardedDb<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDb")
            .field("engine", &self.engine_label)
            .field("num_shards", &self.num_shards())
            .finish()
    }
}

impl<E: ShardEngine> ShardedDb<E> {
    /// Opens (or reopens) a sharded database on `provider`, creating its own
    /// process-wide block cache per `options.cache_bytes`.
    pub fn open(
        provider: Arc<dyn ShardStorageProvider>,
        engine_options: E::Options,
        options: ShardedOptions,
    ) -> Result<Self> {
        let cache = if options.cache_bytes > 0 {
            Some(BlockCache::new(options.cache_bytes))
        } else {
            None
        };
        Self::open_with_cache(provider, engine_options, options, cache)
    }

    /// Opens (or reopens) a sharded database serving block reads through an
    /// externally-owned cache, so several sharded databases — even of
    /// different engine types — can share one memory budget.
    /// `options.cache_bytes` is ignored when a cache is given.
    pub fn open_with_cache(
        provider: Arc<dyn ShardStorageProvider>,
        engine_options: E::Options,
        options: ShardedOptions,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<Self> {
        let root = provider.root()?;

        // Resolve a split interrupted by a crash. The committed SHARDS
        // manifest is the arbiter: children present there ⇒ roll forward
        // (finish the cleanup), otherwise ⇒ roll back (discard the
        // half-prepared children).
        if let Some(intent) = read_split_intent(&root)? {
            let manifest = read_shard_manifest(&root)?;
            let committed = manifest.as_ref().is_some_and(|m| {
                m.slots.contains(&intent.left_slot) && m.slots.contains(&intent.right_slot)
            });
            if committed {
                provider.clear_shard(intent.parent_slot as usize)?;
            } else {
                provider.clear_shard(intent.left_slot as usize)?;
                provider.clear_shard(intent.right_slot as usize)?;
            }
            remove_split_intent(&root)?;
        }

        // Resolve a promotion interrupted by a crash, by the same rule: if
        // the committed SHARDS manifest already lists the promoted replica's
        // slot, the promotion happened — finish the cleanup by clearing the
        // old leader's slot. Otherwise the old leader is still the leader
        // and the intent is simply discarded (the replica's data stays and
        // is caught up like any other replica).
        if let Some(intent) = read_promotion_intent(&root)? {
            let manifest = read_shard_manifest(&root)?;
            let committed = manifest
                .as_ref()
                .is_some_and(|m| m.slots.contains(&intent.replica_slot));
            if committed {
                provider.clear_shard(intent.leader_slot as usize)?;
            }
            remove_promotion_intent(&root)?;
        }

        // The persisted topology wins over the requested one: shard data
        // cannot be re-split by merely asking for a different count.
        let manifest = match read_shard_manifest(&root)? {
            Some(manifest) => manifest,
            None => {
                let router = match &options.boundaries {
                    Some(boundaries) => ShardRouter::from_boundaries(boundaries.clone())?,
                    None => ShardRouter::uniform(options.num_shards),
                };
                let manifest = ShardManifest::from_router(&router);
                write_shard_manifest(&root, &manifest)?;
                manifest
            }
        };
        let router = manifest.router()?;
        let num_shards = router.num_shards();

        let mut shards = Vec::with_capacity(num_shards);
        for (index, &slot) in manifest.slots.iter().enumerate() {
            let (scope, scoped) = match cache.as_ref() {
                Some(c) => {
                    let scope = c.add_scope();
                    (Some(scope), Some(ScopedCache::new(Arc::clone(c), scope)))
                }
                None => (None, None),
            };
            let storage = provider.shard(slot as usize)?;
            let engine = Arc::new(E::open_shard(storage, &engine_options, scoped)?);
            let (lo, hi) = router.shard_range(index);
            engine.set_key_bound(lo, hi);
            shards.push(Arc::new(Shard {
                engine,
                slot,
                cache_scope: scope,
                ingested_bytes: AtomicU64::new(0),
                profiler: OnceLock::new(),
            }));
        }

        let scheduler = if options.maintenance_workers > 0 {
            let scheduler = JobScheduler::start_pool(options.maintenance_workers);
            for shard in &shards {
                register_shard_engine(&scheduler, &**shard.engine)?;
            }
            Some(scheduler)
        } else {
            None
        };
        // Bring up replication: bootstrap (or re-attach) every shard's
        // replicas, pull back any quorum-acknowledged writes that survived
        // only on a replica, and start the health monitor.
        let replication = match &options.replication {
            Some(config) => {
                let state = Arc::new(ReplicationState::<E>::new(config.clone()));
                let failpoint = state.failpoint();
                for (index, shard) in shards.iter().enumerate() {
                    let (lo, hi) = router.shard_range(index);
                    let mut replicas = Vec::with_capacity(config.replication_factor);
                    for r in 0..config.replication_factor {
                        let replica = bootstrap_replica(
                            &provider,
                            &shard.engine,
                            shard.slot,
                            replica_slot(shard.slot, r),
                            &engine_options,
                            (lo, hi),
                            failpoint,
                        )?;
                        if let Some(scheduler) = &scheduler {
                            register_shard_engine(scheduler, &**replica.engine)?;
                        }
                        replicas.push(replica);
                    }
                    // A replica ahead of the leader holds quorum-acked
                    // writes the leader's WAL lost (e.g. interval fsync):
                    // pull them back before serving traffic.
                    let leader_seq = shard.engine.last_seq();
                    if let Some(best) = replicas
                        .iter()
                        .max_by_key(|r| r.shared.applied().0)
                        .filter(|r| r.shared.applied().0 > leader_seq)
                    {
                        reconcile_from(best.engine.as_ref(), shard.engine.as_ref())?;
                    }
                    let set = Arc::new(ReplicaSet::new(
                        Arc::clone(&shard.engine),
                        shard.slot,
                        replicas,
                    ));
                    // Heal any replica the reconciliation left behind.
                    let leader_seq = shard.engine.last_seq();
                    for replica in set.replicas() {
                        if replica.shared.applied().0 < leader_seq {
                            reship_tail(set.as_ref(), replica.as_ref())?;
                        }
                    }
                    state.sets.write().push(set);
                }
                // Hand the monitor everything it needs to rebuild a lost
                // replica on its own thread (the routed ranges are frozen:
                // splits are disabled under replication).
                let _ = state.reprovision.set(ReprovisionContext {
                    provider: Arc::clone(&provider),
                    options: engine_options.clone(),
                    shard_ranges: (0..num_shards).map(|i| router.shard_range(i)).collect(),
                    scheduler: scheduler.as_ref().map(|s| s.client()),
                });
                let monitor = crate::replication::health::spawn_monitor(Arc::clone(&state));
                *state.monitor.lock() = Some(monitor);
                Some(state)
            }
            None => None,
        };

        let fanout_threads = if options.fanout_threads > 0 {
            options.fanout_threads
        } else {
            num_shards.min(8)
        };
        Ok(ShardedDb {
            engine_label: shards[0].engine.config().label,
            scheduler,
            pool: WorkerPool::new(fanout_threads, "shard-fanout"),
            topology: RwLock::new(Arc::new(Topology {
                epoch: 0,
                router,
                shards,
                next_slot: manifest.next_slot,
            })),
            provider,
            engine_options,
            cache,
            snapshot_lock: RwLock::new(()),
            split_lock: Mutex::new(()),
            split_policy: options.split_policy,
            replication,
            stats: ShardedStats::default(),
            telemetry: OnceLock::new(),
        })
    }

    /// Registers the whole stack with a shared telemetry hub: a facade-level
    /// batch-commit histogram and topology gauges, plus every current shard
    /// (labelled by its storage slot). Shards created by later splits attach
    /// automatically; each split is also recorded in the hub's event log.
    /// Idempotent — a second attach keeps the first registration.
    pub fn attach_telemetry(&self, hub: &Arc<Telemetry>) {
        let engine = self.engine_label;
        let _ = self.telemetry.set(ShardedTelemetry {
            hub: Arc::clone(hub),
            batch_commit_ns: hub.registry().histogram(
                "laser_sharded_batch_commit_latency_ns",
                &[("engine", engine)],
            ),
            shards_gauge: hub.registry().gauge("laser_shards", &[("engine", engine)]),
            cache_bytes_gauge: hub
                .registry()
                .gauge("laser_cache_resident_bytes", &[("engine", engine)]),
            bg_pending_gauge: hub
                .registry()
                .gauge("laser_bg_jobs_pending", &[("engine", engine)]),
            cache_hits_gauge: hub
                .registry()
                .gauge("laser_cache_hits", &[("engine", engine)]),
            cache_misses_gauge: hub
                .registry()
                .gauge("laser_cache_misses", &[("engine", engine)]),
            cache_hit_rate_bp_gauge: hub
                .registry()
                .gauge("laser_cache_hit_rate_basis_points", &[("engine", engine)]),
            cache_export: Mutex::new(HashMap::new()),
        });
        let hub = &self.telemetry.get().expect("just set").hub;
        for shard in &self.current().shards {
            shard.engine.attach_telemetry(hub, &shard.slot.to_string());
            shard
                .profiler
                .get_or_init(|| hub.register_profiler(&shard.slot.to_string()));
        }
        if let Some(replication) = &self.replication {
            let _ = replication.telemetry.set(Arc::clone(hub));
            for set in replication.sets.read().iter() {
                for replica in set.replicas() {
                    replica
                        .engine
                        .attach_telemetry(hub, &replica.slot.to_string());
                }
            }
        }
        self.refresh_gauges();
    }

    /// Refreshes point-in-time gauges from the live topology so exports
    /// never show stale values.
    fn refresh_gauges(&self) {
        let Some(telemetry) = self.telemetry.get() else {
            return;
        };
        let stats = self.stats();
        telemetry.shards_gauge.set(stats.num_shards as u64);
        telemetry
            .cache_bytes_gauge
            .set(stats.per_shard_cache_bytes.iter().sum());
        telemetry.bg_pending_gauge.set(stats.bg_jobs_pending);
        if let Some(cache) = &self.cache {
            let cache_stats = cache.stats();
            telemetry.cache_hits_gauge.set(cache_stats.hits);
            telemetry.cache_misses_gauge.set(cache_stats.misses);
            telemetry
                .cache_hit_rate_bp_gauge
                .set((cache_stats.hit_rate() * 10_000.0) as u64);
            // Per-shard residency gauges are registered lazily: the shard set
            // changes with every split, and re-registering the same labels
            // resumes the existing series.
            for shard in &self.current().shards {
                if let Some(scope) = shard.cache_scope {
                    telemetry
                        .hub
                        .registry()
                        .gauge(
                            "laser_cache_shard_resident_bytes",
                            &[
                                ("engine", self.engine_label),
                                ("shard", &shard.slot.to_string()),
                            ],
                        )
                        .set(cache.scope_used_bytes(scope));
                }
            }
        }
        self.refresh_amplification(telemetry);
    }

    /// Refreshes the cost-model-facing per-shard metrics: amplification and
    /// per-level shape gauges, per-scope cache counters, model residuals,
    /// and the advisor profilers' level mixes. Everything is registered
    /// lazily per shard — the shard set changes with every split, and
    /// re-registering the same labels resumes the existing series.
    fn refresh_amplification(&self, telemetry: &ShardedTelemetry) {
        let registry = telemetry.hub.registry();
        let engine = self.engine_label;
        for shard in &self.current().shards {
            let label = shard.slot.to_string();
            let labels = [("engine", engine), ("shard", label.as_str())];
            let shape = shard.engine.tree_shape();
            for level in &shape.levels {
                let level_label = level.level.to_string();
                let level_labels = [
                    ("engine", engine),
                    ("shard", label.as_str()),
                    ("level", level_label.as_str()),
                ];
                registry
                    .gauge("laser_level_files", &level_labels)
                    .set(level.files);
                registry
                    .gauge("laser_level_bytes", &level_labels)
                    .set(level.bytes);
                registry
                    .gauge("laser_level_column_groups", &level_labels)
                    .set(level.column_groups as u64);
                registry
                    .gauge("laser_level_overlap_next_bytes", &level_labels)
                    .set(level.overlap_next_bytes);
                registry
                    .gauge("laser_level_debt_bytes", &level_labels)
                    .set(level.debt_bytes);
            }
            let (write_amp, _, _) = measured_write_amp(shard.engine.as_ref());
            registry
                .float_gauge("laser_write_amp", &labels)
                .set(write_amp);
            registry
                .float_gauge("laser_read_amp", &labels)
                .set(shape.read_amp());
            registry
                .float_gauge("laser_space_amp", &labels)
                .set(shape.space_amp());
            let (predicted_write, predicted_space) = shard.engine.shard_predicted_amps();
            registry
                .float_gauge(
                    "laser_amp_residual",
                    &[
                        ("engine", engine),
                        ("shard", label.as_str()),
                        ("kind", "write"),
                    ],
                )
                .set(write_amp - predicted_write);
            registry
                .float_gauge(
                    "laser_amp_residual",
                    &[
                        ("engine", engine),
                        ("shard", label.as_str()),
                        ("kind", "space"),
                    ],
                )
                .set(shape.space_amp() - predicted_space);
            if let (Some(cache), Some(scope)) = (&self.cache, shard.cache_scope) {
                let (hits, misses) = cache.scope_hit_miss(scope);
                let mut exported = telemetry.cache_export.lock();
                let last = exported.entry(shard.slot).or_insert((0, 0));
                registry
                    .counter("laser_cache_shard_hits_total", &labels)
                    .add(hits.saturating_sub(last.0));
                registry
                    .counter("laser_cache_shard_misses_total", &labels)
                    .add(misses.saturating_sub(last.1));
                *last = (hits, misses);
            }
            if let Some(profiler) = shard.profiler.get() {
                profiler.set_level_mix(
                    shard.engine.shard_tree_params(),
                    shard.engine.shard_workload_levels(),
                );
            }
        }
    }

    /// The attached telemetry hub, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.get().map(|t| &t.hub)
    }

    /// Prometheus-style text exposition of every registered metric, with
    /// topology gauges refreshed first. `None` until telemetry is attached.
    pub fn prometheus_text(&self) -> Option<String> {
        self.refresh_gauges();
        self.telemetry.get().map(|t| t.hub.prometheus_text())
    }

    /// JSON snapshot of all metrics plus the recent maintenance events.
    /// `None` until telemetry is attached.
    pub fn telemetry_json(&self) -> Option<String> {
        self.refresh_gauges();
        self.telemetry.get().map(|t| t.hub.json_snapshot())
    }

    /// The most recent maintenance events (oldest first), across every
    /// shard. Empty until telemetry is attached.
    pub fn recent_events(&self) -> Vec<Event> {
        self.telemetry
            .get()
            .map(|t| t.hub.recent_events())
            .unwrap_or_default()
    }

    /// Pins the current topology (readers run lock-free against it).
    fn current(&self) -> Arc<Topology<E>> {
        Arc::clone(&self.topology.read())
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.current().shards.len()
    }

    /// The current router mapping keys to shards.
    pub fn router(&self) -> ShardRouter {
        self.current().router.clone()
    }

    /// The current shard engines (indexed by shard), for per-shard
    /// introspection.
    pub fn shards(&self) -> Vec<Arc<E>> {
        self.current()
            .shards
            .iter()
            .map(|s| Arc::clone(&s.engine))
            .collect()
    }

    /// The process-wide block cache, if one is configured.
    pub fn cache(&self) -> Option<&Arc<BlockCache>> {
        self.cache.as_ref()
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Applies a write batch. Entries are routed to their owning shards;
    /// a batch spanning several shards is split into per-shard sub-batches
    /// applied in parallel, and the call returns — one group-commit-style
    /// acknowledgement — only after **every** sub-batch is durable per the
    /// engines' WAL policy. Atomicity is per shard; cross-shard visibility
    /// is atomic with respect to [`ShardedDb::snapshot`], and the whole
    /// batch lands on one topology (a concurrent shard split waits it out).
    pub fn write(&self, batch: &WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let batches = self.stats.batches.fetch_add(1, Ordering::Relaxed) + 1;
        let telemetry = self.telemetry.get();
        let commit_start = telemetry.map(|_| Instant::now());
        let op = telemetry.map(|t| OpTrace::begin(&t.hub, TraceKind::Commit));
        let traced = matches!(op, Some(OpTrace::Sampled { .. }));
        let write_result: Result<()> = (|| {
            // Hold the topology shared for the whole batch: a split (which
            // takes it exclusively) can never retire a shard under an
            // in-flight write or observe half of one.
            let topology = self.topology.read();
            let topology = &**topology;
            // Fast path for the dominant case — every entry owned by one
            // shard (all point ops, and any batch with key locality): route,
            // take the snapshot barrier, hand the caller's batch straight
            // through with no clone or per-shard allocation.
            let mut entries = batch.iter();
            let first = entries.next().expect("non-empty");
            let first_shard = topology.router.shard_of(first.user_key);
            if entries.all(|e| topology.router.shard_of(e.user_key) == first_shard) {
                if traced {
                    trace::annotate("shard", first_shard as u64);
                }
                let shard = &topology.shards[first_shard];
                shard
                    .ingested_bytes
                    .fetch_add(batch_bytes(batch), Ordering::Relaxed);
                if let Some(profiler) = shard.profiler.get() {
                    for entry in batch.iter() {
                        profiler.record_write(entry.user_key);
                    }
                }
                // Shared lock: a concurrent snapshot waits until every
                // sub-batch of this write landed (or none), never observing
                // half of it.
                let _batch_guard = self.snapshot_lock.read();
                match self.replica_set(first_shard) {
                    Some((state, set)) => {
                        let mut replicate_span = if traced {
                            trace::span("replicate")
                        } else {
                            None
                        };
                        let end = set.write_through(batch, &state.config, state.failpoint())?;
                        if let Some(span) = replicate_span.as_mut() {
                            span.annotate("seq", end);
                        }
                    }
                    None => shard.engine.write(batch)?,
                }
            } else {
                let mut per_shard: Vec<Option<WriteBatch>> = vec![None; topology.shards.len()];
                for entry in batch.iter() {
                    let shard = topology.router.shard_of(entry.user_key);
                    per_shard[shard]
                        .get_or_insert_with(WriteBatch::new)
                        .push(entry.clone());
                }
                self.stats
                    .cross_shard_batches
                    .fetch_add(1, Ordering::Relaxed);
                // Fan-out legs run on pool threads: a sampled trace follows
                // them as child spans of the root; an op this layer owns but
                // did not sample is suppressed there too, so engines never
                // start their own roots for sub-batches.
                let leg_ctx: Option<TraceContext> = op.as_ref().and_then(|o| o.context());
                let owned = telemetry.is_some();
                let tasks: Vec<_> = per_shard
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(shard, sub)| sub.take().map(|sub| (shard, sub)))
                    .map(|(index, sub)| {
                        let shard = &topology.shards[index];
                        shard
                            .ingested_bytes
                            .fetch_add(batch_bytes(&sub), Ordering::Relaxed);
                        if let Some(profiler) = shard.profiler.get() {
                            for entry in sub.iter() {
                                profiler.record_write(entry.user_key);
                            }
                        }
                        let engine = Arc::clone(&shard.engine);
                        let replication = self
                            .replica_set(index)
                            .map(|(state, set)| (Arc::clone(state), set));
                        let ctx = leg_ctx.clone();
                        move || {
                            let _attach = match &ctx {
                                Some(ctx) => Some(ctx.attach_child_of(ROOT_SPAN_ID)),
                                None if owned => Some(trace::suppress()),
                                None => None,
                            };
                            let mut leg_span = if ctx.is_some() {
                                trace::span("sub_batch")
                            } else {
                                None
                            };
                            if let Some(span) = leg_span.as_mut() {
                                span.annotate("shard", index as u64);
                                span.annotate("entries", sub.len() as u64);
                            }
                            match &replication {
                                Some((state, set)) => set
                                    .write_through(&sub, &state.config, state.failpoint())
                                    .map(|_| ()),
                                None => engine.write(&sub),
                            }
                        }
                    })
                    .collect();
                if traced {
                    trace::annotate("fanout", tasks.len() as u64);
                }
                let _batch_guard = self.snapshot_lock.read();
                let results = self.pool.run_all(tasks);
                results.into_iter().collect::<Result<Vec<()>>>()?;
            }
            Ok(())
        })();
        if let (Some(telemetry), Some(start), Some(op)) = (telemetry, commit_start, op) {
            let elapsed = start.elapsed();
            telemetry.batch_commit_ns.record(elapsed.as_nanos() as u64);
            op.end(
                &telemetry.hub,
                TraceKind::Commit,
                elapsed,
                &[("entries", batch.len() as u64)],
            );
        }
        if let Err(err) = write_result {
            // Automatic failover: a leader whose WAL fail-stopped mid-batch
            // takes itself out of the group — promote its best replica and
            // retry the batch once against the new leader. Bounded: every
            // retry consumes one replica of a failed shard, and promotion
            // only succeeds while a live replica remains.
            if self.promote_unhealthy_leaders() {
                return self.write(batch);
            }
            return Err(err);
        }
        self.maybe_auto_split(batches);
        Ok(())
    }

    /// The replication state and the replica set of the shard at `index`,
    /// when replication is enabled.
    fn replica_set(&self, index: usize) -> Option<ShardReplication<'_, E>> {
        let state = self.replication.as_ref()?;
        let set = state.set(index)?;
        Some((state, set))
    }

    /// Promotes the best replica of every shard whose leader reports
    /// unhealthy (its WAL fail-stopped). Returns whether any promotion
    /// succeeded — the caller then retries against the new leaders.
    fn promote_unhealthy_leaders(&self) -> bool {
        let Some(state) = &self.replication else {
            return false;
        };
        if !state.config.auto_failover {
            return false;
        }
        let topology = self.current();
        let mut promoted = false;
        for (index, shard) in topology.shards.iter().enumerate() {
            if !shard.engine.is_healthy() && self.promote_shard(index).is_ok() {
                promoted = true;
            }
        }
        promoted
    }

    /// Inserts a single key/value pair (the payload must be whatever the
    /// engine expects — an opaque blob for `LsmDb`, an encoded complete
    /// [`RowFragment`](laser_core::RowFragment) for `LaserDb`).
    pub fn put(&self, key: UserKey, value: Vec<u8>) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.write(&batch)
    }

    /// Deletes a key (writes a tombstone on the owning shard).
    pub fn delete(&self, key: UserKey) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.write(&batch)
    }

    // ------------------------------------------------------------------
    // Snapshots and reads
    // ------------------------------------------------------------------

    /// Captures a consistent cross-shard snapshot: the per-shard sequence
    /// horizon, taken while no batch write is in flight. Scans and reads at
    /// this snapshot see every batch acknowledged before the capture and
    /// nothing written after it — in particular, never half of a cross-shard
    /// batch. The snapshot is pinned to the current topology epoch and is
    /// invalidated by a shard split.
    pub fn snapshot(&self) -> ShardSnapshot {
        let topology = self.current();
        self.snapshot_of(&topology)
    }

    fn snapshot_of(&self, topology: &Topology<E>) -> ShardSnapshot {
        let _barrier = self.snapshot_lock.write();
        ShardSnapshot {
            epoch: topology.epoch,
            seqs: topology
                .shards
                .iter()
                .map(|s| s.engine.last_seq())
                .collect(),
        }
    }

    /// The pinned topology matching `snapshot`, or an error if a split has
    /// retired it since the snapshot was captured.
    fn topology_at(&self, snapshot: &ShardSnapshot) -> Result<Arc<Topology<E>>> {
        let topology = self.current();
        if topology.epoch != snapshot.epoch || snapshot.seqs.len() != topology.shards.len() {
            return Err(Error::invalid(
                "snapshot from a different shard topology (a shard was split since)",
            ));
        }
        Ok(topology)
    }

    /// Point lookup of the newest visible value.
    pub fn get(&self, key: UserKey, ctx: &E::ReadCtx) -> Result<Option<E::Value>> {
        let topology = self.current();
        self.get_on(&topology, key, ctx, MAX_SEQNO)
    }

    /// Point lookup at a snapshot.
    pub fn get_at(
        &self,
        key: UserKey,
        ctx: &E::ReadCtx,
        snapshot: &ShardSnapshot,
    ) -> Result<Option<E::Value>> {
        let topology = self.topology_at(snapshot)?;
        let shard = topology.router.shard_of(key);
        self.get_on(&topology, key, ctx, snapshot.seqs[shard])
    }

    fn get_on(
        &self,
        topology: &Topology<E>,
        key: UserKey,
        ctx: &E::ReadCtx,
        seq: SeqNo,
    ) -> Result<Option<E::Value>> {
        let telemetry = self.telemetry.get();
        let start = telemetry.map(|_| Instant::now());
        let op = telemetry.map(|t| OpTrace::begin(&t.hub, TraceKind::Get));
        let traced = matches!(op, Some(OpTrace::Sampled { .. }));
        let shard = {
            let mut route_span = if traced { trace::span("route") } else { None };
            let shard = topology.router.shard_of(key);
            if let Some(span) = route_span.as_mut() {
                span.annotate("shard", shard as u64);
            }
            shard
        };
        if let Some(profiler) = topology.shards[shard].profiler.get() {
            profiler.record_read(key);
            if let Some(columns) = E::read_ctx_columns(ctx) {
                profiler.record_projection(&columns);
            }
        }
        let result = self
            .read_engine(topology, shard, seq)
            .shard_get_at(key, ctx, seq);
        if let (Some(telemetry), Some(start), Some(op)) = (telemetry, start, op) {
            op.end(
                &telemetry.hub,
                TraceKind::Get,
                start.elapsed(),
                &[("key", key)],
            );
        }
        result
    }

    /// Cross-shard range scan of the newest visible versions in `[lo, hi]`.
    /// Captures a snapshot internally so the result is consistent across
    /// shards even under concurrent writes, and runs entirely against one
    /// pinned topology — a concurrent shard split neither blocks the scan
    /// nor changes its result.
    pub fn scan(
        &self,
        lo: UserKey,
        hi: UserKey,
        ctx: &E::ReadCtx,
    ) -> Result<Vec<(UserKey, E::Value)>> {
        // Re-check the epoch after capturing the seq horizon: a split
        // committing between pinning the topology and the capture would
        // otherwise leave the scan reading the retired (frozen) parent
        // engines with a horizon that already includes post-split writes
        // landed in surviving shards — observed as a torn batch.
        let (topology, snapshot) = loop {
            let topology = self.current();
            let snapshot = self.snapshot_of(&topology);
            if self.current().epoch == topology.epoch {
                break (topology, snapshot);
            }
        };
        self.scan_on(&topology, lo, hi, ctx, &snapshot)
    }

    /// Cross-shard range scan at a snapshot (which must be from the current
    /// topology epoch). The per-shard scans run in parallel on the fan-out
    /// pool; shards own disjoint contiguous ranges, so concatenating the
    /// results in shard order yields global key order with no merge heap.
    pub fn scan_at(
        &self,
        lo: UserKey,
        hi: UserKey,
        ctx: &E::ReadCtx,
        snapshot: &ShardSnapshot,
    ) -> Result<Vec<(UserKey, E::Value)>> {
        let topology = self.topology_at(snapshot)?;
        self.scan_on(&topology, lo, hi, ctx, snapshot)
    }

    fn scan_on(
        &self,
        topology: &Topology<E>,
        lo: UserKey,
        hi: UserKey,
        ctx: &E::ReadCtx,
        snapshot: &ShardSnapshot,
    ) -> Result<Vec<(UserKey, E::Value)>> {
        if lo > hi {
            return Ok(Vec::new());
        }
        let telemetry = self.telemetry.get();
        let start = telemetry.map(|_| Instant::now());
        let op = telemetry.map(|t| OpTrace::begin(&t.hub, TraceKind::Scan));
        let result = self.scan_on_inner(topology, lo, hi, ctx, snapshot, &op);
        if let (Some(telemetry), Some(start), Some(op)) = (telemetry, start, op) {
            let rows = result.as_ref().map_or(0, |r| r.len() as u64);
            op.end(
                &telemetry.hub,
                TraceKind::Scan,
                start.elapsed(),
                &[("rows", rows)],
            );
        }
        result
    }

    fn scan_on_inner(
        &self,
        topology: &Topology<E>,
        lo: UserKey,
        hi: UserKey,
        ctx: &E::ReadCtx,
        snapshot: &ShardSnapshot,
        op: &Option<OpTrace>,
    ) -> Result<Vec<(UserKey, E::Value)>> {
        let traced = matches!(op, Some(OpTrace::Sampled { .. }));
        let shard_range = topology.router.shards_overlapping(lo, hi);
        if shard_range.start() == shard_range.end() {
            let shard = *shard_range.start();
            if traced {
                trace::annotate("shard", shard as u64);
            }
            if let Some(profiler) = topology.shards[shard].profiler.get() {
                profiler.record_scan(lo, hi);
                if let Some(columns) = E::read_ctx_columns(ctx) {
                    profiler.record_projection(&columns);
                }
            }
            return self
                .read_engine(topology, shard, snapshot.seqs[shard])
                .shard_scan_at(lo, hi, ctx, snapshot.seqs[shard]);
        }
        self.stats.fanout_scans.fetch_add(1, Ordering::Relaxed);
        let leg_ctx: Option<TraceContext> = op.as_ref().and_then(|o| o.context());
        let owned = self.telemetry.get().is_some();
        let tasks: Vec<_> = shard_range
            .map(|shard| {
                let engine = self.read_engine(topology, shard, snapshot.seqs[shard]);
                let (shard_lo, shard_hi) = topology.router.shard_range(shard);
                let (clamped_lo, clamped_hi) = (lo.max(shard_lo), hi.min(shard_hi));
                if let Some(profiler) = topology.shards[shard].profiler.get() {
                    profiler.record_scan(clamped_lo, clamped_hi);
                    if let Some(columns) = E::read_ctx_columns(ctx) {
                        profiler.record_projection(&columns);
                    }
                }
                let seq = snapshot.seqs[shard];
                let ctx = ctx.clone();
                let trace_ctx = leg_ctx.clone();
                move || {
                    let _attach = match &trace_ctx {
                        Some(trace_ctx) => Some(trace_ctx.attach_child_of(ROOT_SPAN_ID)),
                        None if owned => Some(trace::suppress()),
                        None => None,
                    };
                    let mut leg_span = if trace_ctx.is_some() {
                        trace::span("scan_leg")
                    } else {
                        None
                    };
                    if let Some(span) = leg_span.as_mut() {
                        span.annotate("shard", shard as u64);
                    }
                    engine.shard_scan_at(clamped_lo, clamped_hi, &ctx, seq)
                }
            })
            .collect();
        if traced {
            trace::annotate("fanout", tasks.len() as u64);
        }
        let mut out = Vec::new();
        for rows in self.pool.run_all(tasks) {
            out.extend(rows?);
        }
        Ok(out)
    }

    /// The engine a read of shard `index` at `seq` should use: the leader,
    /// unless replica reads are enabled and a streaming replica has applied
    /// past the required horizon — the snapshot's sequence for snapshot
    /// reads (byte-identical results by construction), or the leader's
    /// current horizon minus the configured freshness bound for latest
    /// reads.
    fn read_engine(&self, topology: &Topology<E>, index: usize, seq: SeqNo) -> Arc<E> {
        let leader = Arc::clone(&topology.shards[index].engine);
        let Some(state) = &self.replication else {
            return leader;
        };
        if !state.config.replica_reads {
            return leader;
        }
        let Some(set) = state.set(index) else {
            return leader;
        };
        let needed = if seq == MAX_SEQNO {
            leader
                .last_seq()
                .saturating_sub(state.config.freshness_bound_seqs)
        } else {
            seq
        };
        for replica in set.replicas() {
            let (applied, replica_state) = replica.shared.applied();
            if replica_state == ReplicaState::Streaming && applied >= needed {
                return Arc::clone(&replica.engine);
            }
        }
        leader
    }

    // ------------------------------------------------------------------
    // Replication: promotion, failover and introspection
    // ------------------------------------------------------------------

    /// Point-in-time replication status of every shard, indexed by shard.
    /// Empty when replication is off.
    pub fn replication_status(&self) -> Vec<ShardReplicationStatus> {
        self.replication
            .as_ref()
            .map(|state| state.sets.read().iter().map(|s| s.status()).collect())
            .unwrap_or_default()
    }

    /// Sets (or clears) the replication fault-injection point. No-op when
    /// replication is off. Test hook for the failover harness.
    pub fn set_replication_failpoint(&self, failpoint: Option<ReplicationFailpoint>) {
        if let Some(state) = &self.replication {
            *state.failpoint.lock() = failpoint;
        }
    }

    /// Replicas the health monitor has re-provisioned since open (0 when
    /// replication is off).
    pub fn replication_reprovisions(&self) -> u64 {
        self.replication
            .as_ref()
            .map_or(0, |s| s.reprovisions.load(Ordering::Relaxed))
    }

    /// Promotes the most caught-up live replica of shard `index` to leader,
    /// with the same crash-safe two-phase shape as a shard split: a durable
    /// `SHARDS.promote` intent, then the `SHARDS` manifest rename as the
    /// single commit point (the slot table swaps the leader's slot for the
    /// replica's), then cleanup of the old leader's slot. A crash anywhere
    /// is resolved on the next open — torn intent ignored, pre-commit rolled
    /// back, post-commit rolled forward.
    ///
    /// Called automatically from the write path when a leader's WAL
    /// fail-stops (see [`ReplicationConfig::auto_failover`]); callable
    /// manually for orchestrated switchovers. The demoted leader's replica
    /// slots are left behind until the next open re-seeds the group from the
    /// new leader.
    pub fn promote_shard(&self, index: usize) -> Result<()> {
        let _guard = self.split_lock.lock();
        let state = self
            .replication
            .as_ref()
            .ok_or_else(|| Error::invalid("replication is not enabled"))?;
        let failpoint = state.failpoint();
        let set = state
            .set(index)
            .ok_or_else(|| Error::invalid(format!("no replica set for shard {index}")))?;
        let promote_start = Instant::now();

        // Exclusive topology access: waits out in-flight batches (whose
        // quorum waits are bounded by the ack timeout), blocks new ones.
        let mut topology_slot = self.topology.write();
        let topology = Arc::clone(&topology_slot);
        let old = Arc::clone(
            topology
                .shards
                .get(index)
                .ok_or_else(|| Error::invalid(format!("no shard {index}")))?,
        );

        // Pick the most caught-up live replica and finalise its horizon by
        // draining and stopping its apply thread (no writer can race this —
        // the topology is held exclusively).
        let best = set
            .replicas()
            .into_iter()
            .filter(|r| r.shared.applied().1 != ReplicaState::Lost)
            .max_by_key(|r| r.shared.applied().0)
            .ok_or_else(|| {
                Error::not_found(format!("shard {index} has no live replica to promote"))
            })?;
        best.stop();

        // Best effort: pull anything the old leader still holds beyond the
        // replica's horizon (a manual switchover loses nothing; a
        // fail-stopped leader may refuse, which quorum acks cover).
        let _ = reconcile_from(old.engine.as_ref(), best.engine.as_ref());

        let root = self.provider.root()?;
        let intent = PromotionIntent {
            shard_index: index as u64,
            leader_slot: old.slot,
            replica_slot: best.slot,
        };
        if failpoint == Some(ReplicationFailpoint::MidPromotionIntent) {
            write_torn_promotion_intent(&root, &intent)?;
            return Err(Error::StorageFault(
                "injected failpoint: crash mid promotion intent".to_string(),
            ));
        }
        write_promotion_intent(&root, &intent)?;

        // The commit point: the slot table now names the replica's slot.
        let mut new_manifest = topology.manifest();
        new_manifest.slots[index] = best.slot;
        write_shard_manifest(&root, &new_manifest)?;

        // Swap the in-memory topology and release writers onto the new
        // leader. The epoch bump invalidates pre-promotion snapshots (a
        // lagging new leader could not serve their horizons).
        let profiler = OnceLock::new();
        if let Some(telemetry) = self.telemetry.get() {
            let _ = profiler.set(telemetry.hub.register_profiler(&best.slot.to_string()));
        }
        let mut new_shards = topology.shards.clone();
        new_shards[index] = Arc::new(Shard {
            engine: Arc::clone(&best.engine),
            slot: best.slot,
            cache_scope: None,
            ingested_bytes: AtomicU64::new(old.ingested_bytes.load(Ordering::Relaxed)),
            profiler,
        });
        *topology_slot = Arc::new(Topology {
            epoch: topology.epoch + 1,
            router: topology.router.clone(),
            shards: new_shards,
            next_slot: topology.next_slot,
        });
        drop(topology_slot);

        // Re-target the survivors onto the new leader and heal their gaps.
        set.promote(best.slot);
        for replica in set.replicas() {
            let _ = reship_tail(set.as_ref(), replica.as_ref());
        }
        if let Some(telemetry) = self.telemetry.get() {
            telemetry.hub.remove_profiler(&old.slot.to_string());
            record_replication_event(
                Some(&telemetry.hub),
                EventKind::Promotion,
                old.slot,
                promote_start.elapsed(),
                0,
                1,
            );
        }

        if failpoint == Some(ReplicationFailpoint::PostPromotionPreCleanup) {
            return Err(Error::StorageFault(
                "injected failpoint: crash after promotion commit before cleanup".to_string(),
            ));
        }

        // Cleanup (crash-tolerant: the next open rolls this forward).
        self.provider.clear_shard(old.slot as usize)?;
        remove_promotion_intent(&root)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Online shard splitting
    // ------------------------------------------------------------------

    /// Splits shard `shard` at `split_key`, live: the left child keeps
    /// `[lo, split_key)`, the right child `[split_key, hi]`. In-flight
    /// batches are waited out, the parent's memtable is drained to SSTs, the
    /// SSTs are adopted into the two child slots *by reference* (hard link /
    /// shared buffer — no data rewrite), the `SHARDS` manifest is swapped
    /// with a crash-safe intent + commit pair, and the router is replaced
    /// atomically. Out-of-range leftovers inside adopted SSTs are dropped
    /// afterwards by background trim compactions.
    ///
    /// Concurrent scans keep running against the pre-split topology they
    /// pinned; snapshots captured before the split are invalidated.
    pub fn split_shard(&self, shard: usize, split_key: UserKey) -> Result<()> {
        let guard = self.split_lock.lock();
        self.split_locked(&guard, shard, split_key, None, true)
    }

    /// [`ShardedDb::split_shard`] with a simulated crash at `failpoint`
    /// (crash-safety tests; the returned error reports the simulated crash).
    pub fn split_shard_with_failpoint(
        &self,
        shard: usize,
        split_key: UserKey,
        failpoint: SplitFailpoint,
    ) -> Result<()> {
        let guard = self.split_lock.lock();
        self.split_locked(&guard, shard, split_key, Some(failpoint), true)
    }

    fn split_locked(
        &self,
        _split_guard: &parking_lot::MutexGuard<'_, ()>,
        shard_index: usize,
        split_key: UserKey,
        failpoint: Option<SplitFailpoint>,
        inline_trim: bool,
    ) -> Result<()> {
        if self.replication.is_some() {
            return Err(Error::invalid(
                "shard splits are disabled while replication is enabled",
            ));
        }
        let telemetry = self.telemetry.get();
        let split_start = telemetry.map(|_| Instant::now());
        // Exclusive topology access: waits out in-flight batches, blocks new
        // ones. Scans that already pinned the old topology keep running.
        let mut topology_slot = self.topology.write();
        let topology = Arc::clone(&topology_slot);
        // Derive the post-split manifest up front: this validates the shard
        // index and split key before any side effect, and is the exact
        // record the commit below renames into place.
        let (left_slot, right_slot) = (topology.next_slot, topology.next_slot + 1);
        let new_manifest =
            topology
                .manifest()
                .with_split(shard_index, split_key, left_slot, right_slot)?;
        let new_router = new_manifest.router()?;
        let parent = &topology.shards[shard_index];

        // Quiesce the parent's background jobs: a compaction racing the link
        // step could delete the very SSTs the children are adopting.
        wait_shard_idle(&parent.engine);

        // Drain the parent's memtables so every acknowledged write lives in
        // an SST listed by its engine manifest (the WAL segments retire with
        // the flush; children start with fresh, empty logs).
        parent.engine.flush()?;
        parent.engine.close()?;

        let root = self.provider.root()?;
        let parent_storage = self.provider.shard(parent.slot as usize)?;
        let parent_version = read_manifest(&parent_storage)?;

        // Phase one: durable intent. From here a crash is rolled back (or,
        // after the commit below, rolled forward) on the next open.
        let intent = SplitIntent {
            parent_slot: parent.slot,
            left_slot,
            right_slot,
            split_key,
        };
        write_split_intent(&root, &intent)?;
        if failpoint == Some(SplitFailpoint::AfterIntent) {
            return Err(Error::invalid("simulated crash after split intent"));
        }

        // Prepare both children: adopt the parent's SSTs by range into fresh
        // slots and write their engine manifests. A file straddling the
        // split key is adopted by BOTH children with clamped manifest bounds;
        // trim compactions reclaim the out-of-range halves later.
        let (parent_lo, parent_hi) = topology.router.shard_range(shard_index);
        let child_ranges = [
            (left_slot, parent_lo, split_key - 1),
            (right_slot, split_key, parent_hi),
        ];
        for &(slot, lo, hi) in &child_ranges {
            // Clear any leftovers of a previously rolled-back split attempt
            // that reused this slot id.
            self.provider.clear_shard(slot as usize)?;
            let mut files = Vec::new();
            for meta in &parent_version.files {
                if let Some(adopted) = meta.restricted_to(lo, hi) {
                    self.provider.link_file(
                        parent.slot as usize,
                        slot as usize,
                        &meta.file_name(),
                    )?;
                    files.push(adopted);
                }
            }
            let child_storage = self.provider.shard(slot as usize)?;
            write_manifest(
                &child_storage,
                &VersionSnapshot {
                    next_file_number: parent_version.next_file_number,
                    last_seq: parent_version.last_seq,
                    files,
                    wal_segments: Vec::new(),
                },
            )?;
        }
        if failpoint == Some(SplitFailpoint::AfterPrepare) {
            return Err(Error::invalid("simulated crash after split prepare"));
        }

        // Open the child engines before committing, so a failure here leaves
        // the old topology fully intact (the next open rolls the orphaned
        // child state back).
        let mut children = Vec::with_capacity(2);
        for &(slot, lo, hi) in &child_ranges {
            let (scope, scoped) = match self.cache.as_ref() {
                Some(c) => {
                    let scope = c.add_scope();
                    (Some(scope), Some(ScopedCache::new(Arc::clone(c), scope)))
                }
                None => (None, None),
            };
            let storage = self.provider.shard(slot as usize)?;
            let engine = Arc::new(E::open_shard(storage, &self.engine_options, scoped)?);
            engine.set_key_bound(lo, hi);
            if let Some(telemetry) = telemetry {
                engine.attach_telemetry(&telemetry.hub, &slot.to_string());
            }
            if let Some(scheduler) = &self.scheduler {
                register_shard_engine(scheduler, &**engine)?;
            }
            let profiler = OnceLock::new();
            if let Some(telemetry) = telemetry {
                let _ = profiler.set(telemetry.hub.register_profiler(&slot.to_string()));
            }
            children.push(Arc::new(Shard {
                engine,
                slot,
                cache_scope: scope,
                ingested_bytes: AtomicU64::new(0),
                profiler,
            }));
        }

        // Phase two: the commit point. Renaming the new SHARDS manifest into
        // place atomically switches the durable topology.
        let mut new_shards = topology.shards.clone();
        new_shards.splice(shard_index..=shard_index, children.clone());
        let new_topology = Arc::new(Topology {
            epoch: topology.epoch + 1,
            router: new_router,
            shards: new_shards,
            next_slot: new_manifest.next_slot,
        });
        write_shard_manifest(&root, &new_manifest)?;

        // Swap the in-memory routing table and release writers.
        *topology_slot = new_topology;
        drop(topology_slot);
        self.stats.splits.fetch_add(1, Ordering::Relaxed);
        if let (Some(telemetry), Some(start)) = (telemetry, split_start) {
            // The redistributed bytes/entries are the parent's on-disk SSTs,
            // adopted (by hard link) into the two children.
            let split_bytes: u64 = parent_version.files.iter().map(|f| f.file_size).sum();
            let split_entries: u64 = parent_version.files.iter().map(|f| f.num_entries).sum();
            telemetry.hub.record_event(
                EventKind::Split,
                &parent.slot.to_string(),
                start.elapsed(),
                split_bytes,
                split_bytes,
                split_entries,
            );
        }

        // Cleanup (crash-tolerant: replay rolls all of this forward). The
        // parent engine stays alive for any scan still pinning the old
        // topology — hard links / shared buffers keep the adopted SSTs
        // readable after the parent's *names* are deleted.
        remove_split_intent(&root)?;
        if let Some(telemetry) = telemetry {
            telemetry.hub.remove_profiler(&parent.slot.to_string());
        }
        if let Some(scope) = parent.cache_scope {
            if let Some(cache) = &self.cache {
                cache.retire_scope(scope);
            }
        }
        self.provider.clear_shard(parent.slot as usize)?;

        // Reclaim out-of-range leftovers in the adopted SSTs: enqueue trim
        // jobs on the shared scheduler. Without one, only an explicit
        // `split_shard` call trims inline — a policy-triggered split runs on
        // some writer's thread and must not turn that caller's `write()`
        // into a full shard rewrite (ordinary compactions under the key
        // bound drop the leftovers over time anyway).
        for child in &children {
            match child.engine.maintenance_cell().get() {
                Some(handle) => {
                    handle.submit(JobKind::Trim);
                }
                None if inline_trim => while child.engine.trim_once()? {},
                None => {}
            }
        }
        Ok(())
    }

    /// Evaluates the split policy (called from the write path, amortised).
    fn maybe_auto_split(&self, batches_so_far: u64) {
        if self.replication.is_some() {
            return;
        }
        let Some(policy) = &self.split_policy else {
            return;
        };
        if !batches_so_far.is_multiple_of(policy.check_every_batches.max(1)) {
            return;
        }
        // Never block a writer on a split another thread already runs.
        let Some(guard) = self.split_lock.try_lock() else {
            return;
        };
        let topology = self.current();
        if topology.shards.len() >= policy.max_shards.max(1) {
            return;
        }
        let mut candidate: Option<(usize, u64)> = None;
        for (index, shard) in topology.shards.iter().enumerate() {
            let resident = shard.engine.buffered_bytes()
                + shard
                    .engine
                    .level_files()
                    .iter()
                    .flatten()
                    .map(|f| f.file_size)
                    .sum::<u64>();
            let ingested = shard.ingested_bytes.load(Ordering::Relaxed);
            let pending = shard
                .engine
                .maintenance_cell()
                .get()
                .map_or(0, |h| h.pending_jobs());
            let triggered = (policy.max_resident_bytes > 0
                && resident >= policy.max_resident_bytes)
                || (policy.max_ingest_bytes > 0 && ingested >= policy.max_ingest_bytes)
                || (policy.split_pending_jobs > 0 && pending >= policy.split_pending_jobs);
            if triggered && candidate.is_none_or(|(_, best)| resident > best) {
                candidate = Some((index, resident));
            }
        }
        let Some((index, _)) = candidate else {
            return;
        };
        // Byte-weighted SST median first; a write-heavy shard that has not
        // flushed yet has no file metadata, so fall back to the workload
        // profiler's sampled-median key (the point splitting recent traffic
        // in half), clamped into the shard's routed range.
        let split_key = pick_split_key(&topology, index).or_else(|| {
            let (lo, hi) = topology.router.shard_range(index);
            if lo >= hi {
                return None;
            }
            let key = topology.shards[index]
                .profiler
                .get()?
                .suggest_split_key()?
                .clamp(lo.saturating_add(1), hi);
            (key > lo && key <= hi).then_some(key)
        });
        let Some(split_key) = split_key else {
            return;
        };
        if self
            .split_locked(&guard, index, split_key, None, false)
            .is_err()
        {
            self.stats
                .auto_split_failures
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Flushes every shard's buffered writes to Level-0, in parallel.
    pub fn flush(&self) -> Result<()> {
        let topology = self.current();
        let tasks: Vec<_> = topology
            .shards
            .iter()
            .map(|shard| {
                let engine = Arc::clone(&shard.engine);
                move || engine.flush()
            })
            .collect();
        self.pool.run_all(tasks).into_iter().collect::<Result<_>>()
    }

    /// Compacts every shard until no level overflows, in parallel.
    pub fn compact_until_stable(&self) -> Result<()> {
        let topology = self.current();
        let tasks: Vec<_> = topology
            .shards
            .iter()
            .map(|shard| {
                let engine = Arc::clone(&shard.engine);
                move || engine.compact_until_stable()
            })
            .collect();
        self.pool.run_all(tasks).into_iter().collect::<Result<_>>()
    }

    /// Blocks until the shared maintenance scheduler has no queued or
    /// running job (no-op without background maintenance).
    pub fn wait_maintenance_idle(&self) {
        if let Some(scheduler) = &self.scheduler {
            scheduler.wait_idle();
        }
    }

    /// Workers of the shared maintenance scheduler (0 when disabled).
    pub fn maintenance_workers(&self) -> usize {
        self.scheduler.as_ref().map_or(0, |s| s.num_workers())
    }

    /// Flushes outstanding data on every shard and persists their manifests.
    /// With replication on, the health monitor and replica apply threads are
    /// stopped first (draining any queued frames) and the replica engines
    /// are closed too, so a clean reopen re-attaches them without re-seeding.
    pub fn close(&self) -> Result<()> {
        if let Some(state) = &self.replication {
            state.shutdown();
            for set in state.sets.read().iter() {
                for replica in set.replicas() {
                    replica.engine.close()?;
                }
            }
        }
        let topology = self.current();
        for shard in &topology.shards {
            shard.engine.close()?;
        }
        Ok(())
    }

    /// Counters of the sharding layer plus global/per-shard cache usage.
    pub fn stats(&self) -> ShardedStatsSnapshot {
        let topology = self.current();
        let (bg_completed, bg_pending) = self
            .scheduler
            .as_ref()
            .map(|s| {
                let state = s.state();
                (state.completed_jobs(), state.pending_jobs() as u64)
            })
            .unwrap_or((0, 0));
        let mut wal = WalStatsSnapshot::default();
        let mut io = IoStatsSnapshot::default();
        for shard in &topology.shards {
            wal = wal.merged(&shard.engine.wal_stats());
            io = io.merged(&shard.engine.storage().io_stats().snapshot());
        }
        ShardedStatsSnapshot {
            num_shards: topology.shards.len(),
            epoch: topology.epoch,
            batches: self.stats.batches.load(Ordering::Relaxed),
            cross_shard_batches: self.stats.cross_shard_batches.load(Ordering::Relaxed),
            fanout_scans: self.stats.fanout_scans.load(Ordering::Relaxed),
            splits: self.stats.splits.load(Ordering::Relaxed),
            auto_split_failures: self.stats.auto_split_failures.load(Ordering::Relaxed),
            cache: self.cache.as_ref().map(|c| c.stats()),
            per_shard_cache_bytes: self
                .cache
                .as_ref()
                .map(|c| {
                    topology
                        .shards
                        .iter()
                        .map(|s| s.cache_scope.map_or(0, |scope| c.scope_used_bytes(scope)))
                        .collect()
                })
                .unwrap_or_default(),
            bg_jobs_completed: bg_completed,
            bg_jobs_pending: bg_pending,
            wal,
            io,
        }
    }

    /// The snapshot every read sees when none is supplied (visible for
    /// tests: `latest` horizons for the current topology).
    pub fn latest_snapshot(&self) -> ShardSnapshot {
        let topology = self.current();
        ShardSnapshot {
            epoch: topology.epoch,
            seqs: vec![MAX_SEQNO; topology.shards.len()],
        }
    }

    // ------------------------------------------------------------------
    // Cost-model observability
    // ------------------------------------------------------------------

    /// Measured amplifications of shard `index`:
    /// `(write_amp, read_amp, space_amp)`. Write amplification is
    /// flush+compaction bytes written over logical ingest bytes (0 before
    /// any ingest); read amplification is the structural sorted-run count a
    /// point lookup may probe; space amplification is physical bytes over
    /// the live-byte estimate. All three are finite by construction.
    pub fn shard_amplification(&self, index: usize) -> Option<(f64, f64, f64)> {
        let topology = self.current();
        let shard = topology.shards.get(index)?;
        let shape = shard.engine.tree_shape();
        let (write_amp, _, _) = measured_write_amp(shard.engine.as_ref());
        Some((write_amp, shape.read_amp(), shape.space_amp()))
    }

    /// A JSON dump of the full LSM shape and amplification accounting of
    /// every shard (the `/debug/lsm` endpoint body): per-shard key range,
    /// ingest/rewrite byte counters, measured and model-predicted
    /// amplifications with their residuals, and the per-level shape.
    /// Available with or without telemetry attached.
    pub fn debug_state(&self) -> String {
        let topology = self.current();
        let mut out = format!(
            "{{\"engine\":\"{}\",\"epoch\":{},\"num_shards\":{},\"shards\":[",
            self.engine_label,
            topology.epoch,
            topology.shards.len(),
        );
        for (index, shard) in topology.shards.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let (lo, hi) = topology.router.shard_range(index);
            let shape = shard.engine.tree_shape();
            let (write_amp, ingest, written) = measured_write_amp(shard.engine.as_ref());
            let (predicted_write, predicted_space) = shard.engine.shard_predicted_amps();
            out.push_str(&format!(
                "{{\"shard\":{index},\"slot\":{},\"range\":[{lo},{hi}],\
                 \"ingest_bytes\":{ingest},\"flush_compact_bytes\":{written},\
                 \"write_amp\":{write_amp:.4},\"read_amp\":{:.4},\"space_amp\":{:.4},\
                 \"predicted_write_amp\":{predicted_write:.4},\
                 \"predicted_space_amp\":{predicted_space:.4},\
                 \"residual_write\":{:.4},\"residual_space\":{:.4},\"shape\":{}}}",
                shard.slot,
                shape.read_amp(),
                shape.space_amp(),
                write_amp - predicted_write,
                shape.space_amp() - predicted_space,
                shape.to_json(),
            ));
        }
        out.push_str("]}");
        out
    }

    /// Advisor-ready workload snapshots, one per shard: op mix, observed
    /// projections, per-level workload and measured tree parameters — each
    /// convertible into a `laser_advisor::WorkloadTrace`. Empty until
    /// telemetry is attached (the profilers live in the hub).
    pub fn workload_snapshots(&self) -> Vec<WorkloadSnapshot> {
        self.refresh_gauges();
        self.current()
            .shards
            .iter()
            .filter_map(|s| s.profiler.get().map(|p| p.snapshot(self.engine_label)))
            .collect()
    }

    /// JSON dump (`{"traces":[...]}`) of the flight recorder's retained
    /// traces (slowest per op kind plus the sampled tail). `None` until
    /// telemetry is attached.
    pub fn traces_json(&self) -> Option<String> {
        self.telemetry.get().map(|t| t.hub.tracer().traces_json())
    }

    /// Aggregated health of the facade: `(all_ok, JSON body)` — what the
    /// `/health` endpoint serves. Per shard:
    ///
    /// * `ok` — writable, WAL healthy, replication (if on) at target.
    /// * `degraded` — still writable but impaired: the WAL is damaged and
    ///   pending its in-place rotation recovery, or the shard's live replica
    ///   count sits below the configured replication factor.
    /// * `read_only` — a persistent storage fault pushed the engine into
    ///   graceful degradation; writes are rejected with a typed error while
    ///   reads, scans and replica serving continue.
    pub fn health_check(&self) -> (bool, String) {
        let topology = self.current();
        let replication = self.replication.as_ref();
        let target = replication.map_or(0, |s| s.config.replication_factor);
        let mut all_ok = true;
        let mut shards = String::new();
        for (index, shard) in topology.shards.iter().enumerate() {
            if index > 0 {
                shards.push(',');
            }
            let read_only = shard.engine.degraded_info().map(|info| info.reason);
            let live = replication
                .and_then(|s| s.set(index))
                .map_or(target, |set| {
                    set.replicas()
                        .iter()
                        .filter(|r| r.shared.applied().1 != ReplicaState::Lost)
                        .count()
                });
            let state = if read_only.is_some() {
                "read_only"
            } else if !shard.engine.is_healthy() || live < target {
                "degraded"
            } else {
                "ok"
            };
            if state != "ok" {
                all_ok = false;
            }
            shards.push_str(&format!(
                "{{\"shard\":{index},\"slot\":{},\"state\":\"{state}\"",
                shard.slot
            ));
            if let Some(reason) = &read_only {
                shards.push_str(&format!(",\"reason\":{}", json_escape(reason)));
            }
            if target > 0 {
                shards.push_str(&format!(
                    ",\"replicas_live\":{live},\"replicas_target\":{target}"
                ));
            }
            shards.push('}');
        }
        let status = if all_ok { "ok" } else { "degraded" };
        let body = format!(
            "{{\"status\":\"{status}\",\"engine\":\"{}\",\"epoch\":{},\"num_shards\":{},\"shards\":[{shards}]}}",
            self.engine_label,
            topology.epoch,
            topology.shards.len(),
        );
        (all_ok, body)
    }

    /// Starts the scrape endpoint on `addr` (e.g. `"127.0.0.1:0"`): a
    /// dependency-free blocking HTTP server answering `/metrics` (Prometheus
    /// text), `/health`, `/debug/lsm`, `/debug/workload` and
    /// `/debug/traces`, until the returned handle is dropped.
    pub fn serve_telemetry(self: &Arc<Self>, addr: &str) -> Result<TelemetryServer> {
        let db = Arc::clone(self);
        http::serve(addr, move |path| match path {
            "/metrics" => Some(match db.prometheus_text() {
                Some(body) => HttpResponse::ok(http::CONTENT_TYPE_PROMETHEUS, body),
                None => HttpResponse::unavailable("telemetry not attached"),
            }),
            "/health" => {
                // A real probe: per-shard state with a non-200 status while
                // any shard is degraded or read-only, so load balancers and
                // orchestrators can act on it.
                let (healthy, body) = db.health_check();
                let status = if healthy { 200 } else { 503 };
                Some(HttpResponse::with_status(status, CONTENT_TYPE_JSON, body))
            }
            "/debug/lsm" => Some(HttpResponse::ok(CONTENT_TYPE_JSON, db.debug_state())),
            "/debug/workload" => {
                let snapshots = db.workload_snapshots();
                let mut body = String::from("[");
                for (i, snapshot) in snapshots.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    body.push_str(&snapshot.to_json());
                }
                body.push(']');
                Some(HttpResponse::ok(CONTENT_TYPE_JSON, body))
            }
            "/debug/traces" => Some(match db.traces_json() {
                Some(body) => HttpResponse::ok(CONTENT_TYPE_JSON, body),
                None => HttpResponse::unavailable("telemetry not attached"),
            }),
            _ => None,
        })
    }
}

/// Blocks until `engine` has no background job queued or running (engines
/// whose scheduler has shut down report idle immediately).
fn wait_shard_idle<E: ShardEngine>(engine: &Arc<E>) {
    while let Some(handle) = engine.maintenance_cell().get() {
        if handle.is_shutdown() || handle.pending_jobs() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// Total payload bytes a batch routes into a shard (key + value), for the
/// split policy's ingest accounting.
fn batch_bytes(batch: &WriteBatch) -> u64 {
    batch.iter().map(|e| 8 + e.value.len() as u64).sum::<u64>()
}

/// Encodes `s` as a JSON string literal (quotes included). Degradation
/// reasons carry arbitrary error display text, which must not break the
/// hand-rolled `/health` body.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Measured write amplification of one shard engine — flush+compaction
/// bytes written over logical ingest bytes — as `(amp, ingest, written)`.
/// Reports 0.0 before any ingest, so the metric is always finite.
fn measured_write_amp<E: ShardEngine>(engine: &E) -> (f64, u64, u64) {
    let ingest = engine.stats().ingest_bytes;
    let written = engine.shard_flush_compact_bytes();
    let amp = if ingest > 0 {
        written as f64 / ingest as f64
    } else {
        0.0
    };
    (amp, ingest, written)
}

/// Picks a byte-weighted median split key for shard `index` from its SST
/// metadata: the key below which roughly half of the shard's on-disk bytes
/// lie. Returns `None` when the shard has too little (or too degenerate)
/// data to split.
fn pick_split_key<E: ShardEngine>(topology: &Topology<E>, index: usize) -> Option<UserKey> {
    let (lo, hi) = topology.router.shard_range(index);
    if lo >= hi {
        // A single-key shard cannot be split further.
        return None;
    }
    let mut spans: Vec<(UserKey, UserKey, u64)> = topology.shards[index]
        .engine
        .level_files()
        .iter()
        .flatten()
        .map(|meta| {
            (
                meta.min_user_key.max(lo),
                meta.max_user_key.min(hi),
                meta.file_size,
            )
        })
        .collect();
    if spans.is_empty() {
        return None;
    }
    spans.sort_by_key(|&(min, _, _)| min);
    let total: u64 = spans.iter().map(|&(_, _, size)| size).sum();
    let mut acc = 0u64;
    let mut candidate = None;
    for &(min, max, size) in &spans {
        acc += size;
        if acc * 2 >= total {
            // Split inside the file that crosses the byte median: its span
            // midpoint approximates the median key at file granularity.
            candidate = Some(min / 2 + max / 2 + (min & max & 1));
            break;
        }
    }
    let key = candidate?;
    // Both children must own at least one key.
    let key = key.clamp(lo.saturating_add(1), hi);
    if key > lo && key <= hi {
        Some(key)
    } else {
        None
    }
}
