//! # laser-sharding
//!
//! Range sharding on top of the workspace's LSM engines: one logical
//! database served by N independent engine instances ("shards"), each owning
//! a contiguous slice of the `UserKey` space with its own subdirectory,
//! segmented WAL and manifest.
//!
//! The single-instance engines serialise compaction behind one lock and give
//! every engine a private block cache; sharding solves both structurally
//! while multiplying write and scan throughput across cores — the standard
//! shard-per-core recipe of production LSM deployments:
//!
//! * [`router::ShardRouter`] — splits the key space into contiguous ranges.
//!   Boundaries are persisted in a small shard manifest
//!   ([`manifest::ShardManifest`]) in the root directory, so a reopened
//!   database keeps its topology regardless of what the caller requests.
//! * [`db::ShardedDb`] — the facade, generic over any engine implementing
//!   [`engine::ShardEngine`]: a typed open/get/scan surface over the one
//!   [`EngineShell`](lsm_storage::EngineShell) both [`lsm_storage::LsmDb`]
//!   and [`laser_core::LaserDb`] deref to, so splits, trim, replication and
//!   failover work for either. Point ops route to the owning shard;
//!   [`types::WriteBatch`](lsm_storage::WriteBatch)es are split per shard and
//!   acknowledged once, group-commit style, after every sub-batch is durable.
//! * Cross-shard `scan`/`scan_at` run the per-shard scans on a small
//!   rayon-free [`pool::WorkerPool`] and concatenate in range order — shards
//!   are disjoint, so no merge heap is needed — with the snapshot captured
//!   *once* across all shards ([`db::ShardSnapshot`]) so a scan never
//!   observes half of a cross-shard batch.
//! * One process-wide [`BlockCache`](lsm_storage::BlockCache) with a global
//!   byte budget serves every shard (and can be shared across engines of
//!   different types); per-shard accounting stays visible through cache
//!   scopes.
//! * One shared [`JobScheduler`](lsm_storage::JobScheduler) runs
//!   flush/compaction of *all* shards on one worker pool, so compactions of
//!   disjoint shards proceed genuinely in parallel.
//! * **Online re-sharding** — [`db::ShardedDb::split_shard`] splits a hot
//!   shard live: the parent's memtable is drained, its SSTs are adopted into
//!   two child slots *by reference* (filesystem hard links / shared buffers,
//!   no data rewrite), the `SHARDS` manifest is swapped with a crash-safe
//!   two-phase record (intent + commit, replayed on open) and the router is
//!   replaced atomically while scans keep running against the topology they
//!   pinned. A [`db::SplitPolicy`] triggers splits automatically from
//!   shard-level statistics (resident size, ingest volume, pending-job
//!   pressure); background *trim* compactions later reclaim the
//!   out-of-range halves of adopted SSTs.
//! * **Replication & failover** — [`replication`] streams each leader
//!   shard's WAL (sealed segment images plus the live group-commit tail) to
//!   N in-process replicas over a checksummed, length-prefixed frame
//!   protocol; quorum acknowledgement makes acked writes survive leader
//!   loss, a health monitor exports per-replica lag and advances WAL
//!   retention floors, and leader promotion swaps the shard manifest's slot
//!   table under a crash-safe two-phase intent (`SHARDS.promote`) with
//!   automatic failover from the write path. Splits and replication are
//!   mutually exclusive.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod db;
pub mod engine;
pub mod http;
pub mod manifest;
pub mod pool;
pub mod replication;
pub mod router;
pub mod storage;

pub use db::{
    ShardSnapshot, ShardedDb, ShardedOptions, ShardedStatsSnapshot, SplitFailpoint, SplitPolicy,
};
pub use engine::ShardEngine;
pub use http::{http_get, HttpResponse, TelemetryServer};
pub use manifest::{ShardManifest, SplitIntent};
pub use pool::WorkerPool;
pub use replication::{
    AckMode, ReplicaInfo, ReplicaState, ReplicationConfig, ReplicationFailpoint,
    ShardReplicationStatus,
};
pub use router::ShardRouter;
pub use storage::{DirShardStorage, FaultShardStorage, MemShardStorage, ShardStorageProvider};
