//! # lsm-storage
//!
//! A from-scratch Log-Structured Merge-Tree storage substrate, built as the
//! foundation for the LASER Real-Time LSM-Tree reproduction (Saxena et al.,
//! "Real-Time LSM-Trees for HTAP Workloads", ICDE 2023).
//!
//! The paper prototypes LASER inside RocksDB; this crate provides the same
//! structural ingredients RocksDB provides, so that the Real-Time LSM-Tree
//! (crate `laser-core`) can be built on top of them:
//!
//! * [`skiplist`] / [`memtable`] — the in-memory write buffer.
//! * [`wal`] — the write-ahead-log record format (per-file append/replay).
//! * [`wal_segment`] — the durability subsystem on top of it: a
//!   [`wal_segment::SegmentedWal`] that rotates one segment per memtable,
//!   group-commits concurrent writers into shared fsyncs, tracks live
//!   segments in the manifest and bounds recovery replay to the unflushed
//!   tail.
//! * [`block`] — data blocks with restart points and key prefix compression.
//! * [`bloom`] — per-SST bloom filters.
//! * [`sst`] — Sorted String Table files (data blocks + index block + bloom
//!   filter + footer).
//! * [`iterator`] — the `KvIterator` trait and the merge stack: a
//!   tournament-tree k-way merge, a lazy per-level concatenating iterator
//!   and the streaming newest-visible-version range iterator.
//! * [`manifest`] — version metadata (which file lives in which level).
//! * [`storage`] — pluggable backends: durable files, instrumented in-memory
//!   storage (counts 4 KiB-block I/O, matching the paper's cost model), and a
//!   fault-injecting wrapper for failure testing.
//! * [`cache`] — a sharded LRU cache of encoded data blocks, shared across
//!   all SSTs of an engine so hot reads skip the storage backend.
//! * [`maintenance`] — the background maintenance subsystem: a
//!   [`maintenance::JobScheduler`] worker pool running flush/compaction jobs
//!   off the write path, with write-side backpressure.
//! * [`shell`] — [`shell::EngineShell`], everything an LSM engine does that
//!   is not a level layout (WAL pairing, memtables, flush, manifest,
//!   compaction install, trim, replication hooks, degradation, maintenance
//!   glue), over the `levels[level].runs[column_group].files` tree shape,
//!   with the per-engine part behind the small [`shell::LevelFormat`] hook.
//! * [`db`] — [`db::LsmDb`], the single-column-group case of that shell: a
//!   plain key-value LSM engine with leveled compaction and both compaction
//!   priorities compared in Figure 2 of the paper (`ByCompensatedSize`,
//!   `OldestSmallestSeqFirst`).
//!
//! ## Quick example
//!
//! ```
//! use lsm_storage::{LsmDb, LsmOptions};
//!
//! let db = LsmDb::open_in_memory(LsmOptions::small_for_tests()).unwrap();
//! db.put(42, b"hello".to_vec()).unwrap();
//! assert_eq!(db.get(42).unwrap(), Some(b"hello".to_vec()));
//! db.delete(42).unwrap();
//! assert_eq!(db.get(42).unwrap(), None);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod block;
pub mod bloom;
pub mod cache;
pub mod checksum;
pub mod coding;
pub mod db;
pub mod degrade;
pub mod error;
pub mod hash;
pub mod iterator;
pub mod maintenance;
pub mod manifest;
pub mod memtable;
pub mod observability;
pub mod options;
pub mod retry;
pub mod shape;
pub mod shell;
pub mod skiplist;
pub mod sst;
pub mod storage;
pub mod types;
pub mod wal;
pub mod wal_segment;

pub use cache::{BlockCache, BlockCacheStats, ScopeId, ScopedCache};
pub use db::LsmDb;
pub use degrade::{DegradationController, DegradedInfo};
pub use error::{Error, Result};
pub use iterator::{
    naive_visible_scan, BoxedIterator, KvIterator, LevelConcatIterator, MergingIterator,
    NaiveMergingIterator, RangeIterator, VecIterator,
};
pub use maintenance::{
    attach_engine, attach_shard_engines, register_shard_engine, register_shard_engine_with,
    BackpressureConfig, BackpressureGate, EngineMaintenance, JobKind, JobScheduler,
    MaintainableEngine, MaintenanceHandle, SchedulerClient, Throttle,
};
pub use manifest::FileMeta;
pub use memtable::{FrozenMemTable, MemTable, MemTableRef};
pub use observability::{EngineTelemetry, WalErrorStage, WalTelemetry};
pub use options::{CompactionPriority, LsmOptions};
pub use retry::{retry_io, RetryPolicy};
pub use shape::{LevelShape, TreeShape};
pub use shell::{
    CompactionSink, CompactionStatsSnapshot, EngineShell, Level, LevelFile, LevelFormat, ReadView,
    Run, ShellConfig,
};
pub use sst::{TableBuilder, TableHandle, TableOptions, TableProperties};
pub use storage::{
    FaultConfig, FaultHandle, FaultInjectingStorage, FaultPlan, FaultStorage, FileStorage, IoStats,
    IoStatsSnapshot, MemStorage, SharedSyncHandle, Storage, StorageRef,
};
pub use types::{InternalKey, SeqNo, UserKey, ValueKind, WriteBatch, WriteEntry, MAX_SEQNO};
pub use wal_segment::{
    SegmentedWal, WalRecovery, WalSegmentMeta, WalStatsSnapshot, WalSyncPolicy, WalTicket,
};
