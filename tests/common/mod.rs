//! Fixtures shared by the engine-parameterised integration tests: one small
//! adapter per engine, so a scenario written once against [`TestEngine`]
//! runs for the row format (`LsmDb`) and the column-group format (`LaserDb`)
//! of the one engine shell.
#![allow(dead_code)]

use std::fmt::Debug;

use laser::laser_sharding::ShardEngine;
use laser::lsm_storage::storage::StorageRef;
use laser::lsm_storage::types::{WriteBatch, MAX_SEQNO};
use laser::lsm_storage::{LsmDb, LsmOptions, Result};
use laser::{LaserDb, LaserOptions, LayoutSpec, Projection, RowFragment, Schema, Value};

/// Columns of the rows the LASER adapter writes.
pub const LASER_COLUMNS: usize = 6;

/// What a scenario needs from an engine beyond [`ShardEngine`] and the shell
/// it derefs to: small options, and how to write and read back one row.
pub trait TestEngine: ShardEngine<Value: PartialEq + Debug + Clone> {
    /// Engine name for `(engine, scenario, policy, seed)` lines.
    const NAME: &'static str;

    /// Scaled-down options with `auto_compact` off and the given WAL sync
    /// policy.
    fn test_options(sync_wal: bool, sync_wal_interval_ms: u64) -> Self::Options;

    /// The write payload (as `WriteBatch::put` takes it) of the row derived
    /// from `seed`, carrying about `pad` extra bytes.
    fn payload(seed: u64, pad: usize) -> Vec<u8>;

    /// What a read of every column returns for a row written as `payload`.
    fn value(payload: &[u8]) -> Self::Value;

    /// The read context selecting every column.
    fn all_columns() -> Self::ReadCtx;
}

impl TestEngine for LsmDb {
    const NAME: &'static str = "lsm";

    fn test_options(sync_wal: bool, sync_wal_interval_ms: u64) -> LsmOptions {
        let mut options = LsmOptions::small_for_tests();
        options.auto_compact = false;
        options.sync_wal = sync_wal;
        options.sync_wal_interval_ms = sync_wal_interval_ms;
        options
    }

    fn payload(seed: u64, pad: usize) -> Vec<u8> {
        let mut payload = format!("value-{seed}").into_bytes();
        payload.resize(payload.len() + pad, seed as u8);
        payload
    }

    fn value(payload: &[u8]) -> Vec<u8> {
        payload.to_vec()
    }

    fn all_columns() {}
}

/// The schema of the LASER adapter's rows.
pub fn laser_schema() -> Schema {
    Schema::with_columns(LASER_COLUMNS)
}

impl TestEngine for LaserDb {
    const NAME: &'static str = "laser";

    fn test_options(sync_wal: bool, sync_wal_interval_ms: u64) -> LaserOptions {
        let mut options =
            LaserOptions::small_for_tests(LayoutSpec::equi_width(&laser_schema(), 5, 2));
        options.auto_compact = false;
        options.sync_wal = sync_wal;
        options.sync_wal_interval_ms = sync_wal_interval_ms;
        options
    }

    fn payload(seed: u64, pad: usize) -> Vec<u8> {
        let mut values: Vec<Value> = (0..LASER_COLUMNS as i64 - 1)
            .map(|column| Value::Int(seed as i64 + column))
            .collect();
        values.push(Value::Bytes(vec![seed as u8; pad]));
        RowFragment::full_row(&laser_schema(), values).encode(LASER_COLUMNS)
    }

    fn value(payload: &[u8]) -> RowFragment {
        RowFragment::decode(payload, LASER_COLUMNS).expect("a payload this adapter encoded")
    }

    fn all_columns() -> Projection {
        Projection::all(&laser_schema())
    }
}

/// Opens one engine on `storage` with a private (absent) cache.
pub fn open<E: TestEngine>(storage: StorageRef, options: &E::Options) -> Result<E> {
    E::open_shard(storage, options, None)
}

/// Writes the row derived from `seed` under `key`.
pub fn put<E: TestEngine>(db: &E, key: u64, seed: u64) -> Result<()> {
    let mut batch = WriteBatch::new();
    batch.put(key, E::payload(seed, 0));
    db.write(&batch)
}

/// Reads every column of `key` at the latest sequence number.
pub fn get<E: TestEngine>(db: &E, key: u64) -> Option<E::Value> {
    db.shard_get_at(key, &E::all_columns(), MAX_SEQNO)
        .unwrap_or_else(|e| panic!("[{}] get({key}) failed: {e}", E::NAME))
}

/// What [`get`] returns for a row [`put`] with `seed`.
pub fn row<E: TestEngine>(seed: u64) -> Option<E::Value> {
    Some(E::value(&E::payload(seed, 0)))
}
