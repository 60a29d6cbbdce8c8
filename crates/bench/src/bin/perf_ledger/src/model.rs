//! The correctness oracle and the two engine adapters.
//!
//! [`Oracle`] is a `BTreeMap` model of every acknowledged write. Every get
//! and scan the driver issues is checked against it, and at the end of a run
//! the database's full-scan FNV checksum must equal the model's.
//!
//! A row is 30 integer cells whose values are a pure function of
//! `(row, column, version)`, so the model stores versions only — its memory
//! stays a small, constant share of `peak_rss_mb`. Both engines store the
//! same logical rows: `LaserDb` as a 30-column [`RowFragment`], `LsmDb` as a
//! 152-byte blob holding the same 30 cells.

use std::collections::BTreeMap;

use laser_core::{LaserDb, Projection, RowFragment, Schema, Value};
use laser_sharding::ShardEngine;
use lsm_storage::types::WriteBatch;
use lsm_storage::LsmDb;

use crate::gen::{mix64, row_of, Fnv, Proj};

pub const COLUMNS: usize = 30;
/// Value size of the key-value workload (30 four-byte cells + padding).
pub const KV_VALUE_BYTES: usize = 152;

/// The value of one cell. Always in `[2^30, 2^31)`, so every cell encodes to
/// the same number of bytes and rows have one fixed size.
pub fn cell_value(salt: u64, row: u64, col: usize, version: u32) -> i64 {
    let h = mix64(salt ^ (row * 32 + col as u64)).wrapping_add(version as u64 * 0x9e37_79b9);
    (0x4000_0000 | (h & 0x3fff_ffff)) as i64
}

/// Model of the acknowledged database contents.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Derived from `--seed`: the same seed gives the same cell values.
    salt: u64,
    /// Live keys. The value counts full-row writes of the key (always 1
    /// today: inserts never revisit a key); kept so the model stays a map.
    rows: BTreeMap<u64, u32>,
    /// Versions of cells overwritten by single-column updates.
    cells: BTreeMap<(u64, u8), u32>,
}

impl Oracle {
    pub fn new(seed: u64) -> Oracle {
        Oracle {
            salt: mix64(seed),
            rows: BTreeMap::new(),
            cells: BTreeMap::new(),
        }
    }

    pub fn insert(&mut self, key: u64) {
        *self.rows.entry(key).or_insert(0) += 1;
    }

    /// Bumps one cell's version and returns the new version.
    pub fn update(&mut self, key: u64, col: usize) -> u32 {
        let v = self.cells.entry((key, col as u8)).or_insert(0);
        *v += 1;
        *v
    }

    pub fn len(&self) -> u64 {
        self.rows.len() as u64
    }

    /// Expected value of a cell of a live key.
    pub fn cell(&self, key: u64, col: usize) -> i64 {
        let version = self.cells.get(&(key, col as u8)).copied().unwrap_or(0);
        cell_value(self.salt, row_of(key), col, version)
    }

    /// Live keys in `[lo, hi]`, ascending.
    pub fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = u64> + '_ {
        self.rows.range(lo..=hi).map(|(k, _)| *k)
    }

    /// Folds in another client's model (clients own disjoint keys).
    pub fn absorb(&mut self, other: Oracle) {
        self.rows.extend(other.rows);
        self.cells.extend(other.cells);
    }

    /// FNV checksum over `(key, 30 cells)` of every live row, ascending.
    pub fn checksum(&self) -> u64 {
        let mut h = Fnv::default();
        for &key in self.rows.keys() {
            h.word(key);
            for col in 0..COLUMNS {
                h.word(self.cell(key, col) as u64);
            }
        }
        h.0
    }
}

/// What the driver needs from an engine beyond [`ShardEngine`]: how to encode
/// the model's rows for it and how to read its values back.
pub trait Adapter: Send + Sync + 'static {
    type Engine: ShardEngine;

    fn new() -> Self;

    fn ctx(&self, proj: Proj) -> &<Self::Engine as ShardEngine>::ReadCtx;

    /// Appends a full-row insert of `key` (every cell at the model's current
    /// version) and returns the logical bytes (key + payload).
    fn put_row(&self, batch: &mut WriteBatch, oracle: &Oracle, key: u64) -> u64;

    /// Appends the write for a single-column update the model has already
    /// applied; returns the logical bytes.
    fn put_update(&self, batch: &mut WriteBatch, oracle: &Oracle, key: u64, col: usize) -> u64;

    /// The cell `col` of a value the engine returned, if present.
    fn cell(value: &<Self::Engine as ShardEngine>::Value, col: usize) -> Option<i64>;

    /// True if the value holds exactly the cells a read under `proj` returns.
    fn has_shape(value: &<Self::Engine as ShardEngine>::Value, proj: Proj) -> bool;

    /// Projections whose scans together read every cell of a row. A scan
    /// whose projection spans several column groups of a level is NOT used:
    /// at the seed, `LevelMergingIterator` takes a column-group `Full` record
    /// for a complete row and drops the columns whose group has already moved
    /// to a deeper level (gets are right; see the README's findings).
    fn verify_projections() -> &'static [Proj];

    /// Backpressure `(stall, slowdown)` events an engine has counted.
    fn throttle_events(engine: &Self::Engine) -> (u64, u64);
}

/// True if `value` is exactly the model's row for `key` under `proj`.
pub fn matches<A: Adapter>(
    value: &<A::Engine as ShardEngine>::Value,
    oracle: &Oracle,
    key: u64,
    proj: Proj,
) -> bool {
    A::has_shape(value, proj)
        && proj
            .columns()
            .all(|col| A::cell(value, col) == Some(oracle.cell(key, col)))
}

/// `ShardedDb<LaserDb>`: the paper's engine.
pub struct Laser {
    pub schema: Schema,
    /// One prebuilt projection per [`Proj`], indexed by discriminant.
    ctx: [Projection; Proj::EVERY.len()],
}

pub fn projection(proj: Proj) -> Projection {
    Projection::of(proj.columns())
}

pub fn laser_row(schema: &Schema, oracle: &Oracle, key: u64) -> RowFragment {
    RowFragment::full_row(
        schema,
        (0..COLUMNS)
            .map(|col| Value::Int(oracle.cell(key, col)))
            .collect(),
    )
}

impl Adapter for Laser {
    type Engine = LaserDb;

    fn new() -> Self {
        Laser {
            schema: Schema::narrow(),
            ctx: Proj::EVERY.map(projection),
        }
    }

    fn ctx(&self, proj: Proj) -> &Projection {
        &self.ctx[proj as usize]
    }

    fn put_row(&self, batch: &mut WriteBatch, oracle: &Oracle, key: u64) -> u64 {
        let payload = laser_row(&self.schema, oracle, key).encode(COLUMNS);
        let bytes = 8 + payload.len() as u64;
        batch.put(key, payload);
        bytes
    }

    fn put_update(&self, batch: &mut WriteBatch, oracle: &Oracle, key: u64, col: usize) -> u64 {
        let fragment = RowFragment::from_cells(vec![(col, Value::Int(oracle.cell(key, col)))]);
        let payload = fragment.encode(COLUMNS);
        let bytes = 8 + payload.len() as u64;
        batch.put_partial(key, payload);
        bytes
    }

    fn cell(value: &RowFragment, col: usize) -> Option<i64> {
        value.get(col).and_then(Value::as_int)
    }

    fn has_shape(value: &RowFragment, proj: Proj) -> bool {
        value.len() == proj.columns().len()
    }

    fn verify_projections() -> &'static [Proj] {
        &Proj::COLUMN_GROUPS
    }

    fn throttle_events(engine: &LaserDb) -> (u64, u64) {
        let stats = engine.stats();
        (stats.stall_events, stats.slowdown_events)
    }
}

/// `ShardedDb<LsmDb>`: the row-engine shell (the only replicated engine).
pub struct Kv;

pub fn kv_value(oracle: &Oracle, key: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(KV_VALUE_BYTES);
    for col in 0..COLUMNS {
        out.extend_from_slice(&(oracle.cell(key, col) as u32).to_le_bytes());
    }
    out.resize(KV_VALUE_BYTES, 0x5a);
    out
}

impl Adapter for Kv {
    type Engine = LsmDb;

    fn new() -> Self {
        Kv
    }

    fn ctx(&self, _proj: Proj) -> &() {
        &()
    }

    fn put_row(&self, batch: &mut WriteBatch, oracle: &Oracle, key: u64) -> u64 {
        batch.put(key, kv_value(oracle, key));
        (8 + KV_VALUE_BYTES) as u64
    }

    // The row engine has no partial writes: an update rewrites the row.
    fn put_update(&self, batch: &mut WriteBatch, oracle: &Oracle, key: u64, _col: usize) -> u64 {
        self.put_row(batch, oracle, key)
    }

    fn cell(value: &Vec<u8>, col: usize) -> Option<i64> {
        let bytes = value.get(col * 4..col * 4 + 4)?;
        Some(u32::from_le_bytes(bytes.try_into().expect("four bytes")) as i64)
    }

    // A key-value read has no projection: every cell is always present.
    fn has_shape(value: &Vec<u8>, _proj: Proj) -> bool {
        value.len() == KV_VALUE_BYTES
    }

    fn verify_projections() -> &'static [Proj] {
        &[Proj::All]
    }

    fn throttle_events(engine: &LsmDb) -> (u64, u64) {
        let stats = engine.stats();
        (stats.stall_events, stats.slowdown_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::key_of;

    #[test]
    fn cells_have_one_fixed_encoded_size() {
        let oracle = {
            let mut o = Oracle::new(1);
            (0..200).for_each(|r| o.insert(key_of(r)));
            o
        };
        let laser = Laser::new();
        let mut batch = WriteBatch::new();
        let sizes: Vec<u64> = (0..200)
            .map(|r| laser.put_row(&mut batch, &oracle, key_of(r)))
            .collect();
        assert!(sizes.iter().all(|&s| s == sizes[0]), "{sizes:?}");
        // 8-byte key + 4-byte bitmap + 30 x (tag + 5-byte varint).
        assert_eq!(sizes[0], 8 + 4 + 30 * 6);
    }

    #[test]
    fn updates_change_one_cell_and_the_checksum() {
        let mut oracle = Oracle::new(1);
        oracle.insert(key_of(5));
        oracle.insert(key_of(6));
        let before = (oracle.cell(key_of(5), 3), oracle.checksum());
        assert_eq!(oracle.update(key_of(5), 3), 1);
        assert_ne!(oracle.cell(key_of(5), 3), before.0);
        assert_eq!(oracle.cell(key_of(5), 4), cell_value(mix64(1), 5, 4, 0));
        assert_ne!(oracle.checksum(), before.1);
        assert_eq!(oracle.range(0, u64::MAX).count(), 2);
    }

    #[test]
    fn adapters_round_trip_the_model() {
        let mut oracle = Oracle::new(1);
        let key = key_of(77);
        oracle.insert(key);
        oracle.update(key, 29);

        let row = laser_row(&Schema::narrow(), &oracle, key);
        assert!(matches::<Laser>(&row, &oracle, key, Proj::All));
        let projected = row.project(&projection(Proj::Cols28To30));
        assert!(matches::<Laser>(&projected, &oracle, key, Proj::Cols28To30));
        assert!(!matches::<Laser>(
            &projected,
            &oracle,
            key,
            Proj::Cols21To30
        ));

        let blob = kv_value(&oracle, key);
        assert_eq!(blob.len(), KV_VALUE_BYTES);
        assert!(matches::<Kv>(&blob, &oracle, key, Proj::Cols16To30));
        let mut wrong = blob.clone();
        wrong[29 * 4] ^= 1;
        assert!(!matches::<Kv>(&wrong, &oracle, key, Proj::All));
    }
}
