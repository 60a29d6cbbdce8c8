//! Per-layer measurements of the `--trace 1` run.
//!
//! Three sources, all on the benchmark's side of the public API:
//!
//! * **facade deltas** — counters of `ShardedDb::stats()` (and the engines
//!   behind it) taken at the boundaries of the timed phase;
//! * **probes** — a few reads against the workload's own database after the
//!   drain, bracketed by I/O counter snapshots;
//! * **layer replays** — a seeded sample of the workload's own rows and read
//!   targets fed straight into each layer's public functions. Every replay
//!   runs inside a span; calls that take well under a microsecond are timed a
//!   batch per span (two clock reads would otherwise dwarf the call).
//!
//! Every workload reports every layer, whichever engine it drives: the
//! replays build their own bare instances from the sampled inputs.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use laser_core::{LaserDb, RowFragment, Value};
use laser_sharding::{
    ReplicationConfig, ShardRouter, ShardStorageProvider, ShardedDb, ShardedOptions,
    ShardedStatsSnapshot,
};
use lsm_storage::block::{Block, BlockBuilder};
use lsm_storage::cache::ScopedCache;
use lsm_storage::iterator::{
    BoxedIterator, KvIterator, MergingIterator, RangeIterator, VecIterator,
};
use lsm_storage::types::{InternalKey, ValueKind, WriteBatch, WriteEntry, MAX_SEQNO};
use lsm_storage::{
    BlockCache, LsmDb, MemTable, Result, SegmentedWal, StorageRef, TableBuilder, TableHandle,
    TableOptions, WalSyncPolicy,
};

use crate::crash::CrashDir;
use crate::gen::{key_of, Mix, Op, OpStream, Proj, SHARD_BASE};
use crate::model::{kv_value, laser_row, projection, Oracle, COLUMNS};
use crate::spans::{Recorder, SpanTotals};
use crate::stats::median;
use crate::workloads::{drain, laser_options, lsm_options, Configured, Instance, Phase, Workload};

/// Rows in the replay sample (the first rows of the workload's key space):
/// 9 MiB of rows, enough for a bare engine to populate its first
/// column-group level.
const SAMPLE_ROWS: u64 = 49_152;
/// Sample rows that fill one SST of the configured 1 MiB target size.
const SST_ROWS: usize = 5_400;
/// Read targets in the replay sample.
const SAMPLE_GETS: usize = 8_192;

/// Counter deltas over warm-up + timed phase.
pub struct FacadeDeltas {
    pub stats: ShardedStatsSnapshot,
    /// Block-cache `(hits, misses, evictions)` over the phase.
    pub cache: (u64, u64, u64),
    pub stalls: u64,
    pub slowdowns: u64,
    /// Logical bytes (key + payload) the clients committed over the phase.
    pub logical_bytes: u64,
    /// Bytes the engines wrote as flushes and compactions over the phase.
    pub flush_compact_bytes: u64,
}

pub struct LayerValue {
    pub value: f64,
    pub samples: u64,
}

type Values = BTreeMap<&'static str, LayerValue>;

/// The seeded sample every replay draws from.
struct Sample {
    oracle: Oracle,
    /// Sample keys in ascending key order.
    keys: Vec<u64>,
    /// Encoded full rows, aligned with `keys`.
    rows: Vec<Vec<u8>>,
    /// Read targets (indices into `keys`), in the workload's own skew.
    gets: Vec<usize>,
}

impl Sample {
    fn new(w: &Workload, seed: u64) -> Sample {
        let mut oracle = Oracle::new(seed);
        let mut keys: Vec<u64> = (0..SAMPLE_ROWS).map(key_of).collect();
        keys.sort_unstable();
        keys.iter().for_each(|&k| oracle.insert(k));
        let schema = laser_core::Schema::narrow();
        let rows = keys
            .iter()
            .map(|&k| laser_row(&schema, &oracle, k).encode(COLUMNS))
            .collect();
        // The workload's own read skew, folded onto the sample.
        let scale = SAMPLE_ROWS as f64 / w.preload_rows as f64;
        let gets = OpStream::new(seed, reads_only(w), 0, 1, w.preload_rows)
            .filter_map(|op| match op {
                Op::Get {
                    row, absent: false, ..
                } => {
                    let row = ((row as f64 * scale) as u64).min(SAMPLE_ROWS - 1);
                    Some(keys.binary_search(&key_of(row)).expect("sampled key"))
                }
                _ => None,
            })
            .take(SAMPLE_GETS)
            .collect();
        Sample {
            oracle,
            keys,
            rows,
            gets,
        }
    }

    /// `(encoded internal key, value)` of every sample row at sequence `i+1`.
    fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.keys
            .iter()
            .zip(&self.rows)
            .enumerate()
            .map(|(i, (&k, v))| {
                let ik = InternalKey::new(k, i as u64 + 1, ValueKind::Full);
                (ik.encode().to_vec(), v.clone())
            })
            .collect()
    }
}

/// Gets only, in the workload's own key distribution.
fn reads_only(w: &Workload) -> Mix {
    Mix {
        inserts: 0,
        batch_rows: 1,
        gets: 1,
        updates: 0,
        short_scans: 0,
        long_scans: 0,
        key_dist: w.mix.key_dist,
    }
}

struct Replay {
    recorder: Recorder,
    values: Values,
}

impl Replay {
    fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.insert(name, LayerValue { value, samples });
    }

    /// Runs `f` inside a span and returns its duration in nanoseconds.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.recorder.next_op();
        self.recorder.enter(name);
        let out = f();
        (out, self.recorder.exit() as f64)
    }

    /// One span around `calls` calls; the metric is nanoseconds per call.
    fn per_call(&mut self, name: &'static str, calls: usize, f: impl FnOnce()) {
        let ((), ns) = self.span(name, f);
        self.set(name, ns / calls as f64, calls as u64);
    }

    /// One span per call; the metric is the median call in nanoseconds.
    fn median_call<T>(
        &mut self,
        name: &'static str,
        items: impl Iterator<Item = T>,
        mut f: impl FnMut(T),
    ) {
        let mut ns = Vec::new();
        for item in items {
            let ((), t) = self.span(name, || f(item));
            ns.push(t);
        }
        self.set(name, median(&ns), ns.len() as u64);
    }

    /// One span per item; `f` times the same operation two ways. Returns the
    /// median of the paired differences (first minus second) and the median
    /// of the second, in nanoseconds.
    fn paired<T>(
        &mut self,
        name: &'static str,
        items: impl Iterator<Item = T>,
        mut f: impl FnMut(T) -> (std::time::Duration, std::time::Duration),
    ) -> (f64, f64) {
        let (mut diffs, mut base) = (Vec::new(), Vec::new());
        for item in items {
            let ((a, b), _) = self.span(name, || f(item));
            diffs.push(a.as_nanos() as f64 - b.as_nanos() as f64);
            base.push(b.as_nanos() as f64);
        }
        (median(&diffs), median(&base))
    }
}

fn per_second(count: usize, ns: f64) -> f64 {
    count as f64 / (ns / 1e9)
}

/// Measures every per-layer metric for `w`. Returns the values and the
/// per-span totals of the replays.
pub fn measure<A: Configured>(
    w: &Workload,
    adapter: &A,
    instance: &Instance<A>,
    phase: &Phase,
    facade: &FacadeDeltas,
    seed: u64,
    root: &Path,
) -> Result<(Values, Vec<(&'static str, SpanTotals)>)> {
    let mut r = Replay {
        recorder: Recorder::new(),
        values: Values::new(),
    };
    facade_metrics(&mut r, phase, facade);
    probe_metrics::<A>(&mut r, w, adapter, instance, seed)?;

    let sample = Sample::new(w, seed);
    let dir = CrashDir::new(root.join("replay"));
    router(&mut r, &sample);
    row(&mut r, &sample);
    memtable(&mut r, &sample);
    wal(&mut r, &sample, dir.shard(10)?)?;
    sst_and_block(&mut r, &sample, dir.shard(11)?)?;
    merge(&mut r, &sample)?;
    laser(&mut r, &sample, dir.shard(12)?)?;
    lsm(&mut r, &sample, dir.shard(13)?)?;
    shard_db(&mut r, &sample, root)?;
    replication(&mut r, &sample, root)?;
    let totals = r.recorder.totals().into_iter().collect();
    Ok((r.values, totals))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn facade_metrics(r: &mut Replay, phase: &Phase, f: &FacadeDeltas) {
    let s = &f.stats;
    let commits = s.batches;
    r.set(
        "router.cross_shard_batch_ratio",
        ratio(s.cross_shard_batches, commits),
        commits,
    );
    r.set(
        "shard_db.fanout_scans",
        s.fanout_scans as f64,
        phase.stats.long_scan_rates.len() as u64,
    );
    r.set(
        "wal.fsyncs_per_commit",
        ratio(s.wal.syncs, commits),
        commits,
    );
    r.set(
        "wal.coalesced_ack_ratio",
        ratio(s.wal.coalesced_acks, s.wal.records_appended),
        s.wal.records_appended,
    );
    // Everything written that was not a flush or a compaction is log (plus
    // the occasional manifest).
    r.set(
        "wal.bytes_per_user_byte",
        ratio(
            s.io.bytes_written.saturating_sub(f.flush_compact_bytes),
            f.logical_bytes,
        ),
        f.logical_bytes,
    );
    r.set("wal.rotations", s.wal.rotations as f64, commits);
    let (hits, misses, evictions) = f.cache;
    r.set("cache.hit_ratio", ratio(hits, hits + misses), hits + misses);
    r.set("cache.evictions", evictions as f64, hits + misses);
    r.set("maint.stall_events", f.stalls as f64, commits);
    r.set("maint.slowdown_events", f.slowdowns as f64, commits);
    r.set("maint.bg_jobs", s.bg_jobs_completed as f64, commits);
    r.set("io.syncs", s.io.syncs as f64, commits);

    // Slices alternate untraced (even) and traced (odd).
    let mean = |parity: usize| {
        let rates: Vec<f64> = phase
            .slice_rates
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, &rate)| rate)
            .collect();
        rates.iter().sum::<f64>() / rates.len().max(1) as f64
    };
    r.set(
        "trace.overhead_pct",
        (1.0 - mean(1) / mean(0)) * 100.0,
        phase.slice_rates.len() as u64,
    );
}

/// Reads against the workload's own (drained) database, bracketed by storage
/// counter snapshots.
fn probe_metrics<A: Configured>(
    r: &mut Replay,
    w: &Workload,
    adapter: &A,
    instance: &Instance<A>,
    seed: u64,
) -> Result<()> {
    let db = &instance.db;
    // Same distribution as the timed phase, fresh draws.
    let stream = OpStream::new(seed ^ 0x5eed, reads_only(w), 0, 1, w.preload_rows);
    let gets: Vec<(u64, Proj)> = stream
        .filter_map(|op| match op {
            Op::Get {
                row,
                proj,
                absent: false,
            } => Some((key_of(row), proj)),
            _ => None,
        })
        .take(2048)
        .collect();
    let before = db.stats().io;
    let ((), _) = r.span("probe.gets", || {
        for &(key, proj) in &gets {
            let _ = db.get(key, adapter.ctx(proj));
        }
    });
    let io = db.stats().io.delta_since(&before);
    r.set(
        "io.blocks_read_per_get",
        ratio(io.blocks_read, gets.len() as u64),
        gets.len() as u64,
    );

    let before = db.stats().io;
    let (rows, _) = r.span("probe.scans", || {
        let mut rows = 0;
        for i in 0..8u64 {
            let lo = (i % 2) * SHARD_BASE + i * 1000;
            rows += db
                .scan(lo, lo + 3999, adapter.ctx(Proj::Cols21To30))
                .map_or(0, |v| v.len() as u64);
        }
        rows
    });
    let io = db.stats().io.delta_since(&before);
    r.set(
        "io.bytes_read_per_scan_row",
        ratio(io.bytes_read, rows),
        rows,
    );
    Ok(())
}

fn router(r: &mut Replay, s: &Sample) {
    let router = ShardRouter::from_boundaries(vec![SHARD_BASE]).expect("one split point");
    let rounds = 64;
    r.per_call("router.shard_of_ns", s.keys.len() * rounds, || {
        let mut sum = 0usize;
        for _ in 0..rounds {
            for &key in &s.keys {
                sum += router.shard_of(std::hint::black_box(key));
            }
        }
        std::hint::black_box(sum);
    });
}

fn row(r: &mut Replay, s: &Sample) {
    let schema = laser_core::Schema::narrow();
    let full: Vec<RowFragment> = s
        .keys
        .iter()
        .map(|&k| laser_row(&schema, &s.oracle, k))
        .collect();
    r.per_call("row.encode_ns", full.len(), || {
        for f in &full {
            std::hint::black_box(f.encode(COLUMNS));
        }
    });
    r.per_call("row.decode_full_ns", s.rows.len(), || {
        for bytes in &s.rows {
            std::hint::black_box(RowFragment::decode(bytes, COLUMNS).expect("sample row"));
        }
    });
    // A column-group fragment as the deepest levels store it: 3 of 30 columns.
    let narrow = projection(Proj::Cols28To30);
    let cg: Vec<Vec<u8>> = full
        .iter()
        .map(|f| f.project(&narrow).encode(COLUMNS))
        .collect();
    r.per_call("row.decode_3of30_ns", cg.len(), || {
        for bytes in &cg {
            std::hint::black_box(RowFragment::decode(bytes, COLUMNS).expect("sample fragment"));
        }
    });
    let update = RowFragment::from_cells(vec![(7, Value::Int(1))]);
    r.per_call("row.merge_over_ns", full.len(), || {
        for f in &full {
            std::hint::black_box(update.merge_over(f));
        }
    });
}

fn memtable(r: &mut Replay, s: &Sample) {
    let table = MemTable::new();
    let entries: Vec<WriteEntry> = s
        .keys
        .iter()
        .zip(&s.rows)
        .map(|(&k, v)| WriteEntry::put(k, v.clone()))
        .collect();
    // Arrival order, not key order: the skiplist sees what the engine sees.
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by_key(|&i| crate::gen::row_of(s.keys[i]));
    r.per_call("memtable.insert_ns", entries.len(), || {
        for (seq, &i) in order.iter().enumerate() {
            table.insert(seq as u64 + 1, &entries[i]);
        }
    });
    r.per_call("memtable.get_ns", s.gets.len(), || {
        for &i in &s.gets {
            std::hint::black_box(table.get(s.keys[i], MAX_SEQNO));
        }
    });
    let (rows, ns) = r.span("memtable.iter", || {
        let mut it = table.iter();
        it.seek_to_first().expect("memtable iterator");
        let mut rows = 0usize;
        while it.valid() {
            rows += 1;
            it.next().expect("memtable iterator");
        }
        rows
    });
    r.set(
        "memtable.iter_rows_per_s",
        per_second(rows, ns),
        rows as u64,
    );
}

fn wal(r: &mut Replay, s: &Sample, storage: StorageRef) -> Result<()> {
    let policy = WalSyncPolicy::from_options(true, 0);
    let (log, _) = SegmentedWal::open(&storage, policy, &[], &[], 1)?;
    let batches: Vec<WriteBatch> = s
        .keys
        .iter()
        .zip(&s.rows)
        .map(|(&k, v)| {
            let mut b = WriteBatch::new();
            b.put(k, v.clone());
            b
        })
        .collect();
    let (mut append_ns, mut durable_ns) = (0u128, 0u128);
    let (result, _) = r.span("wal.append+ensure_durable", || -> Result<()> {
        for (i, batch) in batches.iter().enumerate() {
            let t = Instant::now();
            let ticket = log.append(i as u64 + 1, batch)?;
            append_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            log.ensure_durable(&ticket)?;
            durable_ns += t.elapsed().as_nanos();
        }
        Ok(())
    });
    result?;
    let n = batches.len();
    r.set("wal.append_ns", append_ns as f64 / n as f64, n as u64);
    r.set(
        "wal.durable_wait_ns",
        durable_ns as f64 / n as f64,
        n as u64,
    );
    let live = log.live_segments();
    drop(log);
    let (recovered, ns) = r.span("wal.replay", || {
        SegmentedWal::open(&storage, policy, &live, &[], 1).map(|(_, rec)| rec.num_records())
    });
    let recovered = recovered?;
    r.set(
        "wal.replay_records_per_s",
        per_second(recovered, ns),
        recovered as u64,
    );
    Ok(())
}

fn sst_and_block(r: &mut Replay, s: &Sample, storage: StorageRef) -> Result<()> {
    // Every other sample key goes into the table; the keys between them are
    // the absent ones, inside the table's range but never written.
    let entries: Vec<_> = s.entries().into_iter().step_by(2).take(SST_ROWS).collect();
    let gets: Vec<usize> = s.gets.iter().map(|&i| i % SST_ROWS * 2).collect();
    let absent: Vec<u64> = gets.iter().map(|&i| s.keys[i + 1]).collect();
    let bytes: usize = entries.iter().map(|(k, v)| k.len() + v.len()).sum();
    let (built, ns) = r.span("sst.build", || -> Result<()> {
        let mut builder = TableBuilder::new(storage.create("replay.sst")?, TableOptions::default());
        for (k, v) in &entries {
            builder.add(k, v)?;
        }
        builder.finish().map(|_| ())
    });
    built?;
    r.set(
        "sst.build_mb_per_s",
        bytes as f64 / 1e6 / (ns / 1e9),
        entries.len() as u64,
    );

    let cold = TableHandle::open(&storage, "replay.sst")?;
    r.per_call("sst.get_cold_ns", gets.len(), || {
        for &i in &gets {
            std::hint::black_box(cold.get(s.keys[i], MAX_SEQNO).expect("sst get"));
        }
    });
    let cache = ScopedCache::unscoped(BlockCache::new(64 << 20));
    let warm = TableHandle::open_with_cache(&storage, "replay.sst", Some(cache))?;
    for &key in s.keys.iter().step_by(2).take(SST_ROWS) {
        warm.get(key, MAX_SEQNO)?; // fill the cache
    }
    r.per_call("sst.get_cached_ns", gets.len(), || {
        for &i in &gets {
            std::hint::black_box(warm.get(s.keys[i], MAX_SEQNO).expect("sst get"));
        }
    });
    r.per_call("sst.get_absent_ns", absent.len(), || {
        for &key in &absent {
            std::hint::black_box(warm.get(key, MAX_SEQNO).expect("sst get"));
        }
    });
    let false_positives = absent.iter().filter(|&&k| warm.may_contain(k)).count();
    r.set(
        "bloom.false_positive_ratio",
        false_positives as f64 / absent.len() as f64,
        absent.len() as u64,
    );
    let (rows, ns) = r.span("sst.iter", || {
        let mut it = cold.iter();
        it.seek_to_first().expect("sst iterator");
        let mut rows = 0usize;
        while it.valid() {
            rows += 1;
            it.next().expect("sst iterator");
        }
        rows
    });
    r.set("sst.iter_rows_per_s", per_second(rows, ns), rows as u64);

    // One 4 KiB data block of sample rows.
    let mut builder = BlockBuilder::new();
    let in_block: Vec<&(Vec<u8>, Vec<u8>)> = entries
        .iter()
        .take_while(|(k, v)| builder.size_estimate() < 4096 && builder.add(k, v).is_ok())
        .collect();
    let data = builder.finish();
    let rounds = 2048;
    r.per_call("block.decode_ns", rounds, || {
        for _ in 0..rounds {
            std::hint::black_box(Block::decode(data.clone()).expect("sample block"));
        }
    });
    let block = Block::decode(data)?;
    r.per_call("block.seek_ns", rounds * in_block.len(), || {
        for _ in 0..rounds {
            for (key, _) in &in_block {
                let mut it = block.iter();
                it.seek(key).expect("block seek");
                std::hint::black_box(it.valid());
            }
        }
    });
    Ok(())
}

fn merge(r: &mut Replay, s: &Sample) -> Result<()> {
    // Eight sorted runs holding every eighth sample row each.
    let children = |entries: &[(Vec<u8>, Vec<u8>)]| -> Vec<BoxedIterator> {
        (0..8)
            .map(|c| {
                let run = entries.iter().skip(c).step_by(8).cloned().collect();
                Box::new(VecIterator::new(run)) as BoxedIterator
            })
            .collect()
    };
    let entries = s.entries();
    let mut merging = MergingIterator::new(children(&entries));
    let (rows, ns) = r.span("merge.next_w8", || {
        merging.seek_to_first().expect("merge");
        let mut rows = 0usize;
        while merging.valid() {
            rows += 1;
            merging.next().expect("merge");
        }
        rows
    });
    r.set("merge.next_ns_w8", ns / rows as f64, rows as u64);
    let mut range = RangeIterator::new(
        MergingIterator::new(children(&entries)),
        0,
        u64::MAX,
        MAX_SEQNO,
    )?;
    let (rows, ns) = r.span("range_iter", || {
        let mut rows = 0usize;
        while range.next_visible().expect("range iterator") {
            rows += 1;
        }
        rows
    });
    r.set("range_iter.rows_per_s", per_second(rows, ns), rows as u64);
    Ok(())
}

/// A bare single `LaserDb`, maintenance inline and compaction manual, so the
/// write, flush and compaction costs separate cleanly.
fn laser(r: &mut Replay, s: &Sample, storage: StorageRef) -> Result<()> {
    let mut options = laser_options();
    options.auto_compact = false;
    let db = LaserDb::open_with_cache(Arc::clone(&storage), options, None)?;
    let all = projection(Proj::All);
    let mut order: Vec<usize> = (0..s.keys.len()).collect();
    order.sort_by_key(|&i| crate::gen::row_of(s.keys[i]));
    // Stop short of the first memtable freeze so flush is timed on its own.
    let buffered = order.len().min(4096);
    r.median_call("laser.write_ns", order[..buffered].iter(), |&i| {
        let mut batch = WriteBatch::new();
        batch.put(s.keys[i], s.rows[i].clone());
        db.write(&batch).expect("laser write");
    });
    let before = db.stats();
    let ((), ns) = r.span("laser.flush", || db.flush().expect("laser flush"));
    let written = db.stats().delta_since(&before).compaction_bytes_written;
    r.set(
        "laser.flush_mb_per_s",
        written as f64 / 1e6 / (ns / 1e9),
        buffered as u64,
    );

    for &i in &order[buffered..] {
        let mut batch = WriteBatch::new();
        batch.put(s.keys[i], s.rows[i].clone());
        db.write(&batch)?;
    }
    db.flush()?;
    let before = db.stats();
    let ((), ns) = r.span("laser.compact_until_stable", || {
        db.compact_until_stable().expect("laser compaction")
    });
    let stats = db.stats();
    let written = stats.delta_since(&before).compaction_bytes_written;
    r.set(
        "laser.compact_mb_per_s",
        written as f64 / 1e6 / (ns / 1e9),
        stats.compactions,
    );
    r.set(
        "laser.compaction_bytes_per_user_byte",
        ratio(stats.compaction_bytes_written, stats.ingest_bytes),
        stats.ingest_bytes,
    );

    let before = db.stats();
    r.median_call("laser.read_ns", s.gets.iter(), |&i| {
        std::hint::black_box(db.read(s.keys[i], &all).expect("laser read"));
    });
    let reads = db.stats().delta_since(&before);
    // The paper's read cost: column groups fetched per point read. The
    // per-level profile is cumulative, so subtract by hand.
    let groups = db.stats().total_point_read_groups() - before.total_point_read_groups();
    r.set(
        "laser.cgs_per_get",
        ratio(groups, reads.point_reads),
        reads.point_reads,
    );

    let narrow = projection(Proj::Cols28To30);
    let io_before = storage.io_stats().snapshot();
    let (rows, ns) = r.span("laser.scan_1cg", || {
        db.scan(0, u64::MAX, &narrow).expect("laser scan").len()
    });
    let io = storage.io_stats().snapshot().delta_since(&io_before);
    r.set(
        "laser.scan_rows_per_s_1cg",
        per_second(rows, ns),
        rows as u64,
    );
    r.set(
        "laser.blocks_per_scan_row",
        ratio(io.blocks_read, rows as u64),
        rows as u64,
    );
    let (rows, ns) = r.span("laser.scan_allcg", || {
        db.scan(0, u64::MAX, &all).expect("laser scan").len()
    });
    r.set(
        "laser.scan_rows_per_s_allcg",
        per_second(rows, ns),
        rows as u64,
    );
    db.close()
}

fn lsm(r: &mut Replay, s: &Sample, storage: StorageRef) -> Result<()> {
    let db = LsmDb::open_with_cache(storage, lsm_options(), None)?;
    let values: Vec<Vec<u8>> = s.keys.iter().map(|&k| kv_value(&s.oracle, k)).collect();
    r.median_call("lsm.put_ns", 0..s.keys.len(), |i| {
        db.put(s.keys[i], values[i].clone()).expect("lsm put");
    });
    r.median_call("lsm.get_ns", s.gets.iter(), |&i| {
        std::hint::black_box(db.get(s.keys[i]).expect("lsm get"));
    });
    db.close()
}

/// The same operations through `ShardedDb<LaserDb>` and through two bare
/// `LaserDb`s the driver routes to by hand; the difference is the facade.
/// Both run maintenance inline, so the trees evolve identically.
fn shard_db(r: &mut Replay, s: &Sample, root: &Path) -> Result<()> {
    let sharded_dir = CrashDir::new(root.join("replay-sharded"));
    let sharded: ShardedDb<LaserDb> = ShardedDb::open(
        Arc::clone(&sharded_dir) as Arc<dyn ShardStorageProvider>,
        laser_options(),
        ShardedOptions::with_boundaries(vec![SHARD_BASE]).fanout_threads(2),
    )?;
    let bare_dir = CrashDir::new(root.join("replay-bare"));
    let bare = [
        LaserDb::open_with_cache(bare_dir.shard(0)?, laser_options(), None)?,
        LaserDb::open_with_cache(bare_dir.shard(1)?, laser_options(), None)?,
    ];
    let shard_of = |key: u64| (key / SHARD_BASE) as usize;
    let mut order: Vec<usize> = (0..s.keys.len()).collect();
    order.sort_by_key(|&i| crate::gen::row_of(s.keys[i]));
    let batch_of = |i: usize| {
        let mut batch = WriteBatch::new();
        batch.put(s.keys[i], s.rows[i].clone());
        batch
    };

    // Each operation runs through the facade and then through the bare
    // engine; the metric is the median of the paired differences, which the
    // run-to-run drift of either side cancels out of.
    let write = r.paired("shard_db.write", order.iter(), |&i| {
        let batch = batch_of(i);
        let t = Instant::now();
        sharded.write(&batch).expect("sharded write");
        let through = t.elapsed();
        let t = Instant::now();
        bare[shard_of(s.keys[i])].write(&batch).expect("bare write");
        (through, t.elapsed())
    });
    r.set("shard_db.write_overhead_ns", write.0, order.len() as u64);

    let all = &projection(Proj::All);
    let get = r.paired("shard_db.get", s.gets.iter(), |&i| {
        let key = s.keys[i];
        let t = Instant::now();
        std::hint::black_box(sharded.get(key, all).expect("sharded get"));
        let through = t.elapsed();
        let t = Instant::now();
        std::hint::black_box(bare[shard_of(key)].read(key, all).expect("bare read"));
        (through, t.elapsed())
    });
    r.set("shard_db.get_overhead_ns", get.0, s.gets.len() as u64);

    let narrow = &projection(Proj::Cols21To30);
    let windows = (0..64u64).map(|i| {
        let lo = (i % 2) * SHARD_BASE + (i / 2) * (SAMPLE_ROWS / 64);
        (lo, lo + 999)
    });
    let scan = r.paired("shard_db.scan", windows, |(lo, hi)| {
        let t = Instant::now();
        std::hint::black_box(sharded.scan(lo, hi, narrow).expect("sharded scan"));
        let through = t.elapsed();
        let t = Instant::now();
        std::hint::black_box(bare[shard_of(lo)].scan(lo, hi, narrow).expect("bare scan"));
        (through, t.elapsed())
    });
    r.set("shard_db.scan_overhead_pct", scan.0 / scan.1 * 100.0, 64);
    sharded.close()?;
    bare.iter().try_for_each(LaserDb::close)
}

/// Quorum-replicated against unreplicated `ShardedDb<LsmDb>` on the same
/// 16-put batches (the `kv_replicated` configuration).
fn replication(r: &mut Replay, s: &Sample, root: &Path) -> Result<()> {
    let batches: Vec<WriteBatch> = s
        .keys
        .chunks(16)
        .map(|keys| {
            let mut batch = WriteBatch::new();
            keys.iter().for_each(|&k| {
                batch.put(k, kv_value(&s.oracle, k));
            });
            batch
        })
        .collect();
    let open = |name: &str, replication: Option<ReplicationConfig>| -> Result<ShardedDb<LsmDb>> {
        let mut options = ShardedOptions::with_boundaries(vec![SHARD_BASE])
            .fanout_threads(2)
            .maintenance_workers(1);
        if let Some(config) = replication {
            options = options.replication(config);
        }
        let dir = CrashDir::new(root.join(name));
        ShardedDb::open(dir as Arc<dyn ShardStorageProvider>, lsm_options(), options)
    };

    let plain = open("replay-plain", None)?;
    r.median_call("repl.commit.plain", batches.iter(), |batch| {
        plain.write(batch).expect("unreplicated write");
    });
    plain.close()?;

    let replicated = open("replay-quorum", Some(ReplicationConfig::new(2)))?;
    let mut timeouts = 0u64;
    let mut lag_max = 0u64;
    r.median_call(
        "repl.commit.quorum",
        batches.iter().enumerate(),
        |(i, batch)| {
            timeouts += replicated.write(batch).is_err() as u64;
            if i % 64 == 0 {
                for shard in replicated.replication_status() {
                    for replica in &shard.replicas {
                        lag_max = lag_max.max(shard.leader_seq.saturating_sub(replica.applied_seq));
                    }
                }
            }
        },
    );
    let ((), ns) = r.span("repl.converge", || drain(&replicated));
    r.set("repl.converge_ms", ns / 1e6, 1);
    let quorum = r
        .values
        .remove("repl.commit.quorum")
        .expect("measured above");
    let plain = r
        .values
        .remove("repl.commit.plain")
        .expect("measured above");
    r.set(
        "repl.commit_overhead_us",
        (quorum.value - plain.value) / 1e3,
        batches.len() as u64,
    );
    r.set(
        "repl.lag_seqs_max",
        lag_max as f64,
        (batches.len() / 64) as u64,
    );
    r.set("repl.ack_timeouts", timeouts as f64, batches.len() as u64);
    replicated.close()
}
