//! The four workloads, the fixed run configuration, and the closed-loop
//! executor that drives them through the production path
//! (`ShardedDb` over real files, strict WAL sync, background maintenance,
//! replication where configured).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use laser_core::{LaserOptions, LayoutSpec};
use laser_sharding::{ReplicationConfig, ShardEngine, ShardedDb, ShardedOptions};
use lsm_storage::types::WriteBatch;
use lsm_storage::{Error, LsmOptions, Result};

use crate::crash::CrashDir;
use crate::gen::{key_of, row_of, KeyDist, Mix, Op, OpStream, Proj, SHARD_BASE, SHORT_SCAN_ROWS};
use crate::model::{matches, Adapter, Kv, Laser, Oracle, COLUMNS};
use crate::spans::Recorder;
use crate::stats::Latencies;

// ---------------------------------------------------------------------
// Fixed run configuration (recorded in every report)
// ---------------------------------------------------------------------

pub const NUM_LEVELS: usize = 8;
pub const SIZE_RATIO: u64 = 2;
pub const MEMTABLE_BYTES: usize = 1 << 20;
pub const LEVEL0_BYTES: u64 = 2 << 20;
pub const SST_BYTES: u64 = 1 << 20;
pub const MAINTENANCE_WORKERS: usize = 1;
/// Length of one slice of the timed phase. A trace run records spans in
/// every odd slice; slices are short so that traced and untraced ones share
/// every phase of the engine's slower rhythms (compaction, backpressure).
pub const SLICE_MS: u128 = 100;
/// Untimed load before the timed phase.
pub const WARMUP: Duration = Duration::from_secs(2);
/// Rows per preload batch.
const PRELOAD_BATCH: u64 = 64;
/// Rows per chunk of a verification scan (bounds the driver's memory).
const VERIFY_CHUNK: u64 = 8192;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `ShardedDb<LaserDb>`, layout `D-opt` of the paper.
    Laser,
    /// `ShardedDb<LsmDb>`, replication factor 2, quorum acks.
    KvReplicated,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub engine: EngineKind,
    /// Closed-loop client threads (never more than the 2 cores of the box).
    pub clients: u64,
    pub preload_rows: u64,
    /// Flush and compact to a stable tree after the preload (a cold,
    /// fully-merged start) instead of only draining background work.
    pub compact_after_preload: bool,
    pub cache_bytes: usize,
    /// Operations per second each client offers, or `None` to run flat out.
    /// A paced client still waits for every reply (closed loop); it only
    /// refuses to start operation `i` before `i / rate` seconds have passed.
    pub pace_ops_per_s: Option<u32>,
    pub mix: Mix,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hw_mix",
        why: "the paper's HW mix (Table 3, Fig. 8) through every layer at once, paced at 10k ops/s: inserts, recency-skewed projected gets, column updates, Q4/Q5 scans; the hot set fits the cache",
        engine: EngineKind::Laser,
        clients: 1,
        preload_rows: 96_000,
        compact_after_preload: false,
        cache_bytes: 16 << 20,
        // About half of what the seed sustains flat out. Flat out, this mix
        // outruns the single maintenance worker and the run becomes a
        // sequence of stalls whose timing decides every number.
        pace_ops_per_s: Some(10_000),
        mix: Mix {
            inserts: 2000,
            batch_rows: 1,
            gets: 1000,
            updates: 20,
            short_scans: 20,
            long_scans: 1,
            key_dist: KeyDist::PaperRecency,
        },
    },
    Workload {
        name: "ingest_durable",
        why: "write-only, 2 clients flat out: 16-row batches spanning both shards, so router split, WAL group commit, memtable insert, flush, CG compaction and backpressure do all the work",
        engine: EngineKind::Laser,
        clients: 2,
        preload_rows: 32_768,
        compact_after_preload: false,
        cache_bytes: 16 << 20,
        pace_ops_per_s: None,
        mix: Mix {
            inserts: 2000,
            batch_rows: 16,
            gets: 0,
            updates: 20,
            short_scans: 0,
            long_scans: 0,
            key_dist: KeyDist::PaperRecency,
        },
    },
    Workload {
        name: "read_cold",
        why: "read-only and seek-bound: uniform gets (10% absent), short and long scans over a compacted tree 15x the cache, so bloom, index, block decode, cache miss and CG stitching dominate",
        engine: EngineKind::Laser,
        clients: 1,
        preload_rows: 160_000,
        compact_after_preload: true,
        cache_bytes: 2 << 20,
        pace_ops_per_s: None,
        mix: Mix {
            inserts: 0,
            batch_rows: 1,
            gets: 5000,
            updates: 0,
            short_scans: 100,
            long_scans: 1,
            key_dist: KeyDist::Uniform { absent_share: 0.1 },
        },
    },
    Workload {
        name: "kv_replicated",
        why: "the row-engine shell and the ship/ack path: ShardedDb<LsmDb>, replication factor 2, quorum acks, 16-put batches plus gets; core-only changes are predicted flat here",
        engine: EngineKind::KvReplicated,
        clients: 1,
        preload_rows: 32_768,
        compact_after_preload: false,
        cache_bytes: 16 << 20,
        pace_ops_per_s: None,
        mix: Mix {
            inserts: 1000,
            batch_rows: 16,
            gets: 1000,
            updates: 0,
            short_scans: 0,
            long_scans: 0,
            key_dist: KeyDist::PaperRecency,
        },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Engine options of the fixed configuration.
pub trait Configured: Adapter {
    fn engine_options() -> <Self::Engine as ShardEngine>::Options;
    fn replication() -> Option<ReplicationConfig>;
}

pub fn laser_options() -> LaserOptions {
    let schema = laser_core::Schema::narrow();
    let layout = LayoutSpec::d_opt_paper(&schema).expect("30-column schema");
    let mut o = LaserOptions::new(layout);
    o.num_levels = NUM_LEVELS;
    o.size_ratio = SIZE_RATIO;
    o.memtable_size_bytes = MEMTABLE_BYTES;
    o.level0_size_bytes = LEVEL0_BYTES;
    o.sst_target_size_bytes = SST_BYTES;
    o.sync_wal = true;
    o.sync_wal_interval_ms = 0;
    o.block_cache_bytes = 0; // the sharded facade supplies the shared cache
    o
}

pub fn lsm_options() -> LsmOptions {
    LsmOptions {
        num_levels: NUM_LEVELS,
        size_ratio: SIZE_RATIO,
        memtable_size_bytes: MEMTABLE_BYTES,
        level0_size_bytes: LEVEL0_BYTES,
        sst_target_size_bytes: SST_BYTES,
        sync_wal: true,
        sync_wal_interval_ms: 0,
        block_cache_bytes: 0,
        ..LsmOptions::default()
    }
}

impl Configured for Laser {
    fn engine_options() -> LaserOptions {
        laser_options()
    }

    fn replication() -> Option<ReplicationConfig> {
        None
    }
}

impl Configured for Kv {
    fn engine_options() -> LsmOptions {
        lsm_options()
    }

    fn replication() -> Option<ReplicationConfig> {
        Some(ReplicationConfig::new(2)) // quorum acks by default
    }
}

pub type Db<A> = ShardedDb<<A as Adapter>::Engine>;

pub fn open_db<A: Configured>(w: &Workload, provider: &Arc<CrashDir>) -> Result<Db<A>> {
    let mut options = ShardedOptions::with_boundaries(vec![SHARD_BASE])
        .fanout_threads(2)
        .maintenance_workers(MAINTENANCE_WORKERS)
        .cache_bytes(w.cache_bytes);
    if let Some(replication) = A::replication() {
        options = options.replication(replication);
    }
    ShardedDb::open(
        Arc::clone(provider) as Arc<dyn laser_sharding::ShardStorageProvider>,
        A::engine_options(),
        options,
    )
}

/// Waits until background maintenance is idle and every replica has applied
/// everything its leader has.
pub fn drain<E: ShardEngine>(db: &ShardedDb<E>) {
    loop {
        db.wait_maintenance_idle();
        let converged = db.replication_status().iter().all(|shard| {
            shard
                .replicas
                .iter()
                .all(|r| r.applied_seq >= shard.leader_seq)
        });
        if converged && db.stats().bg_jobs_pending == 0 {
            return;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// A database opened on its own directory plus the per-client models of
/// everything acknowledged so far.
pub struct Instance<A: Configured> {
    pub provider: Arc<CrashDir>,
    pub db: Db<A>,
    pub oracles: Vec<Oracle>,
    /// Logical bytes (key + payload) of every acknowledged write.
    pub logical_bytes: u64,
}

/// Set-up: open + preload + settle, everything a run pays before its timed
/// phase. Returns the instance and the seconds it took.
pub fn setup<A: Configured>(
    w: &Workload,
    adapter: &A,
    dir: &Path,
    seed: u64,
) -> Result<(Instance<A>, f64)> {
    let start = Instant::now();
    let provider = CrashDir::new(dir);
    let db = open_db::<A>(w, &provider)?;
    let mut oracles = vec![Oracle::new(seed); w.clients as usize];
    let mut logical_bytes = 0;
    let owner = |row: u64| ((row / w.mix.batch_rows as u64) % w.clients) as usize;
    let mut row = 0;
    while row < w.preload_rows {
        let end = (row + PRELOAD_BATCH).min(w.preload_rows);
        let mut batch = WriteBatch::new();
        for r in row..end {
            logical_bytes += adapter.put_row(&mut batch, &oracles[owner(r)], key_of(r));
        }
        db.write(&batch)?;
        (row..end).for_each(|r| oracles[owner(r)].insert(key_of(r)));
        row = end;
    }
    drain(&db);
    if w.compact_after_preload {
        // Background work is idle by now, so the merge below runs alone and
        // writes the same bytes every time.
        db.flush()?;
        db.compact_until_stable()?;
        drain(&db);
    }
    let instance = Instance {
        provider,
        db,
        oracles,
        logical_bytes,
    };
    Ok((instance, start.elapsed().as_secs_f64()))
}

/// What one client measured during the timed phase.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Operations of the timed phase.
    pub ops: u64,
    /// Operations of the untimed warm-up before it.
    pub warmup_ops: u64,
    /// Operations of the post-drain probe.
    pub probe_ops: u64,
    pub failed: u64,
    pub logical_bytes: u64,
    pub commit: Latencies,
    pub get: Latencies,
    pub short_scan: Latencies,
    pub long_scan_rows: u64,
    /// Paced workloads: total time operations started after they were due.
    pub late_ns: u64,
    /// Per-long-scan rows per second.
    pub long_scan_rates: Vec<f64>,
    /// `(operations, busy nanoseconds)` per [`SLICE_MS`] slice of the phase;
    /// an operation belongs to the slice it started in.
    pub slices: Vec<(u64, u64)>,
    pub first_error: Option<String>,
}

impl ClientStats {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(what());
        }
    }

    /// This client's operations per second in each slice it was active in.
    pub fn slice_rates(&self) -> Vec<f64> {
        self.slices
            .iter()
            .map(|&(ops, ns)| {
                if ns == 0 {
                    0.0
                } else {
                    ops as f64 / (ns as f64 / 1e9)
                }
            })
            .collect()
    }

    /// Folds in another client. Slice rates are summed by the caller (clients
    /// run side by side), so `slices` is left alone.
    pub fn absorb(&mut self, other: ClientStats) {
        self.ops += other.ops;
        self.warmup_ops += other.warmup_ops;
        self.probe_ops += other.probe_ops;
        self.failed += other.failed;
        self.logical_bytes += other.logical_bytes;
        self.commit.extend(&other.commit);
        self.get.extend(&other.get);
        self.short_scan.extend(&other.short_scan);
        self.long_scan_rows += other.long_scan_rows;
        self.late_ns += other.late_ns;
        self.long_scan_rates.extend(other.long_scan_rates);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// One closed-loop client: issues its next operation only after the previous
/// one returned, and checks every result against its model.
struct Client<'a, A: Configured> {
    db: &'a Db<A>,
    adapter: &'a A,
    stream: OpStream,
    oracle: Oracle,
    stats: ClientStats,
    recorder: Option<Recorder>,
    tracing: bool,
    /// Seconds between operation starts when the workload is paced.
    pace_s: Option<f64>,
}

impl<A: Configured> Client<'_, A> {
    fn enter(&mut self, name: &'static str) {
        if self.tracing {
            self.recorder.as_mut().expect("tracing").enter(name);
        }
    }

    fn exit(&mut self) {
        if self.tracing {
            self.recorder.as_mut().expect("tracing").exit();
        }
    }

    fn run(&mut self, start: Instant, length: Duration) {
        let mut issued = 0u64;
        loop {
            let mut elapsed = start.elapsed();
            if let Some(pace_s) = self.pace_s {
                // Spin, not sleep: the gaps are tens of microseconds.
                let due = Duration::from_secs_f64(issued as f64 * pace_s);
                while elapsed < due {
                    std::hint::spin_loop();
                    elapsed = start.elapsed();
                }
                self.stats.late_ns += (elapsed - due).as_nanos() as u64;
                issued += 1;
            }
            if elapsed >= length {
                return;
            }
            // A trace run alternates untraced and traced slices, so both see
            // the same drifting database state.
            let slice = (elapsed.as_millis() / SLICE_MS) as usize;
            self.tracing = self.recorder.is_some() && slice % 2 == 1;
            if let (true, Some(r)) = (self.tracing, self.recorder.as_mut()) {
                r.next_op();
            }
            let op = self.stream.next().expect("endless stream");
            let begin = Instant::now();
            self.step(op);
            let busy = begin.elapsed().as_nanos() as u64;
            if self.stats.slices.len() <= slice {
                self.stats.slices.resize(slice + 1, (0, 0));
            }
            let (ops, ns) = &mut self.stats.slices[slice];
            *ops += 1;
            *ns += busy;
            self.stats.ops += 1;
        }
    }

    /// Runs exactly `count` operations, untraced (the post-drain probe).
    fn run_ops(&mut self, count: usize) {
        self.tracing = false;
        for _ in 0..count {
            let op = self.stream.next().expect("endless stream");
            self.step(op);
            self.stats.probe_ops += 1;
        }
    }

    fn step(&mut self, op: Op) {
        match op {
            Op::Insert { first_row, n } => {
                self.enter("op.insert");
                let begin = Instant::now();
                self.enter("row.encode");
                let mut batch = WriteBatch::new();
                let mut bytes = 0;
                for row in first_row..first_row + n as u64 {
                    bytes += self.adapter.put_row(&mut batch, &self.oracle, key_of(row));
                }
                self.exit();
                self.commit(&batch, begin, bytes);
                self.exit();
                (first_row..first_row + n as u64).for_each(|row| self.oracle.insert(key_of(row)));
            }
            Op::Update { row, col } => {
                self.enter("op.update");
                let begin = Instant::now();
                let key = key_of(row);
                self.oracle.update(key, col as usize);
                self.enter("row.encode");
                let mut batch = WriteBatch::new();
                let bytes = self
                    .adapter
                    .put_update(&mut batch, &self.oracle, key, col as usize);
                self.exit();
                self.commit(&batch, begin, bytes);
                self.exit();
            }
            Op::Get { row, proj, absent } => {
                self.enter("op.get");
                let key = key_of(row);
                self.enter("shard_db.get");
                let begin = Instant::now();
                let result = self.db.get(key, self.adapter.ctx(proj));
                self.stats.get.push(begin.elapsed().as_nanos() as u64);
                self.exit();
                match result {
                    Ok(None) if absent => {}
                    Ok(Some(value)) if !absent && matches::<A>(&value, &self.oracle, key, proj) => {
                    }
                    Ok(other) => self.stats.fail(|| {
                        format!(
                            "get row {row} {proj:?}: wrong result (present: {})",
                            other.is_some()
                        )
                    }),
                    Err(e) => self.stats.fail(|| format!("get row {row}: {e}")),
                }
                self.exit();
            }
            Op::ShortScan { shard, lo_local } => {
                let lo = shard as u64 * SHARD_BASE + lo_local;
                if let Some((ns, _)) = self.scan(lo, lo + SHORT_SCAN_ROWS - 1, Proj::Cols21To30) {
                    self.stats.short_scan.push(ns);
                }
            }
            Op::ScanQ4 {
                shard,
                lo_local,
                len,
            } => {
                let lo = shard as u64 * SHARD_BASE + lo_local;
                self.long_scan(lo, lo + len - 1, Proj::Cols21To30);
            }
            Op::ScanQ5 {
                lo_local0,
                hi_local1,
            } => self.long_scan(lo_local0, SHARD_BASE + hi_local1, Proj::Cols28To30),
        }
    }

    /// Durable write latency covers the row encode plus `ShardedDb::write`.
    fn commit(&mut self, batch: &WriteBatch, begin: Instant, bytes: u64) {
        self.enter("shard_db.write");
        let result = self.db.write(batch);
        self.exit();
        self.stats.commit.push(begin.elapsed().as_nanos() as u64);
        match result {
            Ok(()) => self.stats.logical_bytes += bytes,
            Err(e) => self.stats.fail(|| format!("write: {e}")),
        }
    }

    fn long_scan(&mut self, lo: u64, hi: u64, proj: Proj) {
        if let Some((ns, rows)) = self.scan(lo, hi, proj) {
            self.stats.long_scan_rows += rows;
            self.stats
                .long_scan_rates
                .push(rows as f64 / (ns as f64 / 1e9));
        }
    }

    /// Scans `[lo, hi]` and checks the rows this client owns against its
    /// model (rows of other clients may or may not have landed yet). Returns
    /// the scan's duration and row count unless it failed.
    fn scan(&mut self, lo: u64, hi: u64, proj: Proj) -> Option<(u64, u64)> {
        self.enter("op.scan");
        self.enter("shard_db.scan");
        let begin = Instant::now();
        let result = self.db.scan(lo, hi, self.adapter.ctx(proj));
        let ns = begin.elapsed().as_nanos() as u64;
        self.exit();
        let out = match result {
            Ok(rows) => {
                self.enter("oracle.check");
                let mut expected = self.oracle.range(lo, hi);
                let mut ok = true;
                for (key, value) in rows.iter().filter(|(k, _)| self.stream.owns(row_of(*k))) {
                    ok &= expected.next() == Some(*key)
                        && matches::<A>(value, &self.oracle, *key, proj);
                }
                ok &= expected.next().is_none();
                drop(expected);
                self.exit();
                if ok {
                    Some((ns, rows.len() as u64))
                } else {
                    self.stats
                        .fail(|| format!("scan [{lo}, {hi}] {proj:?}: rows differ from the model"));
                    None
                }
            }
            Err(e) => {
                self.stats.fail(|| format!("scan [{lo}, {hi}]: {e}"));
                None
            }
        };
        self.exit();
        out
    }
}

/// Result of a timed phase.
pub struct Phase {
    pub stats: ClientStats,
    pub elapsed_s: f64,
    /// Operations per second of all clients together, per slice.
    pub slice_rates: Vec<f64>,
    pub recorders: Vec<Recorder>,
}

/// Runs every client of `w` against `instance` for `seconds`; with `trace`,
/// each client records spans in every other slice.
pub fn timed_phase<A: Configured>(
    w: &Workload,
    adapter: &A,
    instance: &mut Instance<A>,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Phase {
    let barrier = Barrier::new(w.clients as usize);
    let length = Duration::from_secs_f64(seconds);
    let db = &instance.db;
    let oracles = std::mem::take(&mut instance.oracles);
    let clients: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = oracles
            .into_iter()
            .enumerate()
            .map(|(c, oracle)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client {
                        db,
                        adapter,
                        stream: OpStream::new(seed, w.mix, c as u64, w.clients, w.preload_rows),
                        oracle,
                        stats: ClientStats::default(),
                        recorder: None,
                        tracing: false,
                        pace_s: w.pace_ops_per_s.map(|rate| 1.0 / rate as f64),
                    };
                    // Untimed warm-up: set-up leaves Level 0 empty and no
                    // compaction debt, a state the first seconds of load
                    // leave for good. Only its failures and bytes count.
                    barrier.wait();
                    client.run(Instant::now(), WARMUP);
                    let warm = std::mem::take(&mut client.stats);
                    client.stats = ClientStats {
                        warmup_ops: warm.ops,
                        failed: warm.failed,
                        first_error: warm.first_error,
                        logical_bytes: warm.logical_bytes,
                        ..ClientStats::default()
                    };
                    client.recorder = trace.then(Recorder::new);
                    barrier.wait();
                    let begin = Instant::now();
                    client.run(begin, length);
                    (
                        client.oracle,
                        client.stats,
                        client.recorder,
                        begin.elapsed(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut elapsed_s = 0f64;
    let mut stats = ClientStats::default();
    let mut recorders = Vec::new();
    let mut slice_rates: Vec<f64> = Vec::new();
    for (oracle, client_stats, recorder, elapsed) in clients {
        elapsed_s = elapsed_s.max(elapsed.as_secs_f64());
        instance.oracles.push(oracle);
        let rates = client_stats.slice_rates();
        if slice_rates.len() < rates.len() {
            slice_rates.resize(rates.len(), 0.0);
        }
        rates
            .iter()
            .zip(&mut slice_rates)
            .for_each(|(r, sum)| *sum += r);
        stats.absorb(client_stats);
        recorders.extend(recorder);
    }
    instance.logical_bytes += stats.logical_bytes;
    Phase {
        stats,
        elapsed_s,
        slice_rates,
        recorders,
    }
}

/// Operation kinds a workload's own mix leaves out are measured here, on the
/// drained and fully compacted database, with fixed counts: every end-to-end metric exists on
/// every workload, the write-only and read-only workloads stay pure while
/// they are timed, and a quiescent, stable tree gives these numbers little
/// to vary with. Returns the model, probe writes included.
pub fn probe_phase<A: Configured>(
    w: &Workload,
    adapter: &A,
    instance: &Instance<A>,
    model: Oracle,
    seed: u64,
    stats: &mut ClientStats,
) -> Oracle {
    let m = w.mix;
    let missing = |count: u32, probe: u32| if count == 0 { probe } else { 0 };
    let mix = Mix {
        inserts: missing(m.inserts, 16_000),
        batch_rows: 1,
        gets: missing(m.gets, 4000),
        updates: 0,
        short_scans: missing(m.short_scans, 400),
        long_scans: missing(m.long_scans, 12),
        key_dist: m.key_dist,
    };
    let ops = (mix.inserts + mix.gets + mix.short_scans + mix.long_scans) as usize;
    if ops == 0 {
        return model;
    }
    // Every row below the slowest client's frontier exists; a faster client's
    // rows above it are in the model too, so scans that reach them still
    // check. New rows would collide with those, so only a single-client
    // workload may probe inserts.
    let existing = instance.oracles.iter().map(Oracle::len).min().unwrap_or(0) * w.clients;
    assert!(
        w.clients == 1 || mix.inserts == 0,
        "probe inserts need one client"
    );
    let mut client = Client {
        db: &instance.db,
        adapter,
        stream: OpStream::new(seed ^ 0x9e37, mix, 0, 1, existing),
        oracle: model,
        stats: std::mem::take(stats),
        recorder: None,
        tracing: false,
        pace_s: None,
    };
    client.run_ops(ops);
    *stats = client.stats;
    client.oracle
}

/// Outcome of comparing the database to the model row by row.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verification {
    pub rows_checked: u64,
    pub rows_wrong: u64,
    pub checksum_matches: bool,
}

/// Full scan in bounded chunks: every model row must be present with every
/// cell equal, nothing else may exist, and the FNV checksum over the scanned
/// `(key, 30 cells)` must equal the model's.
pub fn verify<A: Configured>(adapter: &A, db: &Db<A>, model: &Oracle) -> Result<Verification> {
    let mut out = Verification::default();
    let mut checksum = crate::gen::Fnv::default();
    for shard in 0..2u64 {
        let base = shard * SHARD_BASE;
        let end = model.range(base, base + SHARD_BASE - 1).last();
        let mut lo = base;
        // One chunk past the model's last key catches rows that should not exist.
        let stop = end.map_or(base, |k| k + 1) + VERIFY_CHUNK;
        while lo < stop {
            let hi = lo + VERIFY_CHUNK - 1;
            let mut found: BTreeMap<u64, [i64; COLUMNS]> = BTreeMap::new();
            for &proj in A::verify_projections() {
                for (key, value) in db.scan(lo, hi, adapter.ctx(proj))? {
                    let cells = found.entry(key).or_insert([-1; COLUMNS]);
                    for col in proj.columns() {
                        cells[col] = A::cell(&value, col).unwrap_or(-1);
                    }
                    if !A::has_shape(&value, proj) {
                        cells[proj.columns().start] = -1;
                    }
                }
            }
            let mut expected = model.range(lo, hi).peekable();
            for (key, cells) in &found {
                // Model rows the scans did not return.
                while expected.next_if(|k| k < key).is_some() {
                    out.rows_checked += 1;
                    out.rows_wrong += 1;
                }
                out.rows_checked += 1;
                let known = expected.next_if_eq(key).is_some();
                let equal = (0..COLUMNS).all(|col| cells[col] == model.cell(*key, col));
                out.rows_wrong += !(known && equal) as u64;
                checksum.word(*key);
                cells.iter().for_each(|&cell| checksum.word(cell as u64));
            }
            let missing = expected.count() as u64;
            out.rows_checked += missing;
            out.rows_wrong += missing;
            lo = hi + 1;
        }
    }
    out.checksum_matches = checksum.0 == model.checksum();
    Ok(out)
}

/// The merged model of every client.
pub fn merged_model<A: Configured>(instance: &Instance<A>) -> Oracle {
    let mut all = instance.oracles[0].clone();
    for other in &instance.oracles[1..] {
        all.absorb(other.clone());
    }
    all
}

/// Crash with unsynced bytes discarded, reopen, and time until the first get
/// of the newest acknowledged row returns. Returns the reopened instance, the
/// recovery seconds, whether that get matched the model, and the unsynced
/// bytes the crash discarded. The caller then checks every acknowledged
/// write with [`verify`].
pub fn crash_and_recover<A: Configured>(
    w: &Workload,
    adapter: &A,
    instance: Instance<A>,
    model: &Oracle,
) -> Result<(Instance<A>, f64, bool, u64)> {
    let Instance {
        provider,
        db,
        oracles,
        logical_bytes,
    } = instance;
    drop(db); // no close(): whatever was not fsynced is about to vanish
    let dropped = provider.crash().map_err(Error::from)?;
    let newest = model
        .range(0, SHARD_BASE - 1)
        .last()
        .expect("shard 0 holds rows");
    let begin = Instant::now();
    let db = open_db::<A>(w, &provider)?;
    let got = db.get(newest, adapter.ctx(Proj::All))?;
    let recovery_s = begin.elapsed().as_secs_f64();
    let first_get_ok = got.is_some_and(|v| matches::<A>(&v, model, newest, Proj::All));
    let instance = Instance {
        provider,
        db,
        oracles,
        logical_bytes,
    };
    Ok((instance, recovery_s, first_get_ok, dropped))
}
