//! Read-path bench: point gets and short/long range scans against a
//! multi-level tree with configurable overlap, comparing the tournament-tree
//! merge stack (heap merge + lazy per-level concat + streaming visibility
//! filter) against the pre-overhaul naive merge (one child per overlapping
//! file, O(k) linear re-scan per `next()`, per-entry `InternalKey` decode).
//!
//! Both paths scan the *same* windows of the same tree and must produce
//! byte-identical rows — the equivalence checksum is enforced, the speedup
//! is reported, and CI gates `gate_long_scan_rows_per_sec`,
//! `gate_short_scan_rows_per_sec` and `gate_point_gets_per_sec` against
//! `bench/baselines/BENCH_read.json`.
//!
//! The tree is shaped so the naive merge width at full range is well past 8:
//! several compacted rounds populate the deep levels with many disjoint SSTs
//! each, a stack of full-range runs sits on Level-0, and a slice of fresh
//! overwrites (plus scattered tombstones) stays in the memtable.

use std::time::Instant;

use crate::harness::deterministic_value as value_for;
use lsm_storage::hash::{fnv1a_64_fold, FNV1A_64_OFFSET};
use lsm_storage::iterator::naive_visible_scan;
use lsm_storage::types::{UserKey, WriteBatch, MAX_SEQNO};
use lsm_storage::{LsmDb, LsmOptions, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use telemetry::Telemetry;

/// Workload parameters of one read-path run.
#[derive(Debug, Clone)]
pub struct ReadPathConfig {
    /// Distinct user keys in the tree.
    pub keys: u64,
    /// Value payload size in bytes.
    pub value_bytes: usize,
    /// Full-keyspace overwrite rounds compacted into the deep levels.
    pub deep_rounds: usize,
    /// Full-range runs left stacked (uncompacted) on Level-0 — the overlap
    /// knob: every run overlaps every scan window.
    pub l0_files: usize,
    /// Point lookups measured.
    pub point_gets: u64,
    /// Short scans measured, each `short_scan_len` keys wide.
    pub short_scans: u64,
    /// Keys per short scan.
    pub short_scan_len: u64,
    /// Long scans measured, each `long_scan_len` keys wide.
    pub long_scans: u64,
    /// Keys per long scan.
    pub long_scan_len: u64,
}

impl Default for ReadPathConfig {
    fn default() -> Self {
        ReadPathConfig {
            keys: 40_000,
            value_bytes: 64,
            deep_rounds: 3,
            l0_files: 8,
            point_gets: 4_000,
            short_scans: 1_500,
            short_scan_len: 32,
            long_scans: 30,
            long_scan_len: 20_000,
        }
    }
}

impl ReadPathConfig {
    /// A tiny configuration for CI smoke runs.
    pub fn smoke() -> Self {
        ReadPathConfig {
            keys: 12_000,
            value_bytes: 48,
            deep_rounds: 2,
            l0_files: 6,
            // Enough gets that the three-pass overhead comparison (detached /
            // attached / attached+traced) is not dominated by timing noise.
            point_gets: 4_000,
            short_scans: 400,
            short_scan_len: 32,
            long_scans: 10,
            long_scan_len: 8_000,
        }
    }
}

/// Measurements of one run (same tree, both merge implementations).
#[derive(Debug, Clone)]
pub struct ReadPathReport {
    /// SST count per level after the build phase.
    pub files_per_level: Vec<usize>,
    /// Merge width of a full-range scan under the naive flat child list.
    pub naive_merge_width: usize,
    /// Merge width of the same scan under the per-level concat stack.
    pub new_merge_width: usize,
    /// Point lookups per second (new read path), telemetry detached — the
    /// registry-disabled baseline of the instrumentation-overhead gate.
    pub point_gets_per_sec: f64,
    /// Point lookups per second with telemetry attached (same keys, run
    /// second so any residual cache warming favours this pass — the gate
    /// bounds overhead, not a strict A/B).
    pub instrumented_point_gets_per_sec: f64,
    /// Relative throughput cost of telemetry on point gets, in percent
    /// (negative when the instrumented pass ran faster).
    pub telemetry_overhead_pct: f64,
    /// Point lookups per second with telemetry attached and span tracing
    /// sampling 1 in 64 ops (the default production rate).
    pub traced_point_gets_per_sec: f64,
    /// Relative throughput cost of 1-in-64 span tracing over the attached
    /// pass with sampling disabled, in percent (negative when the traced
    /// pass ran faster).
    pub tracing_overhead_pct: f64,
    /// Median point-get latency (ns) from the attached histogram.
    pub get_p50_ns: u64,
    /// 95th-percentile point-get latency (ns).
    pub get_p95_ns: u64,
    /// 99th-percentile point-get latency (ns).
    pub get_p99_ns: u64,
    /// Rows per second over the short-scan windows, naive merge.
    pub naive_short_rows_per_sec: f64,
    /// Rows per second over the short-scan windows, tournament stack.
    pub new_short_rows_per_sec: f64,
    /// Rows per second over the long-scan windows, naive merge.
    pub naive_long_rows_per_sec: f64,
    /// Rows per second over the long-scan windows, tournament stack.
    pub new_long_rows_per_sec: f64,
    /// Rows returned across all long-scan windows (identical for both paths
    /// when the checksums agree).
    pub long_rows: u64,
    /// FNV-1a checksum of every `(key, value)` the naive path returned
    /// (short + long windows).
    pub naive_checksum: u64,
    /// The same checksum for the tournament stack.
    pub new_checksum: u64,
}

impl ReadPathReport {
    /// True if both merge implementations returned byte-identical rows.
    pub fn checksums_agree(&self) -> bool {
        self.naive_checksum == self.new_checksum
    }

    /// Long-scan speedup of the tournament stack over the naive merge.
    pub fn long_scan_speedup(&self) -> f64 {
        if self.naive_long_rows_per_sec > 0.0 {
            self.new_long_rows_per_sec / self.naive_long_rows_per_sec
        } else {
            0.0
        }
    }

    /// Short-scan speedup of the tournament stack over the naive merge.
    pub fn short_scan_speedup(&self) -> f64 {
        if self.naive_short_rows_per_sec > 0.0 {
            self.new_short_rows_per_sec / self.naive_short_rows_per_sec
        } else {
            0.0
        }
    }
}

/// Engine options sized so `deep_rounds` of data settle into several
/// populated levels of many small disjoint SSTs, while each Level-0 run
/// flushes as exactly one file.
fn engine_options() -> LsmOptions {
    let mut options = LsmOptions::small_for_tests();
    options.memtable_size_bytes = 4 << 20;
    options.level0_size_bytes = 256 << 10;
    options.size_ratio = 4;
    options.num_levels = 5;
    options.sst_target_size_bytes = 128 << 10;
    options.auto_compact = false;
    // Every block stays cached so the comparison measures merge cost, not
    // repeated block reads (both paths share the cache).
    options.block_cache_bytes = 64 << 20;
    options
}

/// Builds the bench tree: `deep_rounds` compacted full-keyspace rounds, then
/// `l0_files` interleaved full-range runs stacked on Level-0 (with scattered
/// tombstones), then a fresh overwrite slice left in the memtable.
fn build_tree(config: &ReadPathConfig) -> Result<LsmDb> {
    let db = LsmDb::open_in_memory(engine_options())?;
    let mut batch = WriteBatch::new();
    let flush_batch = |db: &LsmDb, batch: &mut WriteBatch| -> Result<()> {
        if !batch.is_empty() {
            db.write(&std::mem::take(batch))?;
        }
        Ok(())
    };
    for round in 0..config.deep_rounds as u64 {
        for key in 0..config.keys {
            batch.put(key, value_for(key, round, config.value_bytes));
            if batch.len() >= 128 {
                flush_batch(&db, &mut batch)?;
            }
        }
        flush_batch(&db, &mut batch)?;
        db.flush()?;
        db.compact_until_stable()?;
    }
    // Level-0 stack: run `i` rewrites every key congruent to `i` modulo the
    // run count, so each run spans the whole key range (maximal overlap) and
    // the runs are disjoint in content. Every 311th key of a run becomes a
    // tombstone so the visibility filter is exercised.
    for run in 0..config.l0_files as u64 {
        let round = config.deep_rounds as u64 + run;
        let mut key = run;
        while key < config.keys {
            if key % 311 == run {
                batch.delete(key);
            } else {
                batch.put(key, value_for(key, round, config.value_bytes));
            }
            if batch.len() >= 128 {
                flush_batch(&db, &mut batch)?;
            }
            key += config.l0_files as u64;
        }
        flush_batch(&db, &mut batch)?;
        db.flush()?;
    }
    // Fresh tail in the memtable.
    let mut key = 0;
    while key < config.keys {
        batch.put(key, value_for(key, 9_999, config.value_bytes));
        if batch.len() >= 128 {
            flush_batch(&db, &mut batch)?;
        }
        key += 97;
    }
    flush_batch(&db, &mut batch)?;
    Ok(db)
}

/// The pre-overhaul scan drain: flat naive merge through the substrate's
/// shared reference (`lsm_storage::iterator::naive_visible_scan` — the same
/// reference the property tests pin `scan_at` against, so bench and tests
/// can never drift apart).
fn naive_scan(db: &LsmDb, lo: UserKey, hi: UserKey) -> Result<Vec<(UserKey, Vec<u8>)>> {
    naive_visible_scan(&mut db.naive_range_iterator(lo, hi)?, lo, hi, MAX_SEQNO)
}

/// Deterministic scan windows: `count` windows of `len` keys.
fn windows(config: &ReadPathConfig, count: u64, len: u64, seed: u64) -> Vec<(UserKey, UserKey)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = len.min(config.keys).max(1);
    (0..count)
        .map(|_| {
            let lo = rng.gen_range(0..config.keys.saturating_sub(len) + 1);
            (lo, lo + len - 1)
        })
        .collect()
}

/// Scans every window with `scan`, folding rows into the running FNV-1a
/// checksum state incrementally (O(1) extra memory — no buffered copy of
/// the scanned bytes distorting the timed region). Returns `(rows, seconds)`.
fn drive_scans(
    windows: &[(UserKey, UserKey)],
    checksum: &mut u64,
    mut scan: impl FnMut(UserKey, UserKey) -> Result<Vec<(UserKey, Vec<u8>)>>,
) -> Result<(u64, f64)> {
    let start = Instant::now();
    let mut rows = 0u64;
    for &(lo, hi) in windows {
        let result = scan(lo, hi)?;
        rows += result.len() as u64;
        for (key, value) in &result {
            *checksum = fnv1a_64_fold(*checksum, &key.to_be_bytes());
            *checksum = fnv1a_64_fold(*checksum, value);
        }
    }
    Ok((rows, start.elapsed().as_secs_f64()))
}

/// Runs the full read-path comparison.
pub fn run_read_path(config: &ReadPathConfig) -> Result<ReadPathReport> {
    let db = build_tree(config)?;
    let files_per_level: Vec<usize> = db.level_files().iter().map(|l| l.len()).collect();
    let naive_merge_width = db.naive_range_iterator(0, config.keys - 1)?.num_children();
    let new_merge_width = db.range(0, config.keys - 1, MAX_SEQNO)?.merge_width();

    // Warm the block cache once for each path so neither measurement pays
    // first-touch decoding for the other.
    naive_scan(&db, 0, config.keys - 1)?;
    db.scan(0, config.keys - 1)?;

    let short = windows(config, config.short_scans, config.short_scan_len, 0xA11CE);
    let long = windows(config, config.long_scans, config.long_scan_len, 0xB0B);

    // Tournament stack first, naive second: any residual cache-warming bias
    // favours the baseline.
    let mut new_checksum = FNV1A_64_OFFSET;
    let (new_short_rows, new_short_secs) = drive_scans(&short, &mut new_checksum, |lo, hi| {
        db.scan_at(lo, hi, MAX_SEQNO)
    })?;
    let (new_long_rows, new_long_secs) = drive_scans(&long, &mut new_checksum, |lo, hi| {
        db.scan_at(lo, hi, MAX_SEQNO)
    })?;

    let mut naive_checksum = FNV1A_64_OFFSET;
    let (naive_short_rows, naive_short_secs) =
        drive_scans(&short, &mut naive_checksum, |lo, hi| {
            naive_scan(&db, lo, hi)
        })?;
    let (naive_long_rows, naive_long_secs) =
        drive_scans(&long, &mut naive_checksum, |lo, hi| naive_scan(&db, lo, hi))?;
    debug_assert_eq!(naive_short_rows, new_short_rows);

    // Point gets over uniformly random keys (the overhauled lock-free path),
    // first with telemetry detached: the one-branch disabled cost.
    let mut rng = StdRng::seed_from_u64(0x9E77);
    let start = Instant::now();
    let mut hits = 0u64;
    for _ in 0..config.point_gets {
        if db.get(rng.gen_range(0..config.keys))?.is_some() {
            hits += 1;
        }
    }
    let gets_secs = start.elapsed().as_secs_f64();
    assert!(hits > 0, "point-get phase found no keys");

    // The same keys again with telemetry attached but span-trace sampling
    // off: measures the pure instrumentation cost (timestamping + histogram
    // update per get) and yields the latency percentiles for the report.
    let hub = Telemetry::new();
    db.attach_telemetry(&hub, "db");
    hub.tracer().set_sample_every(0);
    let mut rng = StdRng::seed_from_u64(0x9E77);
    let start = Instant::now();
    let mut instrumented_hits = 0u64;
    for _ in 0..config.point_gets {
        if db.get(rng.gen_range(0..config.keys))?.is_some() {
            instrumented_hits += 1;
        }
    }
    let instrumented_secs = start.elapsed().as_secs_f64();
    assert_eq!(hits, instrumented_hits, "instrumented pass diverged");

    // And once more with span tracing at the default 1-in-64 production
    // rate: the marginal cost of request tracing on top of metrics.
    hub.tracer().set_sample_every(64);
    let mut rng = StdRng::seed_from_u64(0x9E77);
    let start = Instant::now();
    let mut traced_hits = 0u64;
    for _ in 0..config.point_gets {
        if db.get(rng.gen_range(0..config.keys))?.is_some() {
            traced_hits += 1;
        }
    }
    let traced_secs = start.elapsed().as_secs_f64();
    assert_eq!(hits, traced_hits, "traced pass diverged");
    let get_hist = hub
        .registry()
        .aggregate_histogram("laser_get_latency_ns")
        .expect("get histogram registered by attach_telemetry");
    let point_gets_per_sec = config.point_gets as f64 / gets_secs.max(1e-9);
    let instrumented_point_gets_per_sec = config.point_gets as f64 / instrumented_secs.max(1e-9);
    let traced_point_gets_per_sec = config.point_gets as f64 / traced_secs.max(1e-9);

    Ok(ReadPathReport {
        files_per_level,
        naive_merge_width,
        new_merge_width,
        point_gets_per_sec,
        instrumented_point_gets_per_sec,
        telemetry_overhead_pct: (1.0
            - instrumented_point_gets_per_sec / point_gets_per_sec.max(1e-9))
            * 100.0,
        traced_point_gets_per_sec,
        tracing_overhead_pct: (1.0
            - traced_point_gets_per_sec / instrumented_point_gets_per_sec.max(1e-9))
            * 100.0,
        get_p50_ns: get_hist.p50(),
        get_p95_ns: get_hist.p95(),
        get_p99_ns: get_hist.p99(),
        naive_short_rows_per_sec: naive_short_rows as f64 / naive_short_secs.max(1e-9),
        new_short_rows_per_sec: new_short_rows as f64 / new_short_secs.max(1e-9),
        naive_long_rows_per_sec: naive_long_rows as f64 / naive_long_secs.max(1e-9),
        new_long_rows_per_sec: new_long_rows as f64 / new_long_secs.max(1e-9),
        long_rows: new_long_rows,
        naive_checksum,
        new_checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The equivalence criterion at miniature scale: both merge stacks
    /// return byte-identical rows over a tree with real overlap.
    #[test]
    fn smoke_run_is_equivalent_and_wide() {
        let config = ReadPathConfig {
            keys: 8_000,
            value_bytes: 32,
            deep_rounds: 2,
            l0_files: 5,
            point_gets: 50,
            short_scans: 20,
            short_scan_len: 16,
            long_scans: 3,
            long_scan_len: 6_000,
        };
        let report = run_read_path(&config).unwrap();
        assert!(
            report.checksums_agree(),
            "merge stacks diverged: {report:?}"
        );
        assert!(report.long_rows > 0);
        assert!(
            report.naive_merge_width >= 8,
            "naive width {} too small to be interesting",
            report.naive_merge_width
        );
        assert!(
            report.new_merge_width <= report.naive_merge_width,
            "concat stack must not widen the merge"
        );
    }
}
