//! One benchmark run, start to finish (see "Anatomy of a run" in
//! `bench/ledger/README.md`). Both kinds of run go through the same steps and
//! the same correctness checks; a `--trace 1` run sets up once, records spans
//! in the timed phase and adds the layer replays, and reports the per-layer
//! table instead of the end-to-end one.

use std::path::{Path, PathBuf};
use std::time::Instant;

use laser_sharding::{ShardEngine, ShardedDb};
use lsm_storage::types::WriteBatch;

use crate::json::{obj, Json};
use crate::layers::{self, LayerValue};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::model::Oracle;
use crate::workloads::{
    crash_and_recover, drain, merged_model, probe_phase, setup, timed_phase, verify, Configured,
    Db, Instance, Workload,
};
use crate::{gen, model, spans, stats, workloads, Args};

/// How often an end-to-end run sets up, to report a median set-up time.
const SETUP_REPEATS: usize = 3;
/// How often a run crashes and recovers, to report a median recovery time.
const RECOVERY_REPEATS: usize = 5;
/// Rows committed but not flushed when the crash hits (a multiple of 64;
/// half per shard, under the 1 MiB memtable so nothing freezes).
const RECOVERY_TAIL_ROWS: u64 = 8192;

/// Removes the run directory when the run ends, however it ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Operations attempted and failed so far, with the first failure's text.
struct Outcome {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Outcome {
    fn check(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.first_error.is_none() {
            self.first_error = Some(what());
        }
    }
}

pub fn run<A: Configured>(w: &Workload, args: &Args) -> lsm_storage::Result<Json> {
    let adapter = A::new();
    let root = RunDir(args.data_dir.join(format!("run-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&root.0);
    let begin = Instant::now();
    let note = |what: &str| {
        eprintln!(
            "[{:7.2}s] {}: {what}",
            begin.elapsed().as_secs_f64(),
            w.name
        )
    };

    // Set-up, several times over for a steady median; the last one is used.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_secs = Vec::new();
    let mut instance = None;
    for i in 0..repeats {
        drop(instance.take());
        if i > 0 {
            let _ = std::fs::remove_dir_all(root.0.join(format!("s{}", i - 1)));
        }
        let (fresh, secs) = setup::<A>(w, &adapter, &root.0.join(format!("s{i}")), args.seed)?;
        note(&format!("set-up {} of {repeats}: {secs:.3}s", i + 1));
        setup_secs.push(secs);
        instance = Some(fresh);
    }
    let mut instance = instance.expect("at least one set-up");
    let before = Counters::read::<A>(&instance.db);

    let mut phase = timed_phase::<A>(
        w,
        &adapter,
        &mut instance,
        args.seed,
        args.seconds,
        args.trace,
    );
    let last_ack = Instant::now();
    note(&format!(
        "timed phase: {} ops in {:.3}s, {} failed",
        phase.stats.ops, phase.elapsed_s, phase.stats.failed
    ));
    drain(&instance.db);
    let drain_s = last_ack.elapsed().as_secs_f64();
    let facade = Counters::read::<A>(&instance.db).since(&before, &phase.stats);
    let peak_rss = peak_rss_mb();
    let write_amp = instance.provider.io().bytes_written as f64 / instance.logical_bytes as f64;
    let mut outcome = Outcome {
        attempted: phase.stats.ops + phase.stats.warmup_ops,
        failed: phase.stats.failed,
        first_error: phase.stats.first_error.clone(),
    };

    // Durability from outside: crash with a fixed unflushed tail, discard
    // unsynced bytes, reopen, then demand every acknowledged write.
    let mut model = merged_model(&instance);
    write_recovery_tail::<A>(&adapter, &mut instance, &mut model)?;
    let mut recovery_secs = Vec::new();
    let mut dropped_bytes = 0;
    for _ in 0..RECOVERY_REPEATS {
        let (reopened, secs, first_get_ok, dropped) =
            crash_and_recover::<A>(w, &adapter, instance, &model)?;
        instance = reopened;
        recovery_secs.push(secs);
        dropped_bytes += dropped;
        outcome.check(1, !first_get_ok as u64, || {
            "newest acknowledged row lost in the crash".into()
        });
    }
    let after_crash = verify::<A>(&adapter, &instance.db, &model)?;
    note(&format!(
        "drained in {drain_s:.3}s; crash x{RECOVERY_REPEATS}: {} of {} rows wrong",
        after_crash.rows_wrong, after_crash.rows_checked
    ));

    // Settle: what a fully flushed and compacted tree occupies, and the
    // fixed-count probe of the operation kinds the mix leaves out.
    instance.db.flush()?;
    instance.db.compact_until_stable()?;
    drain(&instance.db);
    let row_bytes = adapter.put_row(&mut WriteBatch::new(), &model, gen::key_of(0)) as f64;
    let space_amp = instance.provider.bytes_on_storage() as f64 / (model.len() as f64 * row_bytes);
    let failed_before = phase.stats.failed;
    let model = probe_phase::<A>(w, &adapter, &instance, model, args.seed, &mut phase.stats);
    outcome.check(
        phase.stats.probe_ops,
        phase.stats.failed - failed_before,
        || phase.stats.first_error.clone().unwrap_or_default(),
    );
    let at_end = verify::<A>(&adapter, &instance.db, &model)?;
    note(&format!(
        "compacted, probed {} ops, verified",
        phase.stats.probe_ops
    ));
    for (what, v) in [
        ("after crash recovery", after_crash),
        ("after compaction", at_end),
    ] {
        outcome.check(
            v.rows_checked,
            v.rows_wrong + !v.checksum_matches as u64,
            || {
                let checksum = if v.checksum_matches { "ok" } else { "differs" };
                format!("{what}: {} rows wrong, checksum {checksum}", v.rows_wrong)
            },
        );
    }

    let commit = phase.stats.commit.summary();
    let get = phase.stats.get.summary();
    let short = phase.stats.short_scan.summary();
    let p50 = |s: Option<stats::LatencySummary>| s.map_or(f64::NAN, |s| s.p50_us);
    let tail = |s: Option<stats::LatencySummary>| s.map_or(f64::NAN, |s| s.tail_us);
    let tail_pct = |s: Option<stats::LatencySummary>| s.map_or(f64::NAN, |s| s.tail_pct);
    let samples = |l: &stats::Latencies| l.0.len() as u64;
    let recovery_s = stats::median(&recovery_secs);
    let error_share = outcome.failed as f64 / outcome.attempted as f64;
    let late_ms_per_op = phase.stats.late_ns as f64 / 1e6 / phase.stats.ops.max(1) as f64;

    let mut report = vec![
        ("workload", Json::from(w.name)),
        ("why", w.why.into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("config", config_json(w, &args.data_dir)),
        ("op_stream_digest", stream_digest(w, args.seed)),
        ("provisional_parallel", (w.clients > 1).into()),
        (
            "samples",
            obj([
                ("ops", phase.stats.ops.into()),
                ("warmup_ops", phase.stats.warmup_ops.into()),
                ("probe_ops", phase.stats.probe_ops.into()),
                ("commits", samples(&phase.stats.commit).into()),
                ("commit_tail_pct", tail_pct(commit).into()),
                ("gets", samples(&phase.stats.get).into()),
                ("get_tail_pct", tail_pct(get).into()),
                ("short_scans", samples(&phase.stats.short_scan).into()),
                (
                    "long_scans",
                    (phase.stats.long_scan_rates.len() as u64).into(),
                ),
                ("long_scan_rows", phase.stats.long_scan_rows.into()),
                (
                    "setups_s",
                    Json::Arr(setup_secs.iter().map(|&s| s.into()).collect()),
                ),
                (
                    "recoveries_s",
                    Json::Arr(recovery_secs.iter().map(|&s| s.into()).collect()),
                ),
                (
                    "slice_ops_per_s",
                    Json::Arr(phase.slice_rates.iter().map(|&s| s.into()).collect()),
                ),
                ("syncs", instance.provider.io().syncs.into()),
                ("rows_live", model.len().into()),
                ("unsynced_bytes_discarded", dropped_bytes.into()),
            ]),
        ),
        (
            "diag",
            obj([
                ("commit_p99_us", tail(commit).into()),
                ("get_p99_us", tail(get).into()),
                ("short_scan_p99_us", tail(short).into()),
                ("drain_s", drain_s.into()),
                ("recovery_s", recovery_s.into()),
                ("peak_rss_mb", peak_rss.into()),
                ("error_share", error_share.into()),
                ("late_ms_per_op", late_ms_per_op.into()),
            ]),
        ),
    ];

    let metrics = if args.trace {
        note("layer replays");
        let (mut values, replay_spans) =
            layers::measure::<A>(w, &adapter, &instance, &phase, &facade, args.seed, &root.0)?;
        let mut diag = |name, value, samples| values.insert(name, LayerValue { value, samples });
        diag(
            "diag.commit_p99_us",
            tail(commit),
            samples(&phase.stats.commit),
        );
        diag("diag.get_p99_us", tail(get), samples(&phase.stats.get));
        diag("diag.drain_s", drain_s, 1);
        diag("diag.recovery_s", recovery_s, recovery_secs.len() as u64);
        diag("diag.peak_rss_mb", peak_rss, 1);
        diag("diag.error_share", error_share, outcome.attempted);
        let mut all = spans::Recorder::new();
        std::mem::take(&mut phase.recorders)
            .into_iter()
            .for_each(|r| all.merge(r));
        report.push(("spans", span_json(&all, &replay_spans)));
        let trace_path = match &args.json {
            Some(p) => p.with_extension("trace.json"),
            None => args.data_dir.join(format!("trace-{}.json", w.name)),
        };
        std::fs::write(&trace_path, all.chrome_trace(w.name))?;
        note(&format!("chrome trace: {}", trace_path.display()));
        Json::Obj(
            PER_LAYER
                .iter()
                .map(|m| {
                    let v = values
                        .get(m.name)
                        .unwrap_or_else(|| panic!("layer metric {} was not measured", m.name));
                    let fields = obj([
                        ("value", v.value.into()),
                        ("unit", m.unit.into()),
                        ("samples", v.samples.into()),
                    ]);
                    (m.name.to_string(), fields)
                })
                .collect(),
        )
    } else {
        let values = [
            ("setup_s", stats::median(&setup_secs)),
            ("ops_per_s", phase.stats.ops as f64 / phase.elapsed_s),
            ("commit_p50_us", p50(commit)),
            ("get_p50_us", p50(get)),
            ("short_scan_p50_us", p50(short)),
            (
                "scan_rows_per_s",
                stats::median(&phase.stats.long_scan_rates),
            ),
            ("write_amp", write_amp),
            ("space_amp", space_amp),
        ];
        Json::Obj(
            END_TO_END
                .iter()
                .map(|m| {
                    let (_, v) = values
                        .iter()
                        .find(|(n, _)| *n == m.name)
                        .expect("every end-to-end metric is measured");
                    let fields = obj([("value", (*v).into()), ("unit", m.unit.into())]);
                    (m.name.to_string(), fields)
                })
                .collect(),
        )
    };
    instance.db.close()?;

    if let Some(e) = &outcome.first_error {
        eprintln!("perf_ledger: {}: first failure: {e}", w.name);
    }
    report.extend([
        ("correct", (outcome.failed == 0).into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        (
            "first_error",
            outcome
                .first_error
                .as_deref()
                .map_or(Json::Null, Json::from),
        ),
        ("wall_s", begin.elapsed().as_secs_f64().into()),
        ("metrics", metrics),
        ("claim", Json::Null),
    ]);
    Ok(Json::Obj(
        report
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    ))
}

/// Gives every crash the same amount of log to replay: flushes, then commits
/// [`RECOVERY_TAIL_ROWS`] new rows that stay in the memtables (and the WAL).
/// Without this the unflushed tail at the end of a timed phase is anywhere
/// between nothing and a full memtable, and recovery time varies fourfold.
fn write_recovery_tail<A: Configured>(
    adapter: &A,
    instance: &mut Instance<A>,
    model: &mut Oracle,
) -> lsm_storage::Result<()> {
    instance.db.flush()?;
    drain(&instance.db);
    let newest = model.range(0, u64::MAX).map(gen::row_of).max().unwrap_or(0);
    let first = (newest + 2) & !1; // even: the tail starts on shard 0
    for chunk in (first..first + RECOVERY_TAIL_ROWS).step_by(64) {
        let mut batch = WriteBatch::new();
        for row in chunk..chunk + 64 {
            instance.logical_bytes += adapter.put_row(&mut batch, model, gen::key_of(row));
        }
        instance.db.write(&batch)?;
        (chunk..chunk + 64).for_each(|row| model.insert(gen::key_of(row)));
    }
    Ok(())
}

/// Cumulative counters of the facade and the engines behind it.
struct Counters {
    stats: laser_sharding::ShardedStatsSnapshot,
    stalls: u64,
    slowdowns: u64,
    flush_compact_bytes: u64,
}

impl Counters {
    fn read<A: Configured>(db: &Db<A>) -> Counters {
        let shards = db.shards();
        let (stalls, slowdowns) = shards.iter().fold((0, 0), |acc, engine| {
            let (stalls, slowdowns) = A::throttle_events(engine);
            (acc.0 + stalls, acc.1 + slowdowns)
        });
        Counters {
            stats: db.stats(),
            stalls,
            slowdowns,
            flush_compact_bytes: flush_compact_bytes(db),
        }
    }

    /// What happened between `before` and now, i.e. over warm-up + timed phase.
    fn since(&self, before: &Counters, phase: &workloads::ClientStats) -> layers::FacadeDeltas {
        let cache = match (before.stats.cache, self.stats.cache) {
            (Some(a), Some(b)) => (
                b.hits - a.hits,
                b.misses - a.misses,
                b.evictions - a.evictions,
            ),
            _ => (0, 0, 0),
        };
        layers::FacadeDeltas {
            stats: self.stats.delta_since(&before.stats),
            cache,
            stalls: self.stalls - before.stalls,
            slowdowns: self.slowdowns - before.slowdowns,
            flush_compact_bytes: self.flush_compact_bytes - before.flush_compact_bytes,
            logical_bytes: phase.logical_bytes,
        }
    }
}

fn flush_compact_bytes<E: ShardEngine>(db: &ShardedDb<E>) -> u64 {
    db.shards()
        .iter()
        .map(|e| e.shard_flush_compact_bytes())
        .sum()
}

fn stream_digest(w: &Workload, seed: u64) -> Json {
    let stream = gen::OpStream::new(seed, w.mix, 0, w.clients, w.preload_rows);
    Json::Str(format!("{:016x}", gen::digest(stream, 10_000)))
}

fn config_json(w: &Workload, data_dir: &Path) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("engine", format!("{:?}", w.engine).as_str().into()),
        ("schema_columns", (model::COLUMNS as u64).into()),
        ("layout", "d_opt_paper".into()),
        ("levels", (workloads::NUM_LEVELS as u64).into()),
        ("size_ratio", workloads::SIZE_RATIO.into()),
        ("memtable_bytes", (workloads::MEMTABLE_BYTES as u64).into()),
        ("level0_bytes", workloads::LEVEL0_BYTES.into()),
        ("sst_bytes", workloads::SST_BYTES.into()),
        ("sync_wal", true.into()),
        ("sync_wal_interval_ms", 0u64.into()),
        ("shards", 2u64.into()),
        ("maintenance_workers", (workloads::MAINTENANCE_WORKERS as u64).into()),
        ("cache_bytes", (w.cache_bytes as u64).into()),
        ("clients", w.clients.into()),
        (
            "pace_ops_per_s",
            w.pace_ops_per_s.map_or(Json::Null, |r| (r as u64).into()),
        ),
        ("warmup_s", workloads::WARMUP.as_secs_f64().into()),
        ("preload_rows", w.preload_rows.into()),
        ("loop", "closed".into()),
        (
            "storage",
            "FileStorage on files under the data dir; syncs recorded and counted, not issued (CrashDir)"
                .into(),
        ),
        ("data_dir", data_dir.display().to_string().as_str().into()),
        ("nproc", (nproc as u64).into()),
    ])
}

fn span_json(spans: &spans::Recorder, replay: &[(&'static str, spans::SpanTotals)]) -> Json {
    let row = |name: &str, t: &spans::SpanTotals| {
        obj([
            ("name", name.into()),
            ("count", t.count.into()),
            ("total_ns", t.total_ns.into()),
            ("self_ns", t.self_ns.into()),
        ])
    };
    let mut rows: Vec<Json> = spans.totals().iter().map(|(n, t)| row(n, t)).collect();
    rows.extend(replay.iter().map(|(n, t)| row(n, t)));
    Json::Arr(rows)
}
