//! The metric tables: names, units and direction of every end-to-end and
//! per-layer metric, in the order `BENCHMARK.json` lists them. A unit test
//! keeps the two in step.

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    e2e(name, unit, higher_is_better, 0.0)
}

pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("commit_p50_us", "us", false, 0.25),
    e2e("get_p50_us", "us", false, 0.25),
    e2e("short_scan_p50_us", "us", false, 0.25),
    e2e("scan_rows_per_s", "1/s", true, 0.25),
    e2e("write_amp", "ratio", false, 0.06),
    e2e("space_amp", "ratio", false, 0.03),
];

/// Per-layer metrics, named `<layer>.<metric>` after the repo's modules.
/// Direction is what an optimisation of that layer would aim for.
pub const PER_LAYER: [Metric; 60] = [
    // sharding::router
    layer("router.shard_of_ns", "ns", false),
    layer("router.cross_shard_batch_ratio", "ratio", false),
    // sharding::db (through ShardedDb minus through bare engines)
    layer("shard_db.write_overhead_ns", "ns", false),
    layer("shard_db.get_overhead_ns", "ns", false),
    layer("shard_db.scan_overhead_pct", "%", false),
    layer("shard_db.fanout_scans", "count", true),
    // sharding::replication
    layer("repl.commit_overhead_us", "us", false),
    layer("repl.converge_ms", "ms", false),
    layer("repl.lag_seqs_max", "count", false),
    layer("repl.ack_timeouts", "count", false),
    // lsm_storage::wal_segment
    layer("wal.append_ns", "ns", false),
    layer("wal.durable_wait_ns", "ns", false),
    layer("wal.fsyncs_per_commit", "ratio", false),
    layer("wal.coalesced_ack_ratio", "ratio", true),
    layer("wal.bytes_per_user_byte", "ratio", false),
    layer("wal.rotations", "count", false),
    layer("wal.replay_records_per_s", "1/s", true),
    // lsm_storage::{memtable, skiplist}
    layer("memtable.insert_ns", "ns", false),
    layer("memtable.get_ns", "ns", false),
    layer("memtable.iter_rows_per_s", "1/s", true),
    // lsm_storage::{sst, block, bloom}
    layer("sst.build_mb_per_s", "MB/s", true),
    layer("sst.get_cached_ns", "ns", false),
    layer("sst.get_cold_ns", "ns", false),
    layer("sst.get_absent_ns", "ns", false),
    layer("bloom.false_positive_ratio", "ratio", false),
    layer("block.decode_ns", "ns", false),
    layer("block.seek_ns", "ns", false),
    layer("sst.iter_rows_per_s", "1/s", true),
    // lsm_storage::cache
    layer("cache.hit_ratio", "ratio", true),
    layer("cache.evictions", "count", false),
    // lsm_storage::iterator
    layer("merge.next_ns_w8", "ns", false),
    layer("range_iter.rows_per_s", "1/s", true),
    // core::row
    layer("row.encode_ns", "ns", false),
    layer("row.decode_full_ns", "ns", false),
    layer("row.decode_3of30_ns", "ns", false),
    layer("row.merge_over_ns", "ns", false),
    // core::{db, iters}, one bare engine
    layer("laser.write_ns", "ns", false),
    layer("laser.read_ns", "ns", false),
    layer("laser.cgs_per_get", "count", false),
    layer("laser.scan_rows_per_s_1cg", "1/s", true),
    layer("laser.scan_rows_per_s_allcg", "1/s", true),
    layer("laser.blocks_per_scan_row", "ratio", false),
    layer("laser.flush_mb_per_s", "MB/s", true),
    layer("laser.compact_mb_per_s", "MB/s", true),
    layer("laser.compaction_bytes_per_user_byte", "ratio", false),
    // lsm_storage::db
    layer("lsm.put_ns", "ns", false),
    layer("lsm.get_ns", "ns", false),
    // lsm_storage::maintenance
    layer("maint.stall_events", "count", false),
    layer("maint.slowdown_events", "count", false),
    layer("maint.bg_jobs", "count", false),
    // lsm_storage::storage
    layer("io.blocks_read_per_get", "ratio", false),
    layer("io.bytes_read_per_scan_row", "ratio", false),
    layer("io.syncs", "count", false),
    // the recorder itself: traced against untraced slices of one run
    layer("trace.overhead_pct", "%", false),
    // end-to-end quantities too unsteady on a 2-core sandbox to carry a bound
    layer("diag.commit_p99_us", "us", false),
    layer("diag.get_p99_us", "us", false),
    layer("diag.drain_s", "s", false),
    layer("diag.recovery_s", "s", false),
    layer("diag.peak_rss_mb", "MiB", false),
    layer("diag.error_share", "ratio", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` at the root of the repo lists exactly these
    /// workloads and metrics, in this order, with these units and bounds.
    #[test]
    fn benchmark_json_is_in_step_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        assert!(expected
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).unwrap().as_array();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(text(j, "name"), m.name);
                assert_eq!(text(j, "unit"), m.unit, "{}", m.name);
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(text(j, "better"), better, "{}", m.name);
                assert_eq!(
                    j.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                    m.bound,
                    "{}",
                    m.name
                );
                assert!(m.bound <= 0.25);
            }
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used once"
        );
    }
}
