//! Bench mode for the read-path overhaul: point gets and short/long scans
//! against a multi-level tree with configurable overlap, comparing the
//! tournament-tree merge stack against the pre-overhaul naive merge on the
//! same windows (byte-identical results enforced by checksum).
//!
//! Usage: `cargo run --release --bin read_path [--smoke] [keys] [l0_files]
//!         [--json PATH] [--baseline PATH]`
//!
//! `--json` writes a machine-readable `BENCH_read.json` report (uploaded as
//! a CI artifact); `--baseline` additionally compares the gated metrics —
//! long-scan rows/s, short-scan rows/s and point gets/s on the tournament
//! stack — against a checked-in baseline and exits non-zero if any of them
//! regressed by more than 20%.

use laser_bench::read_path::{run_read_path, ReadPathConfig, ReadPathReport};
use laser_bench::report::{enforce_baseline, write_report, JsonValue};

/// The metrics the regression gate watches: streaming merge cost (long
/// scans), per-seek cost (short scans) and per-probe cost (point gets).
const GATE_LONG_SCAN: &str = "gate_long_scan_rows_per_sec";
const GATE_SHORT_SCAN: &str = "gate_short_scan_rows_per_sec";
const GATE_POINT_GETS: &str = "gate_point_gets_per_sec";

/// Absolute ceiling on the instrumentation overheads (percent): generous
/// against smoke-run timing noise, but a collapse — e.g. tracing every op
/// instead of 1 in 64 — blows well past it.
const MAX_OVERHEAD_PCT: f64 = 25.0;

fn report_json(config: &ReadPathConfig, report: &ReadPathReport) -> JsonValue {
    JsonValue::obj([
        ("bench", JsonValue::Str("read_path".into())),
        ("keys", JsonValue::Num(config.keys as f64)),
        ("l0_files", JsonValue::Num(config.l0_files as f64)),
        (
            "naive_merge_width",
            JsonValue::Num(report.naive_merge_width as f64),
        ),
        (
            "new_merge_width",
            JsonValue::Num(report.new_merge_width as f64),
        ),
        (GATE_LONG_SCAN, JsonValue::Num(report.new_long_rows_per_sec)),
        (
            "naive_long_rows_per_sec",
            JsonValue::Num(report.naive_long_rows_per_sec),
        ),
        (
            "long_scan_speedup",
            JsonValue::Num(report.long_scan_speedup()),
        ),
        (
            GATE_SHORT_SCAN,
            JsonValue::Num(report.new_short_rows_per_sec),
        ),
        (
            "naive_short_rows_per_sec",
            JsonValue::Num(report.naive_short_rows_per_sec),
        ),
        (
            "short_scan_speedup",
            JsonValue::Num(report.short_scan_speedup()),
        ),
        (GATE_POINT_GETS, JsonValue::Num(report.point_gets_per_sec)),
        (
            "instrumented_point_gets_per_sec",
            JsonValue::Num(report.instrumented_point_gets_per_sec),
        ),
        (
            "telemetry_overhead_pct",
            JsonValue::Num(report.telemetry_overhead_pct),
        ),
        (
            "traced_point_gets_per_sec",
            JsonValue::Num(report.traced_point_gets_per_sec),
        ),
        (
            "tracing_overhead_pct",
            JsonValue::Num(report.tracing_overhead_pct),
        ),
        ("get_p50_ns", JsonValue::Num(report.get_p50_ns as f64)),
        ("get_p95_ns", JsonValue::Num(report.get_p95_ns as f64)),
        ("get_p99_ns", JsonValue::Num(report.get_p99_ns as f64)),
        ("long_rows", JsonValue::Num(report.long_rows as f64)),
        ("checksums_agree", JsonValue::Bool(report.checksums_agree())),
        (
            "checksum",
            JsonValue::Str(format!("{:#018x}", report.new_checksum)),
        ),
        (
            "files_per_level",
            JsonValue::Arr(
                report
                    .files_per_level
                    .iter()
                    .map(|&n| JsonValue::Num(n as f64))
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    let mut config = ReadPathConfig::default();
    let mut positional = Vec::new();
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => config = ReadPathConfig::smoke(),
            "--json" => json_path = args.next(),
            "--baseline" => baseline_path = args.next(),
            _ => positional.push(arg),
        }
    }
    // Like the sibling bench bins, unparseable args fall back to defaults;
    // a zero key count would make the scan bounds degenerate, so it does too.
    if let Some(keys) = positional
        .first()
        .and_then(|s| s.parse().ok())
        .filter(|&k: &u64| k > 0)
    {
        config.keys = keys;
    }
    if let Some(l0) = positional.get(1).and_then(|s| s.parse().ok()) {
        config.l0_files = l0;
    }

    println!("== read path bench ==");
    println!(
        "keys {} | deep rounds {} | l0 files {} | value {} B | gets {} | short {}x{} | long {}x{}",
        config.keys,
        config.deep_rounds,
        config.l0_files,
        config.value_bytes,
        config.point_gets,
        config.short_scans,
        config.short_scan_len,
        config.long_scans,
        config.long_scan_len,
    );
    let report = run_read_path(&config).expect("bench run failed");

    println!();
    println!(
        "tree: files per level {:?} | merge width {} naive -> {} tournament",
        report.files_per_level, report.naive_merge_width, report.new_merge_width
    );
    println!();
    println!(
        "{:>12} | {:>15} | {:>15} | {:>8}",
        "workload", "naive rows/s", "tournament r/s", "speedup"
    );
    println!(
        "{:>12} | {:>15.0} | {:>15.0} | {:>7.2}x",
        "short scans",
        report.naive_short_rows_per_sec,
        report.new_short_rows_per_sec,
        report.short_scan_speedup()
    );
    println!(
        "{:>12} | {:>15.0} | {:>15.0} | {:>7.2}x",
        "long scans",
        report.naive_long_rows_per_sec,
        report.new_long_rows_per_sec,
        report.long_scan_speedup()
    );
    println!(
        "{:>12} | {:>15} | {:>15.0} |",
        "point gets", "-", report.point_gets_per_sec
    );
    println!();
    println!(
        "telemetry: {:.0} gets/s attached ({:+.2}% overhead) | get latency p50 {} ns, p95 {} ns, p99 {} ns",
        report.instrumented_point_gets_per_sec,
        report.telemetry_overhead_pct,
        report.get_p50_ns,
        report.get_p95_ns,
        report.get_p99_ns,
    );
    println!(
        "tracing: {:.0} gets/s at 1/64 sampling ({:+.2}% overhead over attached)",
        report.traced_point_gets_per_sec, report.tracing_overhead_pct,
    );
    println!();
    for (name, overhead) in [
        ("telemetry_overhead_pct", report.telemetry_overhead_pct),
        ("tracing_overhead_pct", report.tracing_overhead_pct),
    ] {
        if overhead > MAX_OVERHEAD_PCT {
            eprintln!("gate: {name} {overhead:+.2}% exceeds the {MAX_OVERHEAD_PCT}% ceiling");
            std::process::exit(1);
        }
    }
    if report.checksums_agree() {
        println!(
            "equivalence: OK — both stacks returned {} long-scan rows, checksum {:#018x}",
            report.long_rows, report.new_checksum
        );
    } else {
        println!(
            "equivalence: MISMATCH — naive {:#018x} vs tournament {:#018x}",
            report.naive_checksum, report.new_checksum
        );
        std::process::exit(1);
    }

    let json = report_json(&config, &report);
    if let Some(path) = &json_path {
        write_report(std::path::Path::new(path), &json).expect("write bench report");
        println!("report: wrote {path}");
    }
    if let Some(baseline) = &baseline_path {
        let report_text = json.render();
        let mut tripped = false;
        for metric in [GATE_LONG_SCAN, GATE_SHORT_SCAN, GATE_POINT_GETS] {
            match enforce_baseline(&report_text, std::path::Path::new(baseline), metric) {
                Ok(summary) => println!("gate: {summary}"),
                Err(message) => {
                    eprintln!("gate: {message}");
                    tripped = true;
                }
            }
        }
        if tripped {
            std::process::exit(1);
        }
    }
}
