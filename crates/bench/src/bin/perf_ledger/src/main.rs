//! `perf_ledger`: the repo's end-to-end + per-layer HTAP benchmark.
//!
//! ```text
//! perf_ledger --workload <name|all> --seed <u64> --seconds <n> --trace <0|1>
//!             [--data-dir DIR] [--json OUT]
//! perf_ledger compare A.json B.json
//! ```
//!
//! A run prints progress to stderr and, as the last line of stdout, one JSON
//! object `{correct, attempted, failed, metrics}`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `bench/ledger/README.md` for the glossary and the design.

mod compare;
mod crash;
mod gen;
mod json;
mod layers;
mod metrics;
mod model;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};

use json::{obj, Json};
use model::{Kv, Laser};
use workloads::{EngineKind, Workload, WORKLOADS};

pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub data_dir: PathBuf,
    pub json: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf_ledger --workload <{}|all> --seed <u64> --seconds <n> --trace <0|1> \
         [--data-dir DIR] [--json OUT]\n       perf_ledger compare A.json B.json",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        data_dir: PathBuf::from("bench/ledger/out"),
        json: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--data-dir" => args.data_dir = PathBuf::from(value),
            "--json" => args.json = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    let known = args.workload == "all" || workloads::workload(&args.workload).is_some();
    if !known || args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else { usage() };
        std::process::exit(compare::run(Path::new(a), Path::new(b)));
    }
    let args = parse_args(&argv);
    let selected: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || w.name == args.workload)
        .collect();
    let mut reports = Vec::new();
    for w in selected {
        let result = match w.engine {
            EngineKind::Laser => run::run::<Laser>(w, &args),
            EngineKind::KvReplicated => run::run::<Kv>(w, &args),
        };
        match result {
            Ok(report) => {
                // The contract's result line: exactly these four keys, and
                // exactly value + unit per metric (sample counts stay in the
                // full report).
                let keep = |key| (key, report.get(key).cloned().unwrap_or(Json::Null));
                let metrics = report.get("metrics").map_or(&[][..], Json::fields);
                let metrics = metrics
                    .iter()
                    .map(|(name, m)| {
                        let field = |key| (key, m.get(key).cloned().unwrap_or(Json::Null));
                        (name.clone(), obj([field("value"), field("unit")]))
                    })
                    .collect();
                let line = obj([
                    keep("correct"),
                    keep("attempted"),
                    keep("failed"),
                    ("metrics", Json::Obj(metrics)),
                ]);
                println!("{}", line.encode());
                reports.push(report);
            }
            Err(e) => {
                eprintln!("perf_ledger: {}: {e}", w.name);
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.json {
        let doc = obj([("runs", Json::Arr(reports)), ("claim", Json::Null)]);
        if let Err(e) = std::fs::write(path, doc.encode() + "\n") {
            eprintln!("perf_ledger: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
