//! `perf_ledger compare A B`: are two sets of runs the same, metric by
//! metric and workload by workload?
//!
//! `A` and `B` are report files written with `--json`, or directories of
//! them; all runs inside are pooled per workload. For every (workload,
//! end-to-end metric) the table shows both sets' quartiles and marks the row
//!
//! * `within`     — B's median is no worse than A's by more than the bound;
//! * `REGRESSED`  — it is worse by more than the bound;
//! * `unresolved` — the run-to-run spread of either set (interquartile range
//!   over median) is wider than the bound, so the medians decide nothing.
//!
//! Per-layer metrics of traced runs are listed without a verdict: they carry
//! no bound. The exit code is 0 only if every row is `within`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::quartiles;

/// workload -> metric -> values, one per run.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_into(path: &Path, set: &mut Set) -> Result<(), String> {
    if path.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .filter(|p| !p.to_string_lossy().ends_with(".trace.json"))
            .collect();
        entries.sort();
        return entries.iter().try_for_each(|p| load_into(p, set));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    for run in doc.get("runs").map_or(&[][..], Json::as_array) {
        let Some(workload) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let metrics = run.get("metrics").map_or(&[][..], Json::fields);
        for (name, fields) in metrics {
            if let Some(value) = fields.get("value").and_then(Json::as_f64) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(())
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Within,
    Regressed,
    Unresolved,
}

/// Judges one row. `worse_by` is the share of A's median by which B's median
/// is worse (negative when B is better).
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (a1, a2, a3) = quartiles(a);
    let (b1, b2, b3) = quartiles(b);
    let worse_by = if metric.higher_is_better {
        (a2 - b2) / a2
    } else {
        (b2 - a2) / a2
    };
    let spread = ((a3 - a1) / a2).max((b3 - b1) / b2);
    let verdict = if spread > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    (verdict, worse_by)
}

fn quartile_text(v: &[f64]) -> String {
    let (q1, q2, q3) = quartiles(v);
    format!("{q1:>11.5} {q2:>11.5} {q3:>11.5}")
}

pub fn run(a: &Path, b: &Path) -> i32 {
    let (mut set_a, mut set_b) = (Set::new(), Set::new());
    for (path, set) in [(a, &mut set_a), (b, &mut set_b)] {
        if let Err(e) = load_into(path, set) {
            eprintln!("perf_ledger compare: {e}");
            return 2;
        }
    }
    println!(
        "{:<15} {:<36} {:>5}  {:^35}  {:^35}  {:>8}  verdict",
        "workload", "metric", "n", "A: q1 / median / q3", "B: q1 / median / q3", "worse by"
    );
    let mut bad = 0;
    let mut rows = 0;
    for (workload, metrics_a) in &set_a {
        let Some(metrics_b) = set_b.get(workload) else {
            continue;
        };
        for metric in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let (Some(va), Some(vb)) = (metrics_a.get(metric.name), metrics_b.get(metric.name))
            else {
                continue;
            };
            if va.len() < 2 || vb.len() < 2 {
                continue;
            }
            rows += 1;
            let bounded = metric.bound > 0.0;
            let (verdict, worse_by) = judge(metric, va, vb);
            let verdict = match verdict {
                _ if !bounded => "-",
                Verdict::Within => "within",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            };
            bad += (bounded && verdict != "within") as i32;
            println!(
                "{workload:<15} {:<36} {:>2}/{:<2}  {}  {}  {:>+7.1}%  {verdict}{}",
                format!("{} [{}]", metric.name, metric.unit),
                va.len(),
                vb.len(),
                quartile_text(va),
                quartile_text(vb),
                worse_by * 100.0,
                if bounded {
                    format!(" (bound {:.0}%)", metric.bound * 100.0)
                } else {
                    String::new()
                },
            );
        }
    }
    if rows == 0 {
        eprintln!("perf_ledger compare: no (workload, metric) has two runs on both sides");
        return 2;
    }
    println!("{rows} rows, {bad} not within bound");
    (bad > 0) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn rows_are_within_regressed_or_unresolved() {
        let lower = metric("get_p50_us"); // lower is better
        let bound = lower.bound;
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |f: f64| a.map(|x| x * f);
        assert_eq!(judge(lower, &a, &a).0, Verdict::Within);
        assert_eq!(
            judge(lower, &a, &scaled(1.0 + bound * 0.9)).0,
            Verdict::Within
        );
        assert_eq!(
            judge(lower, &a, &scaled(1.0 + bound * 1.2)).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(lower, &a, &scaled(0.5)).0,
            Verdict::Within,
            "faster is fine"
        );
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(judge(lower, &a, &noisy).0, Verdict::Unresolved);

        let higher = metric("ops_per_s"); // higher is better
        let (verdict, worse_by) = judge(higher, &a, &scaled(1.0 - higher.bound * 1.2));
        assert_eq!(verdict, Verdict::Regressed);
        assert!((worse_by - higher.bound * 1.2).abs() < 1e-9);
        assert_eq!(judge(higher, &a, &scaled(2.0)).0, Verdict::Within);
    }
}
