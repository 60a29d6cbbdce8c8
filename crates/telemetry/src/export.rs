//! Exports: Prometheus-style text exposition, a JSON snapshot, and a small
//! parser for the exposition format (used by CI to validate that every
//! registered metric actually reaches the export).

use crate::metrics::{MetricValue, MetricsRegistry, RegisteredMetric};
use crate::{events, Telemetry};

/// Escapes a Prometheus label value (`\`, `"`, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `{k="v",...}` (empty string for no labels), with `extra` appended
/// after the registered labels.
fn label_block(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (key, value) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(key);
        out.push_str("=\"");
        out.push_str(&escape_label(value));
        out.push('"');
    }
    out.push('}');
    out
}

/// Renders the registry in Prometheus text exposition format. Counters and
/// gauges emit one sample per label set; histograms emit summary-style
/// quantile samples plus `_sum` and `_count`.
pub fn prometheus_text(registry: &MetricsRegistry) -> String {
    let mut metrics = registry.metrics();
    metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    let mut out = String::new();
    let mut last_name = String::new();
    for metric in &metrics {
        if metric.name != last_name {
            let kind = match metric.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) | MetricValue::Float(_) => "gauge",
                MetricValue::Histogram(_) => "summary",
            };
            out.push_str(&format!("# TYPE {} {kind}\n", metric.name));
            last_name.clone_from(&metric.name);
        }
        match &metric.value {
            MetricValue::Counter(counter) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    metric.name,
                    label_block(&metric.labels, &[]),
                    counter.get()
                ));
            }
            MetricValue::Gauge(gauge) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    metric.name,
                    label_block(&metric.labels, &[]),
                    gauge.get()
                ));
            }
            MetricValue::Float(gauge) => {
                // `{}` on an f64 always includes enough digits to round-trip
                // and never produces exponent-free ambiguity the parser
                // chokes on; non-finite values render as `NaN`/`inf`, which
                // `f64::parse` also accepts.
                out.push_str(&format!(
                    "{}{} {}\n",
                    metric.name,
                    label_block(&metric.labels, &[]),
                    gauge.get()
                ));
            }
            MetricValue::Histogram(histogram) => {
                let snap = histogram.snapshot();
                for (q, value) in [
                    ("0.5", snap.p50()),
                    ("0.95", snap.p95()),
                    ("0.99", snap.p99()),
                ] {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        metric.name,
                        label_block(&metric.labels, &[("quantile", q)]),
                        value
                    ));
                }
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    metric.name,
                    label_block(&metric.labels, &[]),
                    snap.sum
                ));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    metric.name,
                    label_block(&metric.labels, &[]),
                    snap.count
                ));
            }
        }
    }
    out
}

/// One parsed exposition sample.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpositionSample {
    /// Sample name (`_sum` / `_count` suffixes included as written).
    pub name: String,
    /// Label pairs in exposition order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parses text produced by
/// [`Telemetry::prometheus_text`](crate::Telemetry::prometheus_text) back
/// into samples, skipping comment lines. Returns `None` on any malformed
/// sample line — good enough for round-trip validation of our own
/// exposition, not a general parser.
pub fn parse_prometheus_text(text: &str) -> Option<Vec<ExpositionSample>> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ')?;
        let value: f64 = value.parse().ok()?;
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}')?;
                let mut labels = Vec::new();
                let mut remaining = body;
                while !remaining.is_empty() {
                    let (key, rest) = remaining.split_once("=\"")?;
                    // Label values we emit escape `"`, so an unescaped quote
                    // terminates the value.
                    let mut end = None;
                    let bytes = rest.as_bytes();
                    let mut index = 0;
                    while index < bytes.len() {
                        match bytes[index] {
                            b'\\' => index += 2,
                            b'"' => {
                                end = Some(index);
                                break;
                            }
                            _ => index += 1,
                        }
                    }
                    let end = end?;
                    let raw = &rest[..end];
                    let unescaped = raw
                        .replace("\\n", "\n")
                        .replace("\\\"", "\"")
                        .replace("\\\\", "\\");
                    labels.push((key.to_string(), unescaped));
                    remaining = rest[end + 1..].trim_start_matches(',');
                }
                (name.to_string(), labels)
            }
        };
        samples.push(ExpositionSample {
            name,
            labels,
            value,
        });
    }
    Some(samples)
}

/// Renders an `f64` as a JSON value. JSON has no literal for non-finite
/// numbers, so those degrade to `null` rather than emitting an invalid
/// document.
pub(crate) fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

pub(crate) fn json_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_labels(labels: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (index, (key, value)) in labels.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str(&json_escape(key));
        out.push(':');
        out.push_str(&json_escape(value));
    }
    out.push('}');
    out
}

fn json_metric(metric: &RegisteredMetric) -> String {
    let head = format!(
        "{{\"name\":{},\"labels\":{}",
        json_escape(&metric.name),
        json_labels(&metric.labels)
    );
    match &metric.value {
        MetricValue::Counter(counter) => {
            format!("{head},\"type\":\"counter\",\"value\":{}}}", counter.get())
        }
        MetricValue::Gauge(gauge) => {
            format!("{head},\"type\":\"gauge\",\"value\":{}}}", gauge.get())
        }
        MetricValue::Float(gauge) => {
            format!(
                "{head},\"type\":\"gauge\",\"value\":{}}}",
                json_f64(gauge.get())
            )
        }
        MetricValue::Histogram(histogram) => {
            let snap = histogram.snapshot();
            format!(
                "{head},\"type\":\"histogram\",\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"mean\":{:.1}}}",
                snap.count,
                snap.sum,
                snap.p50(),
                snap.p95(),
                snap.p99(),
                snap.mean()
            )
        }
    }
}

/// Renders the full telemetry state (metrics, event log, slow-op count,
/// slow-trace flight recorder, per-shard workload profiles) as a
/// self-contained JSON document.
pub fn json_snapshot(telemetry: &Telemetry) -> String {
    for profiler in telemetry.workload_profiles() {
        profiler.refresh_gauges();
    }
    let mut metrics = telemetry.registry().metrics();
    metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    let mut out = String::from("{");
    out.push_str(&format!("\"at_unix_ms\":{}", events::unix_millis()));
    out.push_str(&format!(",\"slow_ops\":{}", telemetry.slow_ops()));
    out.push_str(",\"metrics\":[");
    for (index, metric) in metrics.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str(&json_metric(metric));
    }
    out.push_str("],\"events\":[");
    for (index, event) in telemetry.recent_events().iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"kind\":{},\"label\":{},\"at_unix_ms\":{},\"duration_us\":{},\"bytes_read\":{},\"bytes_written\":{},\"entries\":{},\"slow\":{}}}",
            json_escape(event.kind.as_str()),
            json_escape(&event.label),
            event.at_unix_ms,
            event.duration_us,
            event.bytes_read,
            event.bytes_written,
            event.entries,
            event.slow
        ));
    }
    out.push_str("],\"traces\":");
    out.push_str(&crate::trace::traces_json_array(
        &telemetry.tracer().all_traces(),
    ));
    out.push_str(",\"workload\":[");
    for (index, profiler) in telemetry.workload_profiles().iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str(&profiler.json_fragment());
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Telemetry};
    use std::time::Duration;

    #[test]
    fn exposition_round_trips_every_metric() {
        let telemetry = Telemetry::new();
        let registry = telemetry.registry();
        registry.counter("ops_total", &[("shard", "0")]).add(7);
        registry.gauge("live_bytes", &[]).set(42);
        let latency = registry.histogram("lat_ns", &[("shard", "a\"b")]);
        for v in [5u64, 50, 500] {
            latency.record(v);
        }
        let text = telemetry.prometheus_text();
        let samples = parse_prometheus_text(&text).expect("exposition must parse");
        // Every registered metric appears: counter + gauge + slow_ops
        // (implicit) + 3 quantiles + sum + count for the histogram.
        let find = |name: &str| samples.iter().find(|s| s.name == name);
        assert_eq!(find("ops_total").unwrap().value, 7.0);
        assert_eq!(find("live_bytes").unwrap().value, 42.0);
        assert_eq!(find("lat_ns_count").unwrap().value, 3.0);
        assert_eq!(find("lat_ns_sum").unwrap().value, 555.0);
        assert!(find("laser_slow_ops_total").is_some());
        let quantile = samples
            .iter()
            .find(|s| s.name == "lat_ns" && s.labels.iter().any(|(k, _)| k == "quantile"))
            .unwrap();
        // The escaped label value survives the round trip.
        assert!(quantile.labels.contains(&("shard".into(), "a\"b".into())));
        for sample in &samples {
            assert!(sample.value.is_finite(), "{sample:?}");
        }
    }

    #[test]
    fn float_gauges_round_trip_through_the_exposition() {
        let telemetry = Telemetry::new();
        let amp = telemetry
            .registry()
            .float_gauge("laser_write_amp", &[("shard", "0")]);
        amp.set(2.625);
        let text = telemetry.prometheus_text();
        assert!(text.contains("# TYPE laser_write_amp gauge"));
        let samples = parse_prometheus_text(&text).expect("exposition must parse");
        let sample = samples
            .iter()
            .find(|s| s.name == "laser_write_amp")
            .unwrap();
        assert_eq!(sample.value, 2.625);
        assert!(telemetry.json_snapshot().contains("\"value\":2.625"));
    }

    #[test]
    fn json_snapshot_contains_metrics_and_events() {
        let telemetry = Telemetry::new();
        telemetry.registry().counter("ops_total", &[]).add(3);
        telemetry.record_event(
            EventKind::Compaction,
            "0",
            Duration::from_secs(2),
            100,
            80,
            9,
        );
        let json = telemetry.json_snapshot();
        assert!(json.contains("\"name\":\"ops_total\""));
        assert!(json.contains("\"kind\":\"compaction\""));
        assert!(json.contains("\"slow\":true"));
        assert!(json.contains("\"slow_ops\":1"));
        // Crude structural sanity: balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
