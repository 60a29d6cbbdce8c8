//! Driver-side span recorder for the `--trace 1` run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer; they stay in memory and are written out as a Chrome trace
//! when the run ends. A span carries a name, start, end, the span that
//! caused it and the id of the client operation it belongs to. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Client operation (or replay batch) the span belongs to.
    pub op: u64,
}

/// Per-name aggregate over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next client operation; spans opened until the next call
    /// share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> u64 {
        let idx = self.stack.pop().expect("exit without a matching enter");
        let now = self.now_ns();
        self.spans[idx].end_ns = now;
        now - self.spans[idx].start_ns
    }

    /// Appends another client's spans (operation ids are kept per client).
    pub fn merge(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        totals(&self.spans)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// ("X") event per span, microsecond timestamps.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":{}}}}}",
                s.name,
                workload,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                s.parent.map_or(-1, |p| p as i64),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Sums count, total and self time per span name. Children recorded by one
/// thread never overlap each other, so the part of a span its children cover
/// is the sum of their durations.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("op.insert", 0, 100, None),
            span("row.encode", 5, 25, Some(0)),
            span("shard_db.write", 30, 90, Some(0)),
            span("op.insert", 100, 150, None),
            span("shard_db.write", 110, 150, Some(3)),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["op.insert"],
            SpanTotals {
                count: 2,
                total_ns: 150,
                self_ns: 20 + 10
            }
        );
        assert_eq!(t["shard_db.write"].self_ns, 100);
        assert_eq!(t["row.encode"].total_ns, 20);
    }

    #[test]
    fn recorder_nests_and_tags_operations() {
        let mut r = Recorder::new();
        r.next_op();
        r.enter("outer");
        r.enter("inner");
        r.exit();
        r.exit();
        r.next_op();
        r.enter("outer");
        r.exit();
        assert_eq!(r.spans.len(), 3);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!((r.spans[0].op, r.spans[2].op), (1, 2));
        assert!(r.spans[0].end_ns >= r.spans[1].end_ns);
        let trace = r.chrome_trace("w");
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 3);
    }
}
