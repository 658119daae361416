//! The benchmark's own span recorder: one span per call into a layer,
//! taken from outside the layer, kept in memory and written out when the
//! traced run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Spans`]; `NO_PARENT` for a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one op share its id; set-up spans carry `u32::MAX`.
    pub op_id: u32,
}

/// Spans recorded by one thread (`tid` is its row in the Chrome trace).
pub struct Spans {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
}

impl Spans {
    /// All recorders of a run share `epoch` so their rows line up.
    pub fn new(epoch: Instant, tid: u32) -> Spans {
        Spans {
            epoch,
            tid,
            spans: Vec::new(),
        }
    }

    /// Open a span now; [`Spans::end`] closes it.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op_id: u32) -> SpanId {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op_id: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op_id);
        let out = f();
        self.end(id);
        out
    }

    pub fn duration_ms(&self, id: SpanId) -> f64 {
        let s = &self.spans[id as usize];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Per span name: how many, their total duration, and their self time
/// (duration minus the part their child spans cover).
pub fn self_times(all: &[Spans]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut table: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for rec in all {
        let mut child_ns = vec![0u64; rec.spans.len()];
        for s in &rec.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, &children) in rec.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let row = table.entry(s.name).or_default();
            row.0 += 1;
            row.1 += dur as f64 / 1e6;
            row.2 += dur.saturating_sub(children) as f64 / 1e6;
        }
    }
    table
}

/// `-1` for "none" (`u32::MAX`), else the id.
fn signed(id: u32) -> i64 {
    if id == u32::MAX {
        -1
    } else {
        id as i64
    }
}

/// Chrome Trace Event Format (`chrome://tracing`, Perfetto): one complete
/// slice per span, microsecond timestamps, parent and op id in `args`.
pub fn chrome_trace_json(all: &[Spans]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for rec in all {
        for (i, s) in rec.spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op_id\":{}}}}}",
                s.name,
                rec.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                signed(s.parent),
                signed(s.op_id),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(Instant::now(), 0);
        let op = s.begin("op", NO_PARENT, 0);
        let child = s.begin("vm.exec", op, 0);
        s.end(child);
        s.end(op);
        // Pin the clock readings so the arithmetic is exact.
        s.spans[0].start_ns = 0;
        s.spans[0].end_ns = 10_000_000;
        s.spans[1].start_ns = 1_000_000;
        s.spans[1].end_ns = 8_000_000;
        let t = self_times(&[s]);
        assert_eq!(t["op"], (1, 10.0, 3.0));
        assert_eq!(t["vm.exec"], (1, 7.0, 7.0));
    }

    #[test]
    fn chrome_trace_names_parent_and_op() {
        let mut s = Spans::new(Instant::now(), 3);
        let op = s.begin("op", NO_PARENT, 5);
        s.time("check", op, 5, || ());
        s.end(op);
        let json = chrome_trace_json(&[s]);
        assert!(json.contains("\"name\":\"op\""));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"parent\":-1,\"op_id\":5"));
        assert!(json.contains("\"parent\":0,\"op_id\":5"));
    }
}
