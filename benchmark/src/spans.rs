//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! The recorder lives on the one thread that drives a workload. With
//! `--trace 0` it is off and a span site costs one thread-local flag read;
//! with `--trace 1` each site appends one record to a preallocated vector
//! that is written out, as Chrome trace events plus a self-time table, only
//! after the timed section ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// No parent: the span was opened at the top level.
pub const ROOT: u32 = u32::MAX;

/// Spans kept per run; later ones are counted as dropped, not recorded.
const CAPACITY: usize = 1 << 20;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the record vector, or [`ROOT`].
    pub parent: u32,
    /// Request (or operation) id the span belongs to; 0 when none.
    pub req: u64,
}

struct Recorder {
    spans: Vec<Span>,
    stack: Vec<u32>,
    epoch: Instant,
    dropped: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Turns recording on for this thread.
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            spans: Vec::with_capacity(CAPACITY),
            stack: Vec::with_capacity(16),
            epoch: Instant::now(),
            dropped: 0,
        })
    });
}

/// Closes its span when dropped.
pub struct Guard(Option<u32>);

/// Opens a span; it ends when the returned guard drops.
#[inline]
pub fn span(name: &'static str, req: u64) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Guard(None);
        };
        if rec.spans.len() >= CAPACITY {
            rec.dropped += 1;
            return Guard(None);
        }
        let idx = rec.spans.len() as u32;
        let parent = rec.stack.last().copied().unwrap_or(ROOT);
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        rec.stack.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx as usize].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                // Guards drop in reverse order of creation on one thread.
                rec.stack.pop();
            }
        });
    }
}

/// Takes everything recorded so far: `(spans, dropped)`.
pub fn take() -> (Vec<Span>, u64) {
    RECORDER.with(|r| match r.borrow_mut().as_mut() {
        Some(rec) => (
            std::mem::take(&mut rec.spans),
            std::mem::take(&mut rec.dropped),
        ),
        None => (Vec::new(), 0),
    })
}

/// Per-span self time: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end_ns);
                let b = b.clamp(reach, s.end_ns);
                covered += b - a;
                reach = reach.max(b);
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// One row of the self-time table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn self_time_table(spans: &[Span]) -> BTreeMap<&'static str, Row> {
    let selfs = self_times(spans);
    let mut table: BTreeMap<&'static str, Row> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let row = table.entry(s.name).or_default();
        row.calls += 1;
        row.total_ns += s.end_ns - s.start_ns;
        row.self_ns += own;
    }
    table
}

/// Durations, in microseconds, of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) with the
/// self-time table and the caller's `extra` members alongside.
pub fn chrome_trace_json(spans: &[Span], dropped: u64, extra: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 1024);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            i,
            parent,
            s.req
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"selfTime\":{");
    for (i, (name, row)) in self_time_table(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"calls\":{},\"total_ms\":{:.6},\"self_ms\":{:.6}}}",
            name,
            row.calls,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        ));
    }
    out.push_str(&format!("}},\"droppedSpans\":{dropped}"));
    if !extra.is_empty() {
        out.push(',');
        out.push_str(extra);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, a: u64, b: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            s("outer", 0, 100, ROOT),
            s("a", 10, 30, 0),
            s("b", 25, 60, 0), // overlaps `a` by 5: cover is 10..60 = 50
            s("leaf", 26, 28, 2),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 33, 2]);
        let table = self_time_table(&spans);
        assert_eq!(
            table["outer"],
            Row {
                calls: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
    }

    #[test]
    fn a_child_running_past_its_parent_is_clamped() {
        let spans = vec![s("outer", 10, 20, ROOT), s("kid", 15, 40, 0)];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        enable();
        {
            let _outer = span("outer", 7);
            let _inner = span("inner", 7);
        }
        let _ = span("sibling", 0);
        let (spans, dropped) = take();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].req),
            ("outer", ROOT, 7)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 0));
        assert_eq!((spans[2].name, spans[2].parent), ("sibling", ROOT));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = chrome_trace_json(&spans, dropped, "\"k\":1");
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"outer\""));
        assert!(json.ends_with("\"droppedSpans\":0,\"k\":1}"));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        // Each test runs on its own thread, so the recorder here is off.
        let _g = span("ignored", 1);
        assert!(take().0.is_empty());
    }
}
