//! The benchmark's own span log: one record per call it makes into a
//! layer's public API (name, start, end, parent, request id), kept in
//! memory and written out as Chrome trace-event JSON when the run ends.
//!
//! Timestamps use the telemetry crate's process clock
//! ([`petamg_obs::now_us`]), so these spans line up with the service's
//! own `chrome_trace()` export of the same run.

use petamg_obs::{now_us, thread_index};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One finished span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub req: u64,
    pub start_us: u64,
    pub end_us: u64,
    pub tid: u64,
}

/// An open span; [`SpanLog::close`] finishes it.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    req: u64,
    start_us: u64,
}

/// In-memory span log. A disabled log records nothing and reads no
/// clock.
pub struct SpanLog {
    enabled: bool,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(if enabled { 1 << 16 } else { 0 })),
        }
    }

    /// Open a span named `name` under `parent` for request `req`.
    pub fn open(&self, name: &'static str, parent: Option<Open>, req: u64) -> Option<Open> {
        self.enabled.then(|| Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(|p| p.id),
            name,
            req,
            start_us: now_us(),
        })
    }

    /// Finish an open span now.
    pub fn close(&self, open: Option<Open>) {
        let Some(o) = open else {
            return;
        };
        let end_us = now_us();
        let span = Span {
            id: o.id,
            parent: o.parent,
            name: o.name,
            req: o.req,
            start_us: o.start_us,
            end_us: end_us.max(o.start_us),
            tid: thread_index(),
        };
        self.spans
            .lock()
            .expect("span log poisoned by a panicking client")
            .push(span);
    }

    /// Every recorded span, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span log poisoned by a panicking client")
            .clone();
        spans.sort_by_key(|s| (s.start_us, s.id));
        spans
    }
}

/// Self time of every span in microseconds: its duration minus the
/// union of the intervals its children cover (children may overlap,
/// e.g. the requests of one solo group).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_us;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_us));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, (s.end_us - s.start_us).saturating_sub(covered))
        })
        .collect()
}

/// Per span name: (count, total duration µs, total self time µs).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_us - s.start_us;
        e.2 += selfs[&s.id];
    }
    out
}

/// The spans as a Chrome trace-event document (`chrome://tracing`,
/// `ui.perfetto.dev`), each carrying its id, parent, request id and
/// self time as args.
pub fn chrome_trace(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{},\"self_us\":{}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.tid,
                s.id,
                parent,
                s.req,
                selfs[&s.id]
            )
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_us: u64, end_us: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            req: 0,
            start_us,
            end_us,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(3), 30, 35),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 25);
    }
}
