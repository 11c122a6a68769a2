//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. One [`Recorder`] per worker, its buffer allocated before
//! the timed block; spans are returned from the SPMD body and written
//! out (Chrome trace-event JSON) after the last workload.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One layer call. `parent` indexes the same worker's span list
/// (`-1` = the block itself is the root).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub worker: u32,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::begin`]; pass it back to
/// [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Per-worker span buffer. All workers of a process share one `epoch`,
/// so their spans line up on one timeline.
pub struct Recorder {
    epoch: Instant,
    worker: u32,
    round: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// `capacity` spans are allocated now, outside any timed block.
    pub fn new(epoch: Instant, worker: usize, round: usize, capacity: usize) -> Recorder {
        Recorder {
            epoch,
            worker: worker as u32,
            round: round as u32,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> SpanId {
        let parent = self.open.last().map_or(-1, |&p| p as i32);
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name,
            layer,
            worker: self.worker,
            round: self.round,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.open.push(id);
        SpanId(id)
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        let now = self.now();
        self.spans[id.0].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must nest");
    }

    /// Record `f` as one span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, layer);
        let r = f();
        self.end(id);
        r
    }

    /// Forget the spans so far (the warm-up's), keeping the buffer.
    pub fn clear(&mut self) {
        debug_assert!(self.open.is_empty(), "unclosed span");
        self.spans.clear();
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "unclosed span");
        self.spans
    }
}

/// Self time per span name for one worker's spans: a span's duration
/// minus the part its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent >= 0 {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(&child_ns) {
        *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(*c);
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// ("X") event per span; `pid` is the workload, `tid` the worker. The
/// exact nanosecond bounds, the round and the parent ride in `args`.
pub fn chrome_trace(workloads: &[(String, Vec<Span>)]) -> Json {
    let mut events = Vec::new();
    for (pid, (workload, spans)) in workloads.iter().enumerate() {
        events.push(Json::obj([
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(pid as f64)),
            ("args", Json::obj([("name", Json::Str(workload.clone()))])),
        ]));
        for s in spans {
            events.push(Json::obj([
                ("name", Json::Str(s.name.into())),
                ("cat", Json::Str(s.layer.into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(pid as f64)),
                ("tid", Json::Num(s.worker as f64)),
                (
                    "args",
                    Json::obj([
                        ("layer", Json::Str(s.layer.into())),
                        ("worker", Json::Num(s.worker as f64)),
                        ("round", Json::Num(s.round as f64)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", Json::Num(s.parent as f64)),
                    ]),
                ),
            ]));
        }
    }
    Json::obj([
        ("displayTimeUnit", Json::Str("ns".into())),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mk = |name, start_ns, end_ns, parent| Span {
            name,
            layer: "x",
            worker: 0,
            round: 0,
            start_ns,
            end_ns,
            parent,
        };
        let spans = vec![
            mk("block", 0, 100, -1),
            mk("a", 10, 40, 0),
            mk("b", 15, 25, 1),
            mk("a", 50, 60, 0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["block"], 100 - 30 - 10);
        assert_eq!(t["a"], 20 + 10);
        assert_eq!(t["b"], 10);
    }
}
