//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (the layer), start and end, the span that caused
//! it, and the id of the request (or batch) it belongs to. Spans stay in
//! memory while the benchmark runs — one buffer per thread, so recording
//! takes no lock — and are written out when it ends. A layer's self time
//! is its spans' duration minus the part of that interval its child spans
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans one buffer keeps before it stops recording (and counts drops):
/// bounds the traced run's memory whatever the run length.
const MAX_SPANS_PER_BUFFER: usize = 1 << 20;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer name, e.g. `client.feed` or `sketch.hash_rows`.
    pub name: &'static str,
    /// Unique within the run: the buffer id in the high 16 bits.
    pub id: u64,
    /// The causing span, or 0 for a root.
    pub parent: u64,
    /// Request (or batch) id shared by one request's spans.
    pub request: u64,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Stream elements the span carried (0 for element-free calls).
    pub elems: u64,
}

/// A per-thread span buffer.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    buffer: u64,
    next: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// An empty buffer; `buffer` must be unique among the run's buffers.
    pub fn new(epoch: Instant, buffer: u16) -> Self {
        Self { epoch, buffer: u64::from(buffer) << 48, next: 1, spans: Vec::new(), dropped: 0 }
    }

    /// Nanoseconds since the run's epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Allocates a span id (so children can name it before it ends).
    pub fn open(&mut self) -> u64 {
        let id = self.buffer | self.next;
        self.next += 1;
        id
    }

    /// Records a finished span under an id from [`Tracer::open`].
    pub fn record(&mut self, span: Span) {
        if self.spans.len() < MAX_SPANS_PER_BUFFER {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Times `call` as a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        elems: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.open();
        let start = self.now();
        let out = call();
        let end = self.now();
        self.record(Span { name, id, parent, request, start, end, elems });
        out
    }

    /// Moves this buffer's spans into `into`.
    pub fn drain_into(&mut self, into: &mut Trace) {
        into.spans.append(&mut self.spans);
        into.dropped += self.dropped;
        self.dropped = 0;
    }
}

/// Every span of a run, merged from the thread buffers.
#[derive(Debug, Default)]
pub struct Trace {
    /// The spans, in no particular order.
    pub spans: Vec<Span>,
    /// Spans not recorded because a buffer was full.
    pub dropped: u64,
}

/// Per-layer totals of a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of the layer.
    pub spans: u64,
    /// Elements its spans carried.
    pub elems: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage), ns.
    pub self_ns: u64,
}

impl Trace {
    /// Self time per layer: each span's duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for span in &self.spans {
            if span.parent != 0 {
                children.entry(span.parent).or_default().push((span.start, span.end));
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for span in &self.spans {
            let duration = span.end.saturating_sub(span.start);
            let covered = children.get_mut(&span.id).map_or(0, |kids| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, span.start);
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(span.end));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                covered
            });
            let layer = layers.entry(span.name).or_default();
            layer.spans += 1;
            layer.elems += span.elems;
            layer.total_ns += duration;
            layer.self_ns += duration.saturating_sub(covered);
        }
        layers
    }

    /// The spans as JSON lines, sorted by start time.
    pub fn to_json_lines(&self) -> String {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start, s.id));
        let mut out = String::with_capacity(spans.len() * 120);
        for s in &spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"elems\":{}}}",
                s.name, s.id, s.parent, s.request, s.start, s.end, s.elems
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span { name, id, parent, request: 0, start, end, elems: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let trace = Trace {
            spans: vec![
                span("parent", 1, 0, 0, 100),
                span("child", 2, 1, 10, 40),
                span("child", 3, 1, 30, 50),  // overlaps the first child
                span("child", 4, 1, 90, 120), // runs past the parent
            ],
            dropped: 0,
        };
        let layers = trace.layer_times();
        assert_eq!(layers["parent"].total_ns, 100);
        assert_eq!(layers["parent"].self_ns, 100 - 40 - 10);
        assert_eq!(layers["child"].self_ns, 30 + 20 + 30);
    }
}
