//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is (name, start, end, parent, request). Spans go to a buffer
//! sized before the traced window starts and are written out when the run
//! ends; nothing is formatted or flushed while the clock runs. A layer's
//! *self time* is its span's duration minus the part of that interval its
//! child spans cover, so stage self times plus the root's self time add
//! up to the root's duration exactly.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent": the span is a root.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Frame, sync or query number — shared by every span of one request.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (its index in the buffer).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Innermost open span, the parent of the next one opened.
    current: u32,
}

impl Tracer {
    /// A tracer whose buffer holds `capacity` spans without reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            current: ROOT,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> SpanId {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.current,
            request,
        });
        self.current = id;
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        debug_assert_eq!(self.current, id.0, "spans close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        self.current = span.parent;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f` inside a span when there is a tracer, bare when there is not —
/// the one place the traced and untraced loops differ.
pub fn maybe_span<T>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, request, f),
        None => f(),
    }
}

/// Per-span self time: duration minus the union of the children's
/// intervals clipped to the span (children may touch but, being recorded
/// by one thread, never overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != ROOT {
            let parent = &spans[span.parent as usize];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            covered[span.parent as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
        .collect()
}

/// Totals per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Sums duration and self time by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = totals.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    totals
}

/// The trace file: per-name totals first (what a reader wants), then at
/// most `max_spans` raw spans (the head of the buffer — enough to see the
/// nesting; the totals cover every span).
pub fn to_json(sections: &[(&str, &Tracer)], max_spans: usize) -> Value {
    Value::Arr(
        sections
            .iter()
            .map(|(section, tracer)| {
                let totals = totals_by_name(tracer.spans())
                    .into_iter()
                    .map(|(name, t)| {
                        (
                            name,
                            Value::obj([
                                ("count", Value::Int(t.count)),
                                ("total_ns", Value::Int(t.total_ns)),
                                ("self_ns", Value::Int(t.self_ns)),
                            ]),
                        )
                    })
                    .collect::<Vec<_>>();
                let spans = tracer
                    .spans()
                    .iter()
                    .take(max_spans)
                    .map(|s| {
                        Value::obj([
                            ("name", Value::str(s.name)),
                            ("start_ns", Value::Int(s.start_ns)),
                            ("end_ns", Value::Int(s.end_ns)),
                            (
                                "parent",
                                if s.parent == ROOT {
                                    Value::Null
                                } else {
                                    Value::Int(u64::from(s.parent))
                                },
                            ),
                            ("request", Value::Int(s.request)),
                        ])
                    })
                    .collect();
                Value::obj([
                    ("section", Value::str(*section)),
                    ("span_count", Value::Int(tracer.spans().len() as u64)),
                    ("totals", Value::obj(totals)),
                    ("spans", Value::Arr(spans)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_and_nested_children() {
        let spans = [
            span("frame", 0, 100, ROOT),
            span("encode", 10, 30, 0), // adjacent to the next child
            span("decode", 30, 70, 0), // has a child of its own
            span("widen", 40, 60, 2),  // nested two deep
            span("fold", 80, 95, 0),   // after a gap
        ];
        assert_eq!(self_times(&spans), vec![25, 20, 20, 20, 15]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = [span("root", 10, 50, ROOT), span("late", 40, 70, 0)];
        assert_eq!(self_times(&spans), vec![30, 30]);
    }

    #[test]
    fn totals_group_by_name_across_roots() {
        let spans = [
            span("frame", 0, 10, ROOT),
            span("fold", 2, 6, 0),
            span("frame", 10, 30, ROOT),
            span("fold", 12, 22, 2),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["frame"],
            NameTotal {
                count: 2,
                total_ns: 30,
                self_ns: 16
            }
        );
        assert_eq!(
            totals["fold"],
            NameTotal {
                count: 2,
                total_ns: 14,
                self_ns: 14
            }
        );
    }

    #[test]
    fn the_tracer_nests_and_unwinds() {
        let mut t = Tracer::with_capacity(8);
        let got = t.span("outer", 7, || 1 + 1);
        assert_eq!(got, 2);
        let outer = t.enter("outer", 8);
        t.span("inner", 8, || ());
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[2].request, 8);
        assert!(spans[1].end_ns >= spans[2].end_ns);
    }
}
