//! Benchmark-side spans around calls into the layers. Spans are kept in
//! memory and written once, when the traced run ends, as Chrome
//! trace-event JSON (open in `chrome://tracing` or Perfetto).

use crate::json::{obj, Value};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on the one thread that drives the benchmark.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Times `f` as a span named `name`, child of whichever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus what its child spans cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Self time summed by span name, largest first: where the time goes.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let own = self_times_ns(spans);
    let mut rows: Vec<(&'static str, u64, usize)> = Vec::new();
    for (span, ns) in spans.iter().zip(own) {
        match rows.iter_mut().find(|(name, _, _)| *name == span.name) {
            Some(row) => {
                row.1 += ns;
                row.2 += 1;
            }
            None => rows.push((span.name, ns, 1)),
        }
    }
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    rows
}

/// Chrome trace-event document ("X" complete events, microseconds).
pub fn chrome_trace(spans: &[Span], workload: &str) -> Value {
    let events: Vec<Value> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            obj([
                ("name", Value::from(s.name)),
                ("cat", Value::from(workload)),
                ("ph", Value::from("X")),
                ("pid", Value::from(1u64)),
                ("tid", Value::from(1u64)),
                ("ts", Value::from(s.start_ns as f64 / 1e3)),
                ("dur", Value::from(s.duration_ns() as f64 / 1e3)),
                (
                    "args",
                    obj([
                        ("id", Value::from(id)),
                        ("parent", s.parent.map_or(Value::Null, Value::from)),
                        ("rep", Value::from(u64::from(s.rep))),
                    ]),
                ),
            ])
        })
        .collect();
    obj([
        ("displayTimeUnit", Value::from("ms")),
        ("traceEvents", Value::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100 { a 10..40 { leaf 15..25 }, b 50..90 }
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("leaf", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree sum to the root's duration: nothing is
        // counted twice and nothing is lost.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("b", 40, 1));
        assert_eq!(by_name[1], ("root", 30, 1));
    }

    #[test]
    fn recorder_nests_spans_under_the_open_one() {
        let mut rec = Recorder::new();
        rec.span("outer", |rec| {
            rec.span("inner", |_| ());
            rec.span("inner", |_| ());
        });
        rec.span("sibling", |_| ());
        let parents: Vec<Option<usize>> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let doc = chrome_trace(rec.spans(), "w");
        assert!(matches!(doc.get("traceEvents"), Some(Value::Arr(events)) if events.len() == 4));
    }
}
