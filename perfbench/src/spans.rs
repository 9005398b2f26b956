//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic over them.
//!
//! A span has a name (the per-layer metric it feeds), a start, an end,
//! the span that caused it, and the ids of the request and the workload
//! operation it belongs to. A layer's *self time* is its span's duration
//! minus its children's.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// No parent: the span is a request's root.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The per-layer metric this span's self time feeds.
    pub name: &'static str,
    /// Index of the causing span in the same log, or [`NO_PARENT`].
    pub parent: u32,
    /// The workload operation the span belongs to.
    pub op: u64,
    /// The request the span belongs to (spans of one request share it).
    pub request: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// Handle of an open span (its index in the log).
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// One thread's span log. Spans nest strictly (begin/end are LIFO).
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
    request: u64,
}

impl SpanLog {
    /// An empty log whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::with_capacity(8),
            op: 0,
            request: 0,
        }
    }

    /// Marks the start of the next request of operation `op`.
    pub fn next_request(&mut self, op: u64) {
        self.op = op;
        self.request += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            request: self.request,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        Open(index)
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn end(&mut self, open: Open) {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close innermost first");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn within<R>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        let open = self.begin(name);
        let result = f(self);
        self.end(open);
        result
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: duration minus the children's durations, in µs.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut self_ns: Vec<i64> = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as i64)
        .collect();
    for span in spans {
        if span.parent != NO_PARENT {
            self_ns[span.parent as usize] -= (span.end_ns - span.start_ns) as i64;
        }
    }
    self_ns.into_iter().map(|ns| ns as f64 / 1e3).collect()
}

/// For every span name: the self time summed per operation, one entry
/// per operation in which the name occurs (µs).
pub fn per_op_self_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut sums: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
    for (span, self_us) in spans.iter().zip(self_times_us(spans)) {
        *sums.entry((span.name, span.op)).or_default() += self_us;
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), total) in sums {
        by_name.entry(name).or_default().push(total);
    }
    by_name
}

/// The span dump: one object per span (`name`, `op`, `request`, `id`,
/// `parent` — `null` for a root — `start_ns`, `end_ns`), threads in turn.
pub fn dump(logs: &[(&str, &SpanLog)]) -> Json {
    let threads = logs.iter().map(|(thread, log)| {
        let spans = log.spans().iter().enumerate().map(|(id, span)| {
            Json::obj([
                ("name", Json::str(span.name)),
                ("op", Json::Num(span.op as f64)),
                ("request", Json::Num(span.request as f64)),
                ("id", Json::Num(id as f64)),
                (
                    "parent",
                    match span.parent {
                        NO_PARENT => Json::Null,
                        parent => Json::Num(f64::from(parent)),
                    },
                ),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
            ])
        });
        Json::obj([
            ("thread", Json::str(*thread)),
            ("spans", Json::Arr(spans.collect())),
        ])
    });
    Json::Arr(threads.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, op: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op,
            request: op,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("root", NO_PARENT, 1, 0, 10_000),
            span("child", 0, 1, 1_000, 7_000),
            span("leaf", 1, 1, 2_000, 4_000),
            span("root", NO_PARENT, 2, 20_000, 21_000),
        ];
        assert_eq!(self_times_us(&spans), vec![4.0, 4.0, 2.0, 1.0]);
        let per_op = per_op_self_us(&spans);
        assert_eq!(per_op["root"], vec![4.0, 1.0]);
        assert_eq!(per_op["child"], vec![4.0]);
        // Self times of a request add up to its root's duration.
        let total: f64 = self_times_us(&spans[..3]).iter().sum();
        assert_eq!(total, 10.0);
    }

    #[test]
    fn log_nests_and_tags_spans() {
        let mut log = SpanLog::new(Instant::now());
        log.next_request(7);
        log.within("outer", |log| log.within("inner", |_| ()));
        log.next_request(8);
        log.within("outer", |_| ());
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent), (NO_PARENT, 0));
        assert_eq!((spans[0].op, spans[2].op), (7, 8));
        assert_ne!(spans[0].request, spans[2].request);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let dumped = dump(&[("client", &log)]);
        assert!(Json::parse(&dumped.to_compact()).is_ok());
    }
}
