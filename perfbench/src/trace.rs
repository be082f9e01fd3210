//! In-memory spans recorded by the benchmark around its calls into the
//! system under test.
//!
//! A span has a name, a start, an end, a parent and a request id; the
//! spans of one request share the id. Spans are kept in memory and
//! written out once, when the run ends. A disabled [`Tracer`] records
//! nothing, so the same workload code runs traced and untraced.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `session.run`.
    pub name: &'static str,
    /// Request (or operation) the span belongs to.
    pub req: u64,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
}

impl Span {
    /// End minus start.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Nested spans are opened with [`Tracer::begin`] and
/// closed with [`Tracer::end`]; the innermost open span is the parent
/// of the next one.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer measuring from `origin`; records only when `enabled`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self { enabled, origin, spans: Vec::new(), open: Vec::new() }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span named `name` for request `req`, starting now.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.ns(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span { name, req, start_ns, end_ns: start_ns, parent });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close `span` now. Spans must close innermost first.
    pub fn end(&mut self, span: Open) {
        if let Some(idx) = span.0 {
            let now = self.ns(Instant::now());
            assert_eq!(self.open.pop(), Some(idx), "spans must close innermost first");
            self.spans[idx].end_ns = now;
        }
    }

    /// The innermost open span, if any.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Record an interval measured elsewhere under `parent`; returns
    /// its index (`None` when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, req, start_ns, end_ns, parent });
        Some(self.spans.len() - 1)
    }

    /// Move every span of `other` (same origin, e.g. another thread's
    /// tracer) into this one, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans in JSON Lines, one object per span, with its self time.
    pub fn to_jsonl(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns, selfs[i]
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
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
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}
