//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (host nanoseconds since the tracer
//! was created), the span that caused it, a trace ID shared by every span
//! of one request or one kernel, and the number of operations it covered
//! (accesses replayed, events simulated, requests encoded). Spans stay in
//! memory and are written as JSON lines when the run ends. A disabled
//! tracer runs the closure and records nothing.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; nesting follows the closure call stack.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name` of trace `id`, covering `ops`
    /// operations.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        id: u64,
        ops: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
            ops,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record an already-measured interval (e.g. one client round trip
    /// timed on another thread) as a root span.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant, ops: u64) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: at(start),
            end_ns: at(end),
            ops,
        });
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.named(name).map(Span::ns).collect()
    }

    /// Summed duration and summed ops of every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.named(name)
            .fold((0, 0), |(ns, ops), s| (ns + s.ns(), ops + s.ops))
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Render every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"idx\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"ops\":{}}}\n",
                s.name, s.id, s.start_ns, s.end_ns, s.ops
            ));
        }
        out
    }

    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new(true);
        t.span("outer", 7, 1, |t| t.span("inner", 7, 2, |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.total("inner").1, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 1, 1, |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
