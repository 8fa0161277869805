//! In-memory spans for the traced run, written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Index of a recorded span, used as the parent of the spans it causes.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

/// Collects spans (name, start, end, parent, request id) in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // Spans are plain data pushed whole; a panic elsewhere leaves them valid.
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a span with explicit bounds.
    pub fn record(
        &self,
        name: &str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        let mut spans = self.spans();
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span that [`close`](Self::close) ends, so child spans can name
    /// it as their parent while it is running.
    pub fn open(&self, name: &str, request: u64, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, request, parent, now, now)
    }

    pub fn close(&self, id: SpanId) {
        let end = self.ns(Instant::now());
        if let Some(span) = self.spans().get_mut(id) {
            span.end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, request, parent, start, Instant::now());
        out
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.end_ns.saturating_sub(span.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans().iter() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |parent| parent.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when a tracer is present, plainly otherwise.
pub fn maybe_span<T>(
    tracer: Option<&Tracer>,
    name: &str,
    parent: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, 0, parent, f),
        None => f(),
    }
}
