//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer's public function, timed from the
//! benchmark's side of the call: name (the layer), start and end relative
//! to the run's origin, the span that caused it, and the request it served.
//! Spans stay in memory while the run measures and are written as JSON
//! lines only once it ends, so file I/O never lands inside a timed call.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run (see [`Tracer::new`] for how threads share
    /// the id space).
    pub id: u64,
    /// The causing span, if any.
    pub parent: Option<u64>,
    /// Request the span served; spans of one request share it.
    pub request: u64,
    /// Layer name, e.g. `core.engine`.
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// Span duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

/// A per-thread span recorder. Every thread of a run gets its own tracer
/// over the same origin; ids carry the thread's lane in their high bits, so
/// merged spans never collide.
pub struct Tracer {
    origin: Instant,
    lane: u64,
    next: u64,
    spans: Vec<Span>,
}

/// An open span; close it with [`Tracer::end`].
#[must_use = "an open span records nothing until it is ended"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// The span's id, for use as a child's parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    /// A tracer for thread `lane` measuring from `origin`.
    pub fn new(origin: Instant, lane: u32) -> Self {
        Tracer {
            origin,
            lane: u64::from(lane) << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>, request: u64) -> Open {
        self.next += 1;
        Open {
            id: self.lane | self.next,
            parent,
            request,
            name,
            start: Instant::now(),
        }
    }

    /// Closes `open`, records it and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        let ns = |t: Instant| u64::try_from((t - self.origin).as_nanos()).unwrap_or(u64::MAX);
        let span = Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: ns(open.start),
            end_ns: ns(end),
        };
        let took = span.duration();
        self.spans.push(span);
        took
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.begin(name, parent, request);
        let out = f();
        (out, self.end(open))
    }

    /// Moves every span of `other` into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// All recorded spans, in recording order per lane.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e6)
            .collect()
    }

    /// Writes every span as one JSON object per line to `path`, creating
    /// its parent directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
