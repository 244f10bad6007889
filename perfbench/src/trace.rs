//! In-memory spans around every public call the benchmark makes.
//!
//! A span has a name, a start and an end (µs since the run began), the
//! span that caused it, and a request id of the form
//! `workload/seed-N/...`. Spans stay in memory while the benchmark runs
//! and are written out as JSON lines when it ends. A disabled tracer
//! records nothing, so untraced runs pay one branch per call.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span; [`NO_SPAN`] when nothing was recorded.
pub type SpanId = usize;
pub const NO_SPAN: SpanId = usize::MAX;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: SpanId,
    request: usize,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    requests: Vec<String>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            requests: Vec::new(),
        }
    }

    /// An empty tracer on the same clock, for another thread; merge it
    /// back with [`Self::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            spans: Vec::new(),
            requests: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Registers a request id and returns its handle.
    pub fn request(&mut self, id: impl FnOnce() -> String) -> usize {
        if !self.on {
            return 0;
        }
        self.requests.push(id());
        self.requests.len() - 1
    }

    /// Records a finished call.
    pub fn record(
        &mut self,
        name: &'static str,
        request: usize,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`Self::close`] ends later.
    pub fn open(&mut self, name: &'static str, request: usize, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, request, parent, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(span) = self.spans.get_mut(id) {
            span.end = Instant::now();
        }
    }

    /// Moves every span of `other` into this tracer, keeping parents.
    pub fn absorb(&mut self, other: Tracer) {
        let span_base = self.spans.len();
        let request_base = self.requests.len();
        self.requests.extend(other.requests);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_SPAN {
                s.parent += span_base;
            }
            s.request += request_base;
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per span.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120);
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"request\": \"{}\"}}",
                s.name,
                us(s.start),
                us(s.end),
                self.requests[s.request]
            );
        }
        out
    }
}
