//! Spans around the benchmark's calls into the emulator's layers.
//!
//! A span is recorded only in traced rounds; in untraced rounds
//! [`Tracer::span`] calls straight through, so the end-to-end timings
//! carry no tracing cost. Spans stay in memory until the round ends and
//! are then folded into per-layer busy time by name.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Per-layer metric the span's duration is charged to.
    pub name: &'static str,
    /// Start, in seconds since the tracer was created.
    pub start_s: f64,
    /// End, in seconds since the tracer was created.
    pub end_s: f64,
}

/// Records spans while switched on.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that starts switched off.
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off for the next round.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether this round records spans (and runs the replays that only
    /// the traced run reports).
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording a span named `name` when tracing is on.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_s: start.duration_since(self.origin).as_secs_f64(),
            end_s: end.duration_since(self.origin).as_secs_f64(),
        });
        out
    }

    /// Drains the round's spans into total seconds per span name.
    pub fn drain_totals(&mut self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for s in self.spans.drain(..) {
            *totals.entry(s.name).or_insert(0.0) += s.end_s - s.start_s;
        }
        totals
    }
}
