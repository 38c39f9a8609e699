//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, op, epoch)`. Spans nest on one
//! stack (the load generator is a single thread), are kept in memory
//! while the run lasts and written out once it ends. `epoch` indexes the
//! set-up or segment the span ran in, so its duration can be scaled by
//! that epoch's host-speed factor (see `harness`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
    pub epoch: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. While `recording` is false every call is a branch and
/// nothing else, so untraced segments pay no tracing cost.
pub struct Tracer {
    pub recording: bool,
    pub epoch: u32,
    pub op: u64,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            recording: false,
            epoch: 0,
            op: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.recording {
            return f();
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
            epoch: self.epoch,
        });
        self.stack.push(idx);
        let r = f();
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        r
    }

    /// Records a span whose duration was measured by the program itself
    /// (for example the runtime's own cold plan-acquisition time), ending now.
    pub fn record(&mut self, name: &'static str, dur: Duration) {
        if !self.recording {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(dur.as_nanos() as u64),
            end_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
            epoch: self.epoch,
        });
    }

    /// Durations (seconds, scaled by `factors[epoch]`) of every span named `name`.
    pub fn durations(&self, name: &str, factors: &[f64]) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs() * factors[s.epoch as usize])
            .collect()
    }

    /// Per-name table: count, total, self time (total minus the time its
    /// child spans cover) and median, all host-scaled, in milliseconds.
    pub fn table(&self, factors: &[f64]) -> String {
        #[derive(Default)]
        struct Row {
            count: u64,
            total: f64,
            child: f64,
            durs: Vec<f64>,
        }
        let mut rows: BTreeMap<&str, Row> = BTreeMap::new();
        for s in &self.spans {
            let d = s.secs() * factors[s.epoch as usize];
            let row = rows.entry(s.name).or_default();
            row.count += 1;
            row.total += d;
            row.durs.push(d);
            if s.parent != NO_PARENT {
                let parent = self.spans[s.parent as usize].name;
                rows.entry(parent).or_default().child += d;
            }
        }
        let mut out = format!(
            "{:<28} {:>8} {:>11} {:>11} {:>10}\n",
            "layer span", "count", "total ms", "self ms", "p50 us"
        );
        for (name, mut row) in rows {
            let p50 = crate::harness::quantile(&mut row.durs, 0.5) * 1e6;
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>11.3} {:>11.3} {:>10.1}",
                name,
                row.count,
                row.total * 1e3,
                (row.total - row.child) * 1e3,
                p50
            );
        }
        out
    }

    /// The spans as JSON lines, raw (unscaled) nanoseconds since the run began.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"epoch\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op, s.epoch
            );
        }
        out
    }
}
