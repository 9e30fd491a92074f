//! In-memory tracing for the traced run.
//!
//! Coarse calls into a layer (one experiment, one replay, one decode)
//! are recorded as spans: name, start, end, parent span and run id.
//! Per-operation calls (one access, one kernel service, one core
//! switch) are far too many to keep one span each, so they are kept as
//! per-name call records instead: every duration, for percentiles, and
//! the enclosing span, so self time stays exact. Everything stays in
//! memory and is written out once, when the run ends.
//!
//! A name's layer is the text before its first `.`: `trace.replay` is
//! in layer `trace`. With tracing off every method is a plain call
//! with no clock reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Dotted name, layer first.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Time covered by this span's direct children (spans and calls).
    child_ns: u64,
}

impl Span {
    /// Wall duration.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Every timed call of one name.
#[derive(Clone, Debug, Default)]
pub struct Calls {
    /// Per-call durations in nanoseconds, in call order.
    pub samples_ns: Vec<u64>,
}

impl Calls {
    /// Sum of all call durations.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.samples_ns.iter().sum()
    }

    /// The `q`-quantile (0..=1) of the call durations, nearest rank;
    /// zero with no calls.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        quantile(&self.samples_ns, q)
    }
}

/// Nearest-rank quantile of unsorted samples; zero when empty.
#[must_use]
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The span and call recorder. Disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    run_id: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    calls: BTreeMap<&'static str, Calls>,
}

impl Tracer {
    /// A recorder; `on == false` makes every method a plain call.
    #[must_use]
    pub fn new(on: bool, run_id: impl Into<String>) -> Self {
        Tracer {
            on,
            run_id: run_id.into(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            calls: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`. Spans opened inside `f`
    /// become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            child_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        if let Some(p) = self.spans[id].parent {
            self.spans[p].child_ns += end_ns - start_ns;
        }
        out
    }

    /// Times one call of `f` under `name`, charged to the open span.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.calls.entry(name).or_default().samples_ns.push(ns);
        if let Some(&p) = self.open.last() {
            self.spans[p].child_ns += ns;
        }
        out
    }

    /// Timed calls by name.
    #[must_use]
    pub fn calls(&self, name: &str) -> Option<&Calls> {
        self.calls.get(name)
    }

    /// Median duration of the calls named `name`, in milliseconds; zero
    /// with no calls.
    #[must_use]
    pub fn median_ms(&self, name: &str) -> f64 {
        self.calls(name)
            .map_or(0.0, |c| c.quantile_ns(0.5) as f64 / 1e6)
    }

    /// Total seconds in spans called `name`.
    #[must_use]
    pub fn span_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Self seconds per layer: each span's duration minus the time its
    /// direct children cover, plus every timed call, summed by layer.
    #[must_use]
    pub fn self_s_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            let own = s.dur_ns().saturating_sub(s.child_ns);
            *out.entry(layer_of(s.name)).or_default() += own as f64 / 1e9;
        }
        for (name, calls) in &self.calls {
            *out.entry(layer_of(name)).or_default() += calls.total_ns() as f64 / 1e9;
        }
        out
    }

    /// Spans and call summaries as JSON lines, one record per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{}\",\"kind\":\"span\",\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            );
        }
        for (name, c) in &self.calls {
            let _ = writeln!(
                out,
                "{{\"run\":\"{}\",\"kind\":\"calls\",\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                self.run_id,
                c.samples_ns.len(),
                c.total_ns(),
                c.quantile_ns(0.50),
                c.quantile_ns(0.99)
            );
        }
        out
    }
}

/// The layer a span or call name belongs to.
#[must_use]
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, "t");
        t.span("bench.outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("sim.inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.call("os.call", || {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        });
        let by_layer = t.self_s_by_layer();
        let total = t.span_s("bench.outer");
        let sum: f64 = by_layer.values().sum();
        assert!((sum - total).abs() < 1e-6, "self times partition the root");
        assert!(by_layer["sim"] >= 0.005 && by_layer["os"] >= 0.003);
        assert!(by_layer["bench"] >= 0.002 && by_layer["bench"] < total - 0.008);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, "t");
        let v = t.span("bench.x", |t| t.call("sim.y", || 7));
        assert_eq!(v, 7);
        assert!(t.spans.is_empty() && t.calls("sim.y").is_none());
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), 50);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
