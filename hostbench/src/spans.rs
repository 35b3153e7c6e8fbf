//! Host-time spans recorded from the benchmark's own code, around its
//! calls into each layer of the simulator.
//!
//! Spans nest (pass → op → layer call) and are kept in memory until the
//! run ends. A *layer* span stands for work inside the program; the
//! others (`setup`, `pass`, `op`) only group it, so their self time is
//! the harness's own overhead. [`Tracer::coverage`] is the share of the
//! traced wall that layer spans account for.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer or grouping name, e.g. `core.timing` or `op`.
    name: &'static str,
    /// Whether the span times a call into the program.
    layer: bool,
    /// The enclosing span, if any.
    parent: Option<usize>,
    /// Start, in seconds since the tracer was created.
    start: f64,
    /// End, in seconds since the tracer was created.
    end: f64,
}

impl Span {
    fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span recorder with an explicit open-span stack.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder; span times are relative to now.
    #[must_use]
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, layer: bool) {
        let now = self.now();
        self.spans.push(Span {
            name,
            layer,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (a bug in the caller's nesting).
    pub fn close(&mut self) {
        let id = self.open.pop().expect("close() without a matching open()");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a layer span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name, true);
        let r = f();
        self.close();
        r
    }

    /// Durations in seconds of every span named `name`, in start order.
    #[must_use]
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
    }

    /// Total seconds spent in spans named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.seconds(name).iter().sum()
    }

    /// Number of spans named `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.seconds();
            }
        }
        own
    }

    /// Self seconds summed over spans named `name`.
    #[must_use]
    pub fn self_total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// `(coverage, wall)`: the traced wall is the summed duration of the
    /// root spans, and coverage is the self time of layer spans over it.
    #[must_use]
    pub fn coverage(&self) -> (f64, f64) {
        let wall: f64 = self.spans.iter().filter(|s| s.parent.is_none()).map(Span::seconds).sum();
        let layered: f64 =
            self.spans.iter().zip(self.self_times()).filter(|(s, _)| s.layer).map(|(_, t)| t).sum();
        (crate::stats::ratio(layered, wall), wall)
    }

    /// The spans as Chrome `trace_event` JSON (complete events, host
    /// microseconds, one process and thread).
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {i}, \"parent\": {}}}}}",
                s.name,
                if s.layer { "layer" } else { "group" },
                s.start * 1e6,
                s.seconds() * 1e6,
                s.parent.map_or(-1, |p| p as i64),
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_coverage_follow_nesting() {
        let mut t = Tracer::new();
        t.open("pass", false);
        t.time("core.timing", || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.close();
        assert_eq!(t.count("core.timing"), 1);
        let (coverage, wall) = t.coverage();
        assert!(wall >= 0.005);
        assert!(coverage > 0.5 && coverage <= 1.0, "coverage {coverage}");
        assert!(t.self_total("pass") < t.total("pass"));
        let json = q100_trace::json::parse(&t.chrome_json()).expect("valid JSON");
        assert_eq!(json.get("traceEvents").and_then(|e| e.as_arr()).map(<[_]>::len), Some(2));
    }
}
