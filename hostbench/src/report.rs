//! The metrics a run reports, and how the result is printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
/// `BENCHMARK.json` gives each its direction and regression bound.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
    ("p50_latency_cycles", "cycles"),
    ("p99_latency_cycles", "cycles"),
    ("completed_share", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs. A layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("tpch.datagen_s", "s"),
    ("tpch.queries_s", "s"),
    ("core.functional_s", "s"),
    ("core.functional_max_query_s", "s"),
    ("serve.device_build_s", "s"),
    ("core.sched_s", "s"),
    ("core.sched_calls", "count"),
    ("core.plan_s", "s"),
    ("core.plan_calls", "count"),
    ("core.timing_s", "s"),
    ("core.timing_calls", "count"),
    ("core.timing_ms_p50", "ms"),
    ("core.timing_ms_p99", "ms"),
    ("core.timing_quanta", "count"),
    ("core.timing_stepped_quanta", "count"),
    ("core.timing_jumps", "count"),
    ("core.timing_jump_coverage", "ratio"),
    ("core.timing_ns_per_quantum", "ns"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("serve.requests_s", "s"),
    ("serve.phase1_rounds", "count"),
    ("serve.phase1_sims", "count"),
    ("serve.phase1_sim_s", "s"),
    ("serve.phase1_sim_ms_p50", "ms"),
    ("serve.phase1_sim_ms_p99", "ms"),
    ("serve.rest_s", "s"),
    ("serve.cost_cache_hit_ratio", "ratio"),
    ("serve.cost_cache_misses", "count"),
    ("serve.plan_cache_misses", "count"),
    ("core.resilience_unique_class_ratio", "ratio"),
    ("serve.attempts_per_request", "ratio"),
    ("experiments.pool_cpu_util", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.wall_s", "s"),
];

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Ops attempted (sweep simulations or offered requests).
    pub attempted: u64,
    /// Ops whose output failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Timed passes run.
    pub passes: usize,
    /// Human-readable notes on what was checked.
    pub notes: Vec<String>,
    /// Pins rendered from this run's outputs (see `hostbench pin`).
    pub pins: String,
    /// The Chrome trace of a traced run.
    pub trace_json: Option<String>,
}

impl Report {
    /// Whether every checked output matched.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The reported metrics `(name, unit, value)`: every end-to-end
    /// metric for an untraced run, every per-layer one for a traced run.
    ///
    /// # Panics
    ///
    /// Panics when an untraced run left an end-to-end metric unset (a
    /// bug in the runner).
    #[must_use]
    pub fn metrics(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).copied();
                assert!(traced || value.is_some(), "end-to-end metric `{name}` was not measured");
                let value = value.unwrap_or(0.0);
                (name, unit, if value.is_finite() { value } else { 0.0 })
            })
            .collect()
    }

    /// The `"metrics"` JSON object.
    #[must_use]
    pub fn metrics_json(&self, traced: bool) -> String {
        let fields: Vec<String> = self
            .metrics(traced)
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn result_line(&self, traced: bool) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(traced)
        )
    }

    /// One line per metric, `name = value unit`, then the notes.
    #[must_use]
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for (name, unit, value) in self.metrics(traced) {
            let _ = writeln!(out, "{name:<36} = {value} {unit}");
        }
        out
    }
}
