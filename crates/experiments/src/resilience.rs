//! The `resilience` subcommand: sweeps injected-fault scenarios over
//! the paper's three design points and the full TPC-H workload,
//! reporting how gracefully each design degrades.
//!
//! Every point draws its fault scenario from a seed derived only from
//! `(study seed, design, rate, query)` — never from worker identity or
//! wall-clock — so the study (and its JSON) is byte-identical at any
//! `--jobs` setting. Queries whose required tile kinds were killed are
//! recorded as `unschedulable` data points, not errors: a resilience
//! sweep's job is precisely to count them.

use std::fmt::Write as _;

use q100_core::{CoreError, FaultScenario, SimConfig};

use crate::pool;
use crate::runner::{paper_designs, Workload};

/// Default injected-fault rates: a fault-free control plus three
/// escalating failure regimes.
pub const DEFAULT_RATES: [f64; 4] = [0.0, 0.05, 0.1, 0.2];

/// One simulated `(design, rate, query)` point.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePoint {
    /// Design name (`LowPower`, `Pareto`, `HighPerf`).
    pub design: &'static str,
    /// Injected fault rate in `[0, 1]`.
    pub rate: f64,
    /// Query name.
    pub query: &'static str,
    /// Faults the scenario injected.
    pub faults: usize,
    /// Whether tile kills forced a reschedule onto a degraded mix.
    pub rescheduled: bool,
    /// Degraded end-to-end cycles; `None` when the query could not be
    /// scheduled on the degraded machine.
    pub cycles: Option<u64>,
    /// The typed failure, when `cycles` is `None`.
    pub error: Option<String>,
    /// Fault-free cycles of the same (design, query) pair.
    pub baseline_cycles: u64,
}

impl ResiliencePoint {
    /// Degraded-over-baseline cycle ratio; `None` for failed points.
    #[must_use]
    pub fn slowdown(&self) -> Option<f64> {
        self.cycles.map(|c| {
            if self.baseline_cycles == 0 {
                1.0
            } else {
                c as f64 / self.baseline_cycles as f64
            }
        })
    }
}

/// A complete resilience study.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceStudy {
    /// The study seed every scenario derives from.
    pub seed: u64,
    /// The fault rates swept, in order.
    pub rates: Vec<f64>,
    /// All points, in `(design, rate, query)` order.
    pub points: Vec<ResiliencePoint>,
}

impl ResilienceStudy {
    /// The points of one `(design, rate)` cell, in workload order.
    fn cell(&self, design: &str, rate: f64) -> Vec<&ResiliencePoint> {
        self.points.iter().filter(|p| p.design == design && p.rate == rate).collect()
    }

    /// Renders the study as a fixed-width text table: per design and
    /// rate, the success count, geometric-mean slowdown over the
    /// surviving queries, reschedule count, and which queries became
    /// unschedulable.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Resilience under injected faults (seed {})", self.seed);
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>8} {:>10} {:>12}  unschedulable",
            "design", "rate", "ok", "geomean", "rescheduled"
        );
        for (design, _) in paper_designs() {
            for &rate in &self.rates {
                let cell = self.cell(design, rate);
                let ok: Vec<f64> = cell.iter().filter_map(|p| p.slowdown()).collect();
                let geomean = if ok.is_empty() {
                    "-".to_string()
                } else {
                    let ln_sum: f64 = ok.iter().map(|s| s.ln()).sum();
                    format!("{:.4}", (ln_sum / ok.len() as f64).exp())
                };
                let rescheduled = cell.iter().filter(|p| p.rescheduled).count();
                let failed: Vec<&str> =
                    cell.iter().filter(|p| p.cycles.is_none()).map(|p| p.query).collect();
                let _ = writeln!(
                    out,
                    "{:<10} {:>6.2} {:>5}/{:<2} {:>10} {:>12}  {}",
                    design,
                    rate,
                    ok.len(),
                    cell.len(),
                    geomean,
                    rescheduled,
                    if failed.is_empty() { "-".to_string() } else { failed.join(",") }
                );
            }
        }
        out
    }

    /// Renders the study as JSON. Deliberately excludes job counts and
    /// wall-clock so the output is byte-identical at any `--jobs`
    /// setting — the CI determinism smoke compares these bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"q100-resilience-v1\",");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let rates: Vec<String> = self.rates.iter().map(ToString::to_string).collect();
        let _ = writeln!(out, "  \"rates\": [{}],", rates.join(", "));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"design\": \"{}\", \"rate\": {}, \"query\": \"{}\", \
                 \"faults\": {}, \"rescheduled\": {}, \"cycles\": {}, \
                 \"baseline_cycles\": {}, \"error\": {}}}",
                p.design,
                p.rate,
                p.query,
                p.faults,
                p.rescheduled,
                p.cycles.map_or("null".to_string(), |c| c.to_string()),
                p.baseline_cycles,
                p.error.as_ref().map_or("null".to_string(), |e| format!("\"{e}\"")),
            );
            out.push_str(if i + 1 < self.points.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The scenario seed of one point: a stable FNV-style mix of the study
/// seed and the point's identity. Depends only on indices (never worker
/// id or timing), so scenarios reproduce at any `--jobs` setting.
#[must_use]
pub fn point_seed(seed: u64, design: usize, rate: usize, query: usize) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for v in [design as u64, rate as u64, query as u64] {
        h ^= v.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = h.wrapping_mul(0x100_0000_01b3).rotate_left(17);
    }
    h
}

/// Runs the full study: fault-free baselines for every design, then
/// every `(design, rate, query)` scenario across the worker pool. Each
/// scenario's degraded configuration ([`FaultScenario::apply`]) runs
/// through [`Workload::try_simulate`] like any sweep point, sharing its
/// plan cache and timing memo.
///
/// Bumps `resilience.faults.injected` by every point's fault count,
/// `resilience.runs.degraded` for every point with a fault, and
/// `resilience.reschedules` for every rescheduled point that ran.
///
/// Unschedulable degraded machines become failed points; any other
/// simulation error is also recorded (none occur today, but a sweep
/// must never abort half-way through a fault campaign).
#[must_use]
pub fn study(workload: &Workload, seed: u64, rates: &[f64]) -> ResilienceStudy {
    let designs = paper_designs();
    let configs: Vec<SimConfig> = designs.iter().map(|(_, c)| c.clone()).collect();
    let baselines = workload.sweep(&configs);

    let grid: Vec<(usize, usize, usize)> = (0..designs.len())
        .flat_map(|d| {
            (0..rates.len()).flat_map(move |r| (0..workload.queries.len()).map(move |q| (d, r, q)))
        })
        .collect();
    let points = pool::parallel_map_metered(
        &grid,
        |&(d, r, q)| {
            let (design, config) = &designs[d];
            let rate = rates[r];
            let prepared = &workload.queries[q];
            let scenario = FaultScenario::generate(point_seed(seed, d, r, q), rate, &config.mix);
            let faults = scenario.faults.len();
            let metrics = workload.metrics();
            metrics.inc("resilience.faults.injected", faults as u64);
            if faults > 0 {
                metrics.inc("resilience.runs.degraded", 1);
            }
            let degraded = scenario.apply(config);
            let rescheduled = degraded.mix != config.mix;
            let point = match workload.try_simulate(prepared, &degraded) {
                Ok(outcome) => {
                    if rescheduled {
                        metrics.inc("resilience.reschedules", 1);
                    }
                    ResiliencePoint {
                        design,
                        rate,
                        query: prepared.query.name,
                        faults,
                        rescheduled,
                        cycles: Some(outcome.cycles),
                        error: None,
                        baseline_cycles: baselines[d][q].cycles,
                    }
                }
                Err(e) => {
                    metrics.inc("resilience.unschedulable", 1);
                    ResiliencePoint {
                        design,
                        rate,
                        query: prepared.query.name,
                        faults,
                        rescheduled: false,
                        cycles: None,
                        error: Some(match e {
                            CoreError::Unschedulable { kind, .. } => {
                                format!("unschedulable: no {kind} tile left")
                            }
                            other => other.to_string(),
                        }),
                        baseline_cycles: baselines[d][q].cycles,
                    }
                }
            };
            Some(point)
        },
        Some(workload.metrics()),
    );
    let points = points.into_iter().map(|p| p.expect("one point per grid slot")).collect();
    ResilienceStudy { seed, rates: rates.to_vec(), points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_seed_is_stable_and_distinct() {
        assert_eq!(point_seed(42, 1, 2, 3), point_seed(42, 1, 2, 3));
        assert_ne!(point_seed(42, 1, 2, 3), point_seed(42, 1, 3, 2));
        assert_ne!(point_seed(42, 1, 2, 3), point_seed(43, 1, 2, 3));
    }

    #[test]
    fn study_is_job_count_independent_and_rate_zero_matches_baseline() {
        let run = |jobs: usize| {
            pool::set_jobs(Some(jobs));
            let w = Workload::prepare_subset(0.002, &["q6", "q1"]);
            let s = study(&w, 42, &[0.0, 0.3]);
            pool::set_jobs(None);
            s
        };
        let serial = run(1);
        let fanned = run(4);
        assert_eq!(serial.to_json(), fanned.to_json(), "resilience JSON must not depend on --jobs");

        // The fault-free control reproduces the baseline cycles exactly.
        for p in serial.points.iter().filter(|p| p.rate == 0.0) {
            assert_eq!(p.faults, 0, "{}: rate 0 must inject nothing", p.query);
            assert_eq!(
                p.cycles,
                Some(p.baseline_cycles),
                "{}: fault-free run must be byte-exact vs baseline",
                p.query
            );
            assert!(!p.rescheduled);
        }
        // The table renders every (design, rate) cell.
        let rendered = serial.render();
        assert!(rendered.contains("Pareto"));
        assert!(rendered.contains("geomean"));
    }

    #[test]
    fn heavy_fault_rates_degrade_but_never_abort() {
        let w = Workload::prepare_subset(0.002, &["q6"]);
        // Saturating rate: every kind derated, many kills. The sweep
        // must complete, with failures as typed points.
        let s = study(&w, 7, &[1.0]);
        assert_eq!(s.points.len(), 3, "one point per design");
        for p in &s.points {
            assert!(p.faults > 0);
            match p.cycles {
                Some(c) => assert!(c >= p.baseline_cycles, "{}: faults cannot speed up", p.design),
                None => assert!(p.error.as_deref().unwrap_or("").contains("unschedulable")),
            }
        }
    }

    #[test]
    fn resilience_counters_count_faults_degraded_runs_and_reschedules() {
        let w = Workload::prepare_subset(0.002, &["q6", "q1"]);
        let s = study(&w, 42, &[0.0, 0.3, 1.0]);
        let count = |f: &dyn Fn(&ResiliencePoint) -> bool| s.points.iter().filter(|p| f(p)).count();
        let m = w.metrics();
        let faults: usize = s.points.iter().map(|p| p.faults).sum();
        assert_eq!(m.counter("resilience.faults.injected"), faults as u64);
        assert_eq!(m.counter("resilience.runs.degraded"), count(&|p| p.faults > 0) as u64);
        let rescheduled = count(&|p| p.rescheduled && p.cycles.is_some());
        assert!(rescheduled > 0, "some kill must reschedule");
        assert_eq!(m.counter("resilience.reschedules"), rescheduled as u64);
        let failed = count(&|p| p.cycles.is_none());
        assert_eq!(m.counter("resilience.unschedulable"), failed as u64);
    }
}
