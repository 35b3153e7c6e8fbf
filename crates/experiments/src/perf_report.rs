//! The `perf-report` subcommand: a pinned sweep subset timed in both
//! wall-clock and simulated cycles, written as `BENCH_<date>.json` so
//! successive commits can be compared for performance regressions.
//!
//! Simulated-cycle totals (and the plan-cache counters) are
//! deterministic at any `--jobs` setting; the wall-clock fields are the
//! only run-dependent values, and regression tooling should compare
//! them across runs of the *same* machine only.

use std::fmt::Write as _;
use std::time::Instant;

use q100_core::Bandwidth;

use crate::pool;
use crate::runner::{paper_designs, Workload};

/// The pinned query subset: one scan-heavy (q6), one aggregation-heavy
/// (q1) and one join-bearing (q14) query — small enough for CI, varied
/// enough to exercise every tile kind.
pub const PINNED_QUERIES: [&str; 3] = ["q1", "q6", "q14"];

/// The pinned scale factor.
pub const PINNED_SCALE: f64 = 0.01;

/// NoC limits of the pinned fig13-style sweep, in GB/s.
pub const PINNED_NOC_LIMITS: [f64; 2] = [5.0, 10.0];

/// Requests of the pinned serving cell (Pareto design, heavy load, 20%
/// faults): small enough for CI, long enough that shedding, retries and
/// deadline policies all fire.
pub const PINNED_SERVE_REQUESTS: usize = 120;

/// One benchmarked figure: its deterministic simulated-cycle total and
/// the wall-clock it took to produce.
#[derive(Debug, Clone)]
pub struct FigureBench {
    /// Figure label, e.g. `design:Pareto` or `noc_sweep`.
    pub name: String,
    /// Total simulated cycles over every `(config, query)` point.
    pub sim_cycles: u64,
    /// Wall-clock milliseconds spent producing the figure.
    pub wall_ms: f64,
}

/// Per-query blame summary for one paper design: the deterministic
/// per-query cycle count (the regression gate's unit of comparison) and
/// the dominant stall cause from the attribution ledger.
#[derive(Debug, Clone)]
pub struct QueryBlame {
    /// Design name (`LowPower`/`Pareto`/`HighPerf`).
    pub design: String,
    /// Query name.
    pub query: String,
    /// Simulated cycles of this (design, query) point.
    pub cycles: u64,
    /// Dominant blame cause (snake_case name).
    pub top_cause: String,
    /// Cycles blamed on the dominant cause, summed over nodes.
    pub top_cause_cycles: f64,
}

/// A complete perf report.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// ISO date (`YYYY-MM-DD`) the report was generated.
    pub date: String,
    /// Worker count the sweeps ran with.
    pub jobs: usize,
    /// Wall-clock milliseconds of workload preparation (datagen +
    /// functional runs).
    pub prepare_wall_ms: f64,
    /// The benchmarked figures.
    pub figures: Vec<FigureBench>,
    /// Per-(design, query) cycles and dominant stall cause. The
    /// per-query cycles here are what `compare-bench` diffs against the
    /// committed baseline.
    pub blame: Vec<QueryBlame>,
    /// Plan-cache counters over the whole report: one lookup per
    /// simulation, one miss per scheduler run.
    pub cache: q100_core::CacheStats,
    /// Event-horizon solver counters over the whole report: fused jumps
    /// taken, quanta they skipped, quanta stepped one by one, the
    /// unretired node-quanta run inside replay folds, and the
    /// node-quanta retirement skipped. The
    /// simulations are deterministic, so these are byte-identical at
    /// any `--jobs` setting.
    pub jump: crate::runner::JumpStats,
}

impl PerfReport {
    /// Total simulated cycles over all figures.
    #[must_use]
    pub fn total_sim_cycles(&self) -> u64 {
        self.figures.iter().map(|f| f.sim_cycles).sum()
    }

    /// Renders the report as JSON. The `sim_cycles`, `cache` and
    /// workload-shape fields are byte-identical at any `--jobs`
    /// setting; `jobs` and the `wall_ms` fields are not.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"q100-bench-v1\",");
        let _ = writeln!(out, "  \"date\": \"{}\",", self.date);
        let _ = writeln!(out, "  \"scale\": {PINNED_SCALE},");
        let queries: Vec<String> = PINNED_QUERIES.iter().map(|q| format!("\"{q}\"")).collect();
        let _ = writeln!(out, "  \"queries\": [{}],", queries.join(", "));
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "  \"prepare_wall_ms\": {:.3},", self.prepare_wall_ms);
        out.push_str("  \"figures\": [\n");
        for (i, f) in self.figures.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"sim_cycles\": {}, \"wall_ms\": {:.3}}}",
                f.name, f.sim_cycles, f.wall_ms
            );
            out.push_str(if i + 1 < self.figures.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"blame\": [\n");
        for (i, b) in self.blame.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"design\": \"{}\", \"query\": \"{}\", \"cycles\": {}, \
                 \"top_cause\": \"{}\", \"top_cause_cycles\": {:.3}}}",
                b.design, b.query, b.cycles, b.top_cause, b.top_cause_cycles
            );
            out.push_str(if i + 1 < self.blame.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"total_sim_cycles\": {},", self.total_sim_cycles());
        let _ = writeln!(
            out,
            "  \"cache\": {{\"hits\": {}, \"misses\": {}}},",
            self.cache.hits, self.cache.misses
        );
        let _ = writeln!(
            out,
            "  \"jump\": {{\"jumps\": {}, \"jumped_quanta\": {}, \"stepped_quanta\": {},              \"coverage\": {:.4}, \"replayed_node_quanta\": {}, \"retired_node_quanta\": {}}}",
            self.jump.jumps,
            self.jump.jumped_quanta,
            self.jump.stepped_quanta,
            self.jump.coverage(),
            self.jump.replayed_node_quanta,
            self.jump.retired_node_quanta
        );
        out.push_str("}\n");
        out
    }
}

/// Runs the pinned sweep subset and assembles the report.
#[must_use]
pub fn run() -> PerfReport {
    let t_prep = Instant::now();
    let workload = Workload::prepare_subset(PINNED_SCALE, &PINNED_QUERIES);
    let prepare_wall_ms = t_prep.elapsed().as_secs_f64() * 1e3;

    let mut figures = Vec::new();
    for (name, config) in paper_designs() {
        let t = Instant::now();
        let sim_cycles = workload.simulate_all(&config).iter().map(|o| o.cycles).sum();
        figures.push(FigureBench {
            name: format!("design:{name}"),
            sim_cycles,
            wall_ms: t.elapsed().as_secs_f64() * 1e3,
        });
    }

    // A fig13-style NoC sweep: every design under each pinned limit.
    let t = Instant::now();
    let mut configs = Vec::new();
    for (_, config) in paper_designs() {
        for limit in PINNED_NOC_LIMITS {
            configs.push(config.clone().with_bandwidth(Bandwidth {
                noc_gbps: Some(limit),
                mem_read_gbps: None,
                mem_write_gbps: None,
            }));
        }
    }
    let sim_cycles = workload.sweep(&configs).iter().flatten().map(|o| o.cycles).sum();
    figures.push(FigureBench {
        name: "noc_sweep".to_string(),
        sim_cycles,
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
    });

    // The pinned serving cell: total request latency (arrival to
    // answer) in simulated cycles, so a regression in the serving
    // policies or the resilient timing path lands in the same gate as
    // the sweeps.
    let t = Instant::now();
    let soak = crate::serve::soak(&workload, 42, PINNED_SERVE_REQUESTS);
    let sim_cycles = soak.cells[0].report.outcomes.iter().map(|o| o.finish - o.arrival).sum();
    figures.push(FigureBench {
        name: "serve:soak".to_string(),
        sim_cycles,
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
    });

    // Per-(design, query) cycles and the dominant stall cause; the
    // regression gate diffs these per-query rows, so a figure-total
    // regression can be localized to the query that caused it.
    let mut blame = Vec::new();
    for (name, config) in paper_designs() {
        for prepared in &workload.queries {
            let (outcome, report) = workload.simulate_blamed(prepared, &config);
            let (cause, cycles) = report
                .top_causes()
                .first()
                .map_or((q100_core::trace::BlameCause::Drained, 0.0), |&(c, v)| (c, v));
            blame.push(QueryBlame {
                design: name.to_string(),
                query: prepared.query.name.to_string(),
                cycles: outcome.cycles,
                top_cause: cause.name().to_string(),
                top_cause_cycles: cycles,
            });
        }
    }

    PerfReport {
        date: today(),
        jobs: pool::jobs(),
        prepare_wall_ms,
        figures,
        blame,
        cache: workload.plan_cache_stats(),
        jump: workload.jump_stats(),
    }
}

/// Runs the report and writes it to `path` (default
/// `BENCH_<date>.json`), returning the path written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write(path: Option<&str>) -> std::io::Result<String> {
    let report = run();
    let path = path.map_or_else(|| format!("BENCH_{}.json", report.date), str::to_string);
    std::fs::write(&path, report.to_json())?;
    Ok(path)
}

/// Today's civil date as `YYYY-MM-DD`, from `SOURCE_DATE_EPOCH` when
/// set (reproducible builds) else the system clock. No external date
/// crate: the Gregorian conversion below is the standard
/// days-from-epoch algorithm.
#[must_use]
pub fn today() -> String {
    let secs = std::env::var("SOURCE_DATE_EPOCH")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs())
        });
    let (y, m, d) = civil_from_days(secs / 86_400);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Converts days since 1970-01-01 to a (year, month, day) civil date
/// (Howard Hinnant's `civil_from_days`).
fn civil_from_days(days: u64) -> (u64, u64, u64) {
    let z = days + 719_468;
    let era = z / 146_097;
    let doe = z % 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use q100_core::trace::json;

    #[test]
    fn civil_date_conversion_is_correct() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year start
        assert_eq!(civil_from_days(19_782), (2024, 2, 29)); // leap day
        assert_eq!(civil_from_days(20_666), (2026, 8, 1));
    }

    #[test]
    fn report_sim_cycles_are_job_count_independent() {
        type Extracted =
            (Vec<(String, f64)>, Vec<(String, String, f64, String)>, f64, f64, f64, f64);
        let extract = |text: &str| -> Extracted {
            let v = json::parse(text).unwrap();
            assert_eq!(v.get("schema").unwrap().as_str(), Some("q100-bench-v1"));
            let figs = v
                .get("figures")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|f| {
                    (
                        f.get("name").unwrap().as_str().unwrap().to_string(),
                        f.get("sim_cycles").unwrap().as_num().unwrap(),
                    )
                })
                .collect();
            let blame = v
                .get("blame")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|b| {
                    (
                        b.get("design").unwrap().as_str().unwrap().to_string(),
                        b.get("query").unwrap().as_str().unwrap().to_string(),
                        b.get("cycles").unwrap().as_num().unwrap(),
                        b.get("top_cause").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect();
            let hits = v.get("cache").unwrap().get("hits").unwrap().as_num().unwrap();
            let misses = v.get("cache").unwrap().get("misses").unwrap().as_num().unwrap();
            let jump = v.get("jump").unwrap();
            let jumped = jump.get("jumped_quanta").unwrap().as_num().unwrap();
            let stepped = jump.get("stepped_quanta").unwrap().as_num().unwrap();
            let coverage = jump.get("coverage").unwrap().as_num().unwrap();
            assert!(jumped > 0.0, "the pinned sweep must take fused jumps");
            assert!(coverage > 0.5, "jump coverage collapsed: {coverage}");
            (figs, blame, hits, misses, jumped, stepped)
        };

        pool::set_jobs(Some(1));
        let serial = extract(&run().to_json());
        pool::set_jobs(Some(4));
        let fanned = extract(&run().to_json());
        pool::set_jobs(None);

        assert_eq!(serial, fanned, "deterministic fields must not depend on --jobs");
        assert_eq!(serial.0.len(), 5, "three designs, the NoC sweep, and the serve cell");
        assert!(serial.0.iter().all(|(_, c)| *c > 0.0));
        assert_eq!(serial.1.len(), 9, "three designs x three pinned queries");
        // Per-query blame cycles are consistent with the design figure
        // totals the gate also checks.
        for (name, total) in &serial.0 {
            if let Some(design) = name.strip_prefix("design:") {
                let sum: f64 = serial.1.iter().filter(|b| b.0 == design).map(|b| b.2).sum();
                assert_eq!(sum, *total, "blame rows must sum to the {design} figure");
            }
        }
    }
}
