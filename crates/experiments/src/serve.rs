//! The `serve` subcommand: pushes seeded multi-tenant TPC-H query
//! streams through each paper design wrapped in the `q100-serve`
//! robustness policies, sweeping load level × injected-fault rate and
//! reporting shed / degraded / deadline-miss rates.
//!
//! Every cell derives its request stream and fault scenarios from a
//! seed mixed only from `(study seed, design, load, rate)` — never from
//! worker identity — and the serving loop itself runs on a virtual
//! clock, so the study JSON is byte-identical at any `--jobs` setting.

use std::fmt::Write as _;

use q100_dbms::SoftwareCost;
use q100_serve::{
    mix_seed, run_service, run_service_on, Parallelism, Q100Device, ServePolicy, ServeReport,
    ServiceQuery, TenantSpec,
};

use crate::pool;
use crate::runner::{paper_designs, Workload};

/// Phase-1 cost resolution fanned over the experiment worker pool.
/// Only the soak path uses it — the 18-cell grid is already
/// pool-parallel across cells, so its cells resolve costs serially.
struct PoolParallelism;

impl Parallelism for PoolParallelism {
    fn run(&self, n: usize, f: &(dyn Fn(usize) -> u64 + Sync)) -> Vec<u64> {
        let indices: Vec<usize> = (0..n).collect();
        pool::parallel_map(&indices, |&i| f(i))
    }
}

/// Default injected-fault rates: a fault-free control plus two failure
/// regimes.
pub const DEFAULT_RATES: [f64; 3] = [0.0, 0.05, 0.2];

/// Load levels as multiples of the device's mean fault-free service
/// time: `light` offers one request per 2× mean service time (the
/// device keeps up), `heavy` offers one per 0.6× (a 1.67× overload the
/// admission policies must absorb).
pub const LOADS: [(&str, f64); 2] = [("light", 2.0), ("heavy", 0.6)];

/// Default offered requests per cell.
pub const DEFAULT_REQUESTS: usize = 200;

/// One `(design, load, rate)` cell of the study.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCell {
    /// Design name (`LowPower`, `Pareto`, `HighPerf`).
    pub design: &'static str,
    /// Load-level name (`light`, `heavy`).
    pub load: &'static str,
    /// Load factor (mean inter-arrival gap over mean service time).
    pub load_factor: f64,
    /// Injected fault rate in `[0, 1]`.
    pub rate: f64,
    /// The full serving report.
    pub report: ServeReport,
}

/// Aggregate cache statistics over a study's devices, captured after
/// every cell has run. All counts are deterministic at any `--jobs`
/// setting: hit/miss splits are length-based, the plan cache is
/// single-flight, and neither cache evicts (see
/// [`q100_core::CacheStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeCaches {
    /// Service-cost cache hits (attempt classes answered without
    /// simulating).
    pub cost_hits: u64,
    /// Service-cost cache misses — each one is a unique timing
    /// simulation the study actually ran.
    pub cost_misses: u64,
    /// Service-cost cache evictions.
    pub cost_evictions: u64,
    /// Distinct `(query, class)` costs resident at the end.
    pub cost_entries: u64,
    /// Stage-plan cache hits.
    pub plan_hits: u64,
    /// Stage-plan cache misses — each one is a scheduler run.
    pub plan_misses: u64,
    /// Stage-plan cache evictions.
    pub plan_evictions: u64,
}

impl ServeCaches {
    /// Sums the cache counters of every device in the study.
    fn collect(devices: &[(&'static str, Q100Device<'_>)]) -> ServeCaches {
        let mut c = ServeCaches::default();
        for (_, device) in devices {
            let cost = device.cost_cache().stats();
            c.cost_hits += cost.hits;
            c.cost_misses += cost.misses;
            c.cost_evictions += device.cost_cache().evictions();
            c.cost_entries += device.cost_cache().len() as u64;
            let plan = device.plan_cache().stats();
            c.plan_hits += plan.hits;
            c.plan_misses += plan.misses;
            c.plan_evictions += device.plan_cache().evictions();
        }
        c
    }

    /// The one-line summary the `serve` subcommand prints, in the same
    /// style as the per-figure `plan cache:` lines.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "cost cache: {} hits, {} misses (unique sims), {} entries, {} evictions; \
             plan cache: {} hits, {} misses\n",
            self.cost_hits,
            self.cost_misses,
            self.cost_entries,
            self.cost_evictions,
            self.plan_hits,
            self.plan_misses,
        )
    }
}

/// A complete serving study.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStudy {
    /// The study seed every stream and scenario derives from.
    pub seed: u64,
    /// Offered requests per cell.
    pub requests: usize,
    /// The fault rates swept, in order.
    pub rates: Vec<f64>,
    /// All cells, in `(design, load, rate)` order.
    pub cells: Vec<ServeCell>,
    /// Aggregate device cache statistics (`cost_misses` is the number
    /// of unique timing simulations the whole study ran).
    pub caches: ServeCaches,
}

impl ServeStudy {
    /// Renders the study as a fixed-width text table: per cell, the
    /// disposition counts and the interactive tenant's p99 latency.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Query serving under load and faults (seed {}, {} requests/cell)",
            self.seed, self.requests
        );
        let _ = writeln!(
            out,
            "{:<10} {:<6} {:>5} {:>9} {:>6} {:>9} {:>7} {:>8} {:>8} {:>12}",
            "design",
            "load",
            "rate",
            "completed",
            "shed",
            "degraded",
            "missed",
            "retries",
            "breaker",
            "p99(inter)"
        );
        for c in &self.cells {
            let r = &c.report;
            let p99 = r.tenants.first().map_or(0, |t| t.p99_latency_cycles);
            let _ = writeln!(
                out,
                "{:<10} {:<6} {:>5.2} {:>9} {:>6} {:>9} {:>7} {:>8} {:>8} {:>12}",
                c.design,
                c.load,
                c.rate,
                r.completed,
                r.shed,
                r.degraded,
                r.deadline_missed,
                r.retries,
                r.breaker_opens,
                p99,
            );
        }
        out.push_str(&self.caches.render());
        out
    }

    /// Renders the study as JSON (`q100-serve-v1`). Deliberately
    /// excludes job counts and wall-clock so the output is
    /// byte-identical at any `--jobs` setting — the CI determinism
    /// smoke compares these bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"q100-serve-v1\",");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"requests\": {},", self.requests);
        let rates: Vec<String> = self.rates.iter().map(ToString::to_string).collect();
        let _ = writeln!(out, "  \"rates\": [{}],", rates.join(", "));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let r = &c.report;
            let _ = writeln!(
                out,
                "    {{\"design\": \"{}\", \"load\": \"{}\", \"load_factor\": {}, \
                 \"rate\": {},",
                c.design, c.load, c.load_factor, c.rate
            );
            let _ = writeln!(
                out,
                "     \"offered\": {}, \"admitted\": {}, \"shed\": {}, \
                 \"shed_queue_full\": {}, \"shed_breaker\": {},",
                r.offered, r.admitted, r.shed, r.shed_queue_full, r.shed_breaker
            );
            let _ = writeln!(
                out,
                "     \"completed\": {}, \"degraded\": {}, \"deadline_missed\": {}, \
                 \"retries\": {}, \"breaker_opens\": {},",
                r.completed, r.degraded, r.deadline_missed, r.retries, r.breaker_opens
            );
            let _ = writeln!(
                out,
                "     \"fallback_runs\": {}, \"fallback_runtime_ms\": {:.6}, \
                 \"fallback_energy_mj\": {:.6},",
                r.fallback.runs, r.fallback.runtime_ms, r.fallback.energy_mj
            );
            let _ = writeln!(
                out,
                "     \"cost_attempts\": {}, \"cost_unique_classes\": {},",
                r.cost_attempts, r.cost_unique_classes
            );
            out.push_str("     \"tenants\": [");
            for (j, t) in r.tenants.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"name\": \"{}\", \"offered\": {}, \"shed\": {}, \
                     \"completed\": {}, \"degraded\": {}, \"deadline_missed\": {}, \
                     \"p50_latency_cycles\": {}, \"p99_latency_cycles\": {}}}",
                    if j == 0 { "" } else { ", " },
                    t.name,
                    t.offered,
                    t.shed,
                    t.completed,
                    t.degraded,
                    t.deadline_missed,
                    t.p50_latency_cycles,
                    t.p99_latency_cycles,
                );
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.cells.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        let c = &self.caches;
        let _ = writeln!(out, "  \"unique_sims\": {},", c.cost_misses);
        let _ = writeln!(
            out,
            "  \"caches\": {{\"cost\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \
             \"evictions\": {}}}, \"plan\": {{\"hits\": {}, \"misses\": {}, \
             \"evictions\": {}}}}}",
            c.cost_hits,
            c.cost_misses,
            c.cost_entries,
            c.cost_evictions,
            c.plan_hits,
            c.plan_misses,
            c.plan_evictions
        );
        out.push_str("}\n");
        out
    }
}

/// The three tenants of the study, scaled to the device under test:
/// `interactive` (half the traffic, 4× mean-service-time deadlines),
/// `analytics` (10×), and `batch` (30×). Query lists interleave the
/// workload round-robin so every tenant exercises several graphs.
#[must_use]
pub fn tenants(mean_cycles: u64, query_count: usize, load_factor: f64) -> Vec<TenantSpec> {
    let names = ["interactive", "analytics", "batch"];
    let weights = [2u32, 1, 1];
    let deadlines = [4u64, 10, 30];
    let total_weight: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    let mean = mean_cycles.max(1);
    names
        .iter()
        .zip(weights)
        .zip(deadlines)
        .enumerate()
        .map(|(t, ((name, weight), deadline))| {
            let mut queries: Vec<usize> = (0..query_count).filter(|q| q % 3 == t).collect();
            if queries.is_empty() {
                queries = (0..query_count).collect();
            }
            // Offered rates sum to `1 / (load_factor × mean)` across
            // tenants, split proportionally to weight.
            let period =
                (load_factor * mean as f64 * total_weight as f64 / f64::from(weight)) as u64;
            TenantSpec {
                name: (*name).to_string(),
                period_cycles: period.max(1),
                deadline_cycles: deadline * mean,
                queries,
                weight,
            }
        })
        .collect()
}

/// The serving policy of the study, with retry/breaker horizons scaled
/// to the device's mean fault-free service time.
#[must_use]
pub fn policy(mean_cycles: u64, fault_rate: f64) -> ServePolicy {
    let mean = mean_cycles.max(16);
    ServePolicy {
        queue_depth: 8,
        max_attempts: 3,
        backoff_base_cycles: mean / 8,
        fail_cost_cycles: mean / 16,
        breaker_threshold: 4,
        breaker_cooldown_cycles: 8 * mean,
        fault_rate,
    }
}

/// Builds one serving device per paper design over the prepared
/// workload, modeling each query's software fallback by running its
/// plan through the DBMS cost model once.
///
/// # Panics
///
/// Panics if a query's software plan fails to execute or a design
/// cannot schedule a query fault-free (the test suite validates both).
#[must_use]
pub fn build_devices<'w>(workload: &'w Workload) -> Vec<(&'static str, Q100Device<'w>)> {
    let software: Vec<SoftwareCost> = pool::parallel_map_metered(
        &workload.queries,
        |prepared| {
            let plan = (prepared.query.software)();
            let (_, stats) = q100_dbms::run(&plan, &workload.db)
                .unwrap_or_else(|e| panic!("{}: software run failed: {e}", prepared.query.name));
            Some(SoftwareCost::of(&stats))
        },
        Some(workload.metrics()),
    )
    .into_iter()
    .map(|c| c.expect("one cost per query"))
    .collect();
    paper_designs()
        .into_iter()
        .map(|(name, config)| {
            let queries: Vec<ServiceQuery<'w>> = workload
                .queries
                .iter()
                .zip(&software)
                .map(|(prepared, software)| ServiceQuery {
                    name: prepared.query.name.to_string(),
                    graph: &prepared.graph,
                    functional: &prepared.functional,
                    software: *software,
                })
                .collect();
            let device = Q100Device::new(config, queries)
                .unwrap_or_else(|e| panic!("{name}: device construction failed: {e}"));
            (name, device)
        })
        .collect()
}

/// Runs the full study: every `(design, load, rate)` cell across the
/// worker pool, each serving `requests` requests.
#[must_use]
pub fn study(workload: &Workload, seed: u64, requests: usize, rates: &[f64]) -> ServeStudy {
    let devices = build_devices(workload);
    let grid: Vec<(usize, usize, usize)> = (0..devices.len())
        .flat_map(|d| (0..LOADS.len()).flat_map(move |l| (0..rates.len()).map(move |r| (d, l, r))))
        .collect();
    let cells = pool::parallel_map_metered(
        &grid,
        |&(d, l, r)| {
            let (design, device) = &devices[d];
            let (load, load_factor) = LOADS[l];
            let rate = rates[r];
            let mean = device.mean_baseline_cycles();
            let specs = tenants(mean, device.queries().len(), load_factor);
            let report = run_service(
                device,
                &specs,
                &policy(mean, rate),
                mix_seed(seed, &[d as u64, l as u64, r as u64]),
                requests,
                None,
                Some(workload.metrics()),
            );
            report
                .check_invariants()
                .unwrap_or_else(|e| panic!("{design}/{load}/{rate}: invariant violated: {e}"));
            Some(ServeCell { design, load, load_factor, rate, report })
        },
        Some(workload.metrics()),
    );
    let cells = cells.into_iter().map(|c| c.expect("one cell per grid slot")).collect();
    let caches = ServeCaches::collect(&devices);
    ServeStudy { seed, requests, rates: rates.to_vec(), cells, caches }
}

/// The chaos-soak cell the CI smoke runs: the Pareto design under heavy
/// load at a 20% fault rate, with the invariants checked on every run.
/// Returned as a one-cell study so the JSON carries the cache and
/// unique-simulation statistics; phase-1 cost misses are simulated on
/// the worker pool (the report is byte-identical at any `--jobs`).
///
/// # Panics
///
/// Panics when the no-silent-drop invariants are violated — that is the
/// point of the soak.
#[must_use]
pub fn soak(workload: &Workload, seed: u64, requests: usize) -> ServeStudy {
    let devices = build_devices(workload);
    let (design, device) = &devices[1]; // Pareto
    let (load, load_factor) = LOADS[1]; // heavy
    let rate = 0.2;
    let mean = device.mean_baseline_cycles();
    let specs = tenants(mean, device.queries().len(), load_factor);
    let report = run_service_on(
        device,
        &specs,
        &policy(mean, rate),
        mix_seed(seed, &[1, 1, 0x50ac]),
        requests,
        None,
        Some(workload.metrics()),
        &PoolParallelism,
    );
    report.check_invariants().unwrap_or_else(|e| panic!("soak invariant violated: {e}"));
    let cell = ServeCell { design, load, load_factor, rate, report };
    let caches = ServeCaches::collect(&devices);
    ServeStudy { seed, requests, rates: vec![rate], cells: vec![cell], caches }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_scaling_tracks_load_and_weights() {
        let specs = tenants(1000, 6, 2.0);
        assert_eq!(specs.len(), 3);
        // weight 2 over total 4 at load 2.0 → period 4000; weight 1 → 8000.
        assert_eq!(specs[0].period_cycles, 4000);
        assert_eq!(specs[1].period_cycles, 8000);
        assert_eq!(specs[0].deadline_cycles, 4000);
        assert_eq!(specs[2].deadline_cycles, 30_000);
        // Round-robin interleave covers all six queries.
        let mut all: Vec<usize> = specs.iter().flat_map(|s| s.queries.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
        // A tiny workload still gives every tenant something to run.
        let tiny = tenants(1000, 2, 1.0);
        assert!(tiny.iter().all(|s| !s.queries.is_empty()));
    }

    #[test]
    fn study_is_job_count_independent_and_control_cells_are_clean() {
        let run = |jobs: usize| {
            pool::set_jobs(Some(jobs));
            let w = Workload::prepare_subset(0.002, &["q6", "q1"]);
            let s = study(&w, 42, 60, &[0.0, 0.2]);
            pool::set_jobs(None);
            s
        };
        let serial = run(1);
        let fanned = run(4);
        assert_eq!(serial.to_json(), fanned.to_json(), "serve JSON must not depend on --jobs");
        assert_eq!(serial.cells.len(), 3 * LOADS.len() * 2);

        for c in &serial.cells {
            c.report.check_invariants().unwrap();
            assert_eq!(c.report.offered, 60);
            if c.rate == 0.0 {
                // Fault-free cells never retry or degrade; the paper
                // designs complete everything they admit in time or
                // miss deadlines purely from queueing.
                assert_eq!(c.report.retries, 0, "{}/{}", c.design, c.load);
                assert_eq!(c.report.degraded, 0, "{}/{}", c.design, c.load);
                assert_eq!(c.report.breaker_opens, 0, "{}/{}", c.design, c.load);
            }
        }
        // Overload must surface somewhere the operator can see it.
        let pressure = |load: &str| -> u64 {
            serial
                .cells
                .iter()
                .filter(|c| c.load == load && c.rate == 0.0)
                .map(|c| c.report.shed + c.report.deadline_missed)
                .sum()
        };
        assert!(
            pressure("heavy") > pressure("light"),
            "heavy load must shed or miss more than light load"
        );

        let rendered = serial.render();
        assert!(rendered.contains("Pareto"));
        assert!(rendered.contains("heavy"));
    }

    #[test]
    fn soak_cell_upholds_invariants_and_reports_pareto() {
        let w = Workload::prepare_subset(0.002, &["q6"]);
        let study = soak(&w, 7, 150);
        let cell = &study.cells[0];
        assert_eq!(cell.design, "Pareto");
        assert_eq!(cell.report.offered, 150);
        cell.report.check_invariants().unwrap();
        // The soak must deduplicate aggressively: far fewer unique
        // simulations than resolved attempts, and every probe accounted.
        assert!(cell.report.cost_attempts >= cell.report.offered);
        assert!(cell.report.cost_unique_classes > 0);
        assert!(study.caches.cost_misses <= cell.report.cost_unique_classes);
        assert!(study.to_json().contains("\"unique_sims\""));
    }
}
