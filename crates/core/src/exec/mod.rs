//! Execution: functional semantics, timing model, and the simulator
//! facade combining them.

pub mod blame;
mod data;
pub mod functional;
pub mod plan;
pub mod report;
pub mod timing;

pub use blame::BlameRecorder;
pub use data::{Catalog, Data, MemoryCatalog};
pub use functional::{execute, execute_lean, FunctionalRun, GraphProfile, NodeProfile};
pub use plan::{PlanCache, SimScratch, StagePlan};
pub use timing::{
    bytes_per_cycle_to_gbps, endpoint_name, gbps_to_bytes_per_cycle, jump_enabled,
    set_jump_enabled, simulate_plan, BwStats, ConnMatrix, Observe, TimingResult, ENDPOINTS,
    MEMORY_ENDPOINT,
};

use std::sync::Arc;

use q100_columnar::Table;

use crate::config::SimConfig;
use crate::error::Result;
use crate::isa::graph::QueryGraph;
use crate::power;
use crate::sched::{self, Schedule};
use crate::tiles::TileKind;

/// The complete outcome of simulating one query on one Q100
/// configuration: functional results, schedule, timing, and energy.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// End-to-end cycles at 315 MHz.
    pub cycles: u64,
    /// The schedule that was executed (shared with the compiled
    /// [`StagePlan`] it ran from).
    pub schedule: Arc<Schedule>,
    /// Detailed timing (bandwidth traces, busy cycles, spills).
    pub timing: TimingResult,
    /// The query's result streams (sink outputs).
    pub results: Vec<Arc<Data>>,
    /// The configuration simulated.
    pub config: SimConfig,
}

impl SimOutcome {
    /// Runtime in milliseconds.
    #[must_use]
    pub fn runtime_ms(&self) -> f64 {
        self.timing.runtime_ms()
    }

    /// Energy in millijoules (tiles + NoC + stream buffers).
    #[must_use]
    pub fn energy_mj(&self) -> f64 {
        power::energy_mj(&self.timing.busy_cycles, self.cycles, &self.config)
    }

    /// Average power in watts over the query (energy / runtime).
    #[must_use]
    pub fn avg_power_w(&self) -> f64 {
        let ms = self.runtime_ms();
        if ms <= 0.0 {
            0.0
        } else {
            self.energy_mj() / ms
        }
    }

    /// Slowdown relative to a baseline cycle count (e.g. the fault-free
    /// run of the same query). Returns 1.0 when the baseline is zero so
    /// degenerate queries never divide by zero.
    #[must_use]
    pub fn slowdown_vs(&self, baseline_cycles: u64) -> f64 {
        if baseline_cycles == 0 {
            1.0
        } else {
            self.cycles as f64 / baseline_cycles as f64
        }
    }

    /// Renders a human-readable execution report (timeline, tile
    /// activity, memory traffic, hottest links).
    #[must_use]
    pub fn render_report(&self, graph: &QueryGraph) -> String {
        report::render_report(self, graph)
    }

    /// Spilled bytes relative to the query's input+output volume
    /// (Figure 21's metric).
    #[must_use]
    pub fn spill_ratio(&self) -> f64 {
        let io = self.timing.input_bytes + self.timing.output_bytes;
        if io == 0 {
            0.0
        } else {
            self.timing.spill_bytes as f64 / io as f64
        }
    }

    /// The single-table result of a single-sink query.
    ///
    /// # Errors
    ///
    /// Returns an error when the query has multiple sinks (see
    /// [`FunctionalRun::result_table`]).
    pub fn result_table(&self, _graph: &QueryGraph) -> Result<Table> {
        // Reconstruct via the stored sink streams.
        if self.results.len() == 1 {
            return match self.results[0].as_ref() {
                Data::Tab(t) => Ok(t.clone()),
                Data::Col(c) => Ok(Table::new(vec![c.clone()])?),
            };
        }
        Err(crate::error::CoreError::BadOperands {
            node: 0,
            reason: format!("query has {} result streams, expected 1", self.results.len()),
        })
    }
}

/// The Q100 simulator: functional execution, scheduling, and timing in
/// one call.
///
/// # Example
///
/// ```
/// use q100_columnar::{Column, Table, Value};
/// use q100_core::{CmpOp, MemoryCatalog, QueryGraph, SimConfig, Simulator, TileMix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sales = Table::new(vec![Column::from_ints("qty", vec![5, 12, 7, 30])])?;
/// let catalog = MemoryCatalog::new(vec![("sales".to_string(), sales)]);
///
/// let mut b = QueryGraph::builder("demo");
/// let qty = b.col_select_base("sales", "qty");
/// let big = b.bool_gen_const(qty, CmpOp::Gt, Value::Int(10));
/// let _out = b.col_filter(qty, big);
/// let graph = b.finish()?;
///
/// let config = SimConfig::pareto();
/// let outcome = Simulator::new(&config).run(&graph, &catalog)?;
/// assert!(outcome.cycles > 0);
/// assert!(outcome.energy_mj() > 0.0);
/// # Ok(())
/// # }
/// ```
///
/// The simulator borrows its configuration, so sweeping thousands of
/// `(query, config)` points never clones a `SimConfig` on the hot path.
#[derive(Debug, Clone, Copy)]
pub struct Simulator<'a> {
    config: &'a SimConfig,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for the given configuration.
    #[must_use]
    pub fn new(config: &'a SimConfig) -> Self {
        Simulator { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        self.config
    }

    /// Functionally executes, schedules, and times `graph` against
    /// `catalog`.
    ///
    /// # Errors
    ///
    /// Propagates graph validation, execution, scheduling, and
    /// configuration errors.
    pub fn run(&self, graph: &QueryGraph, catalog: &dyn Catalog) -> Result<SimOutcome> {
        // Lean execution: intermediates are dropped as consumed, so the
        // peak footprint tracks the largest working set, not the whole
        // dataflow history.
        let functional = functional::execute_lean(graph, catalog)?;
        self.run_profiled(graph, &functional)
    }

    /// Schedules and times a query whose functional run (and volume
    /// profile) already exists — lets experiments sweep many
    /// configurations while executing the data exactly once.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and configuration errors.
    pub fn run_profiled(
        &self,
        graph: &QueryGraph,
        functional: &FunctionalRun,
    ) -> Result<SimOutcome> {
        let plan = self.plan(graph, functional)?;
        self.run_planned(&plan, functional, graph, &mut SimScratch::new())
    }

    /// Schedules `graph` on this configuration's mix with its scheduler,
    /// validates the schedule, and compiles it into a [`StagePlan`] —
    /// the plan every other `run*` method times.
    ///
    /// # Errors
    ///
    /// Propagates configuration, scheduling, and compilation errors.
    pub fn plan(&self, graph: &QueryGraph, functional: &FunctionalRun) -> Result<StagePlan> {
        self.config.validate()?;
        let schedule =
            sched::schedule(self.config.scheduler, graph, &self.config.mix, &functional.profile)?;
        schedule.validate(graph, &self.config.mix)?;
        StagePlan::compile(graph, Arc::new(schedule), &functional.profile)
    }

    /// Times a query from a pre-compiled [`StagePlan`], reusing
    /// `scratch` for all mutable simulation state — the sweep hot path.
    /// The plan's schedule was validated when it was compiled, so no
    /// per-run validation is repeated here.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn run_planned(
        &self,
        plan: &StagePlan,
        functional: &FunctionalRun,
        graph: &QueryGraph,
        scratch: &mut SimScratch,
    ) -> Result<SimOutcome> {
        self.run_observed(plan, functional, graph, scratch, Observe::default())
    }

    /// [`run_planned`](Self::run_planned) with a trace sink and/or a
    /// stall-blame recorder attached (see [`Observe`]). Observers never
    /// perturb the cycle counts; a blamed caller builds its ledger with
    /// [`BlameRecorder::report`] from the returned timing.
    ///
    /// # Errors
    ///
    /// As [`run_planned`](Self::run_planned).
    pub fn run_observed(
        &self,
        plan: &StagePlan,
        functional: &FunctionalRun,
        graph: &QueryGraph,
        scratch: &mut SimScratch,
        obs: Observe<'_>,
    ) -> Result<SimOutcome> {
        let timing = timing::simulate_plan(plan, self.config, scratch, obs)?;
        Ok(self.outcome(plan, functional, graph, timing))
    }

    /// Assembles the [`SimOutcome`] of `plan` under this configuration
    /// from its `timing` — a fresh kernel result, or a memoized one of
    /// the same plan and timing-relevant configuration. Energy and
    /// power read this configuration's mix.
    #[must_use]
    pub fn outcome(
        &self,
        plan: &StagePlan,
        functional: &FunctionalRun,
        graph: &QueryGraph,
        timing: TimingResult,
    ) -> SimOutcome {
        SimOutcome {
            cycles: timing.cycles,
            results: functional.results(graph),
            schedule: Arc::clone(plan.schedule()),
            timing,
            config: self.config.clone(),
        }
    }
}

/// Sum of busy cycles over all tile kinds (a coarse activity metric used
/// by tests).
#[must_use]
pub fn total_busy_cycles(busy: &[f64; TileKind::COUNT]) -> f64 {
    busy.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TileMix;
    use crate::isa::ops::CmpOp;
    use q100_columnar::{Column, Value};

    fn fixture() -> (QueryGraph, MemoryCatalog) {
        let t = Table::new(vec![Column::from_ints("x", (0..5000).collect::<Vec<_>>())]).unwrap();
        let cat = MemoryCatalog::new(vec![("t".into(), t)]);
        let mut b = QueryGraph::builder("pipe");
        let x = b.col_select_base("t", "x");
        let c = b.bool_gen_const(x, CmpOp::Lt, Value::Int(100));
        let _f = b.col_filter(x, c);
        (b.finish().unwrap(), cat)
    }

    #[test]
    fn simulator_end_to_end() {
        let (g, cat) = fixture();
        let out = Simulator::new(&SimConfig::pareto()).run(&g, &cat).unwrap();
        assert!(out.cycles > 0);
        assert!(out.energy_mj() > 0.0);
        assert!(out.avg_power_w() > 0.0);
        assert_eq!(out.results.len(), 1);
        let t = out.result_table(&g).unwrap();
        assert_eq!(t.row_count(), 100);
    }

    #[test]
    fn faster_designs_never_slower() {
        let (g, cat) = fixture();
        let lp = Simulator::new(&SimConfig::low_power()).run(&g, &cat).unwrap();
        let hp = Simulator::new(&SimConfig::high_perf()).run(&g, &cat).unwrap();
        assert!(hp.cycles <= lp.cycles);
    }

    #[test]
    fn run_profiled_reuses_functional_run() {
        let (g, cat) = fixture();
        let functional = functional::execute(&g, &cat).unwrap();
        let a = Simulator::new(&SimConfig::new(TileMix::uniform(4)))
            .run_profiled(&g, &functional)
            .unwrap();
        let b = Simulator::new(&SimConfig::new(TileMix::uniform(4))).run(&g, &cat).unwrap();
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn traced_run_matches_untraced_and_is_deterministic() {
        use q100_trace::{RingRecorder, TraceEvent};

        let (g, cat) = fixture();
        // A tight mix forces multiple stages so every event variant can
        // appear (stage boundaries, spill volumes, link peaks).
        let config = SimConfig::new(TileMix::uniform(1));
        let untraced = Simulator::new(&config).run(&g, &cat).unwrap();

        let traced_run = |rec: &mut RingRecorder| {
            let sim = Simulator::new(&config);
            let functional = functional::execute_lean(&g, &cat).unwrap();
            let plan = sim.plan(&g, &functional).unwrap();
            let obs = Observe { sink: Some(rec), blame: None };
            sim.run_observed(&plan, &functional, &g, &mut SimScratch::new(), obs).unwrap()
        };
        let mut rec = RingRecorder::new();
        let traced = traced_run(&mut rec);
        assert_eq!(traced.cycles, untraced.cycles, "tracing must not perturb timing");
        assert_eq!(rec.dropped(), 0);

        let events = rec.events();
        let begins = events.iter().filter(|e| matches!(e, TraceEvent::TinstBegin { .. })).count();
        let ends = events.iter().filter(|e| matches!(e, TraceEvent::TinstEnd { .. })).count();
        assert_eq!(begins, traced.schedule.stages());
        assert_eq!(ends, traced.schedule.stages());
        assert!(events.iter().any(|e| matches!(e, TraceEvent::TileBusy { .. })));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::StageMem { .. })));

        // Same query, same config: byte-identical event stream.
        let mut rec2 = RingRecorder::new();
        let _ = traced_run(&mut rec2);
        assert_eq!(events, rec2.events());
    }

    #[test]
    fn attributed_run_matches_plain_and_balances() {
        let (g, cat) = fixture();
        // Tight mix: multiple stages, so TileWait/Drained spans appear.
        let config = SimConfig::new(TileMix::uniform(1));
        let plain = Simulator::new(&config).run(&g, &cat).unwrap();
        let attributed = || {
            let sim = Simulator::new(&config);
            let functional = functional::execute_lean(&g, &cat).unwrap();
            let plan = sim.plan(&g, &functional).unwrap();
            let mut rec = BlameRecorder::new();
            let obs = Observe { sink: None, blame: Some(&mut rec) };
            let out =
                sim.run_observed(&plan, &functional, &g, &mut SimScratch::new(), obs).unwrap();
            let report = rec.report(&out.timing, &config.mix);
            (out, report)
        };
        let (out, report) = attributed();
        assert_eq!(out.cycles, plain.cycles, "blame recording must not perturb timing");
        assert_eq!(report.cycles, out.cycles);
        assert!(!report.nodes.is_empty());
        report.check_invariant().unwrap();
        // Attribution is deterministic.
        let (_, again) = attributed();
        assert_eq!(report.nodes, again.nodes);
    }

    #[test]
    fn plan_cache_single_flight_schedules_each_key_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Barrier;

        use crate::config::SchedulerKind;
        use crate::sched::CacheStats;

        let (g, cat) = fixture();
        let functional = functional::execute(&g, &cat).unwrap();
        let plans = PlanCache::new();
        let mix = TileMix::uniform(1);
        let kind = SchedulerKind::DataAware;
        // The body `get_or_compile` runs on a miss, with a run counter.
        let runs = AtomicU32::new(0);
        let n = 8;
        let start = Barrier::new(n);
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    start.wait();
                    plans
                        .get_or_insert_with((0, kind, g.clamp_mix(&mix)), || {
                            runs.fetch_add(1, Ordering::Relaxed);
                            let schedule = sched::schedule(kind, &g, &mix, &functional.profile)?;
                            StagePlan::compile(&g, Arc::new(schedule), &functional.profile)
                                .map(Arc::new)
                        })
                        .unwrap();
                });
            }
        });
        // However the threads interleaved, late arrivals for an
        // in-flight key waited for its compile instead of scheduling it
        // again.
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert_eq!(plans.stats(), CacheStats { hits: n as u64 - 1, misses: 1 });
        // `get_or_compile` keys the same way, so it finds that plan.
        plans.get_or_compile(0, kind, &g, &mix, &functional.profile).unwrap();
        assert_eq!(plans.stats(), CacheStats { hits: n as u64, misses: 1 });
    }

    #[test]
    fn spill_ratio_zero_for_single_stage() {
        let (g, cat) = fixture();
        let out = Simulator::new(&SimConfig::new(TileMix::uniform(8))).run(&g, &cat).unwrap();
        assert_eq!(out.schedule.stages(), 1);
        assert_eq!(out.spill_ratio(), 0.0);
    }
}
