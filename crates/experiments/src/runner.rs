//! Shared machinery: execute every query functionally once, then sweep
//! Q100 configurations over the cached profiles — in parallel, with
//! schedules, compiled plans and whole timing results memoized across
//! configurations.

use std::cell::RefCell;
use std::sync::Arc;

use q100_core::trace::{Registry, RingRecorder, TraceStream};
use q100_core::{
    simulate_plan, BlameRecorder, BoundedCache, CacheStats, FunctionalRun, Observe, PlanCache,
    QueryGraph, Schedule, SimConfig, SimOutcome, SimScratch, Simulator, StagePlan, TileKind,
    TimingResult,
};
use q100_tpch::queries::{self, TpchQuery};
use q100_tpch::TpchData;

use crate::pool;

thread_local! {
    /// One simulation scratch per worker thread: every plan-driven run
    /// on this thread reuses the same grown-once vectors, so sweep hot
    /// loops never allocate (see [`SimScratch`]).
    static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::new());
}

/// Default scale factor for the evaluation experiments. Small enough
/// that a full 150-configuration sweep finishes in minutes, large
/// enough that every query has non-trivial volume.
pub const DEFAULT_SCALE: f64 = 0.02;

/// One query prepared for simulation: its graph (built against the
/// database) and its functional run (results + volume profile).
pub struct PreparedQuery {
    /// The query's registry entry.
    pub query: TpchQuery,
    /// The Q100 plan.
    pub graph: QueryGraph,
    /// Functional results and per-edge volumes.
    pub functional: FunctionalRun,
    /// Position in the workload — the plan-cache tag (the graph and
    /// profile are fixed per prepared query, so this index pins the
    /// cache key).
    pub index: usize,
}

/// Quantum-jump statistics accumulated by a workload's simulations:
/// how much of the fluid timing work the analytic event-horizon solver
/// skipped. Sums of per-simulation counters, so the totals are
/// identical at any `--jobs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JumpStats {
    /// Fused jumps taken.
    pub jumps: u64,
    /// Quanta skipped by fused folds.
    pub jumped_quanta: u64,
    /// Quanta executed step-by-step.
    pub stepped_quanta: u64,
    /// Unretired node-quanta run inside replay folds.
    pub replayed_node_quanta: u64,
    /// Node-quanta of retired (finished) nodes whose passes were
    /// skipped, stepped or replayed.
    pub retired_node_quanta: u64,
}

impl JumpStats {
    /// Fraction of all quanta that were jumped rather than stepped
    /// (zero when nothing ran).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let total = self.jumped_quanta + self.stepped_quanta;
        if total == 0 {
            0.0
        } else {
            self.jumped_quanta as f64 / total as f64
        }
    }

    /// The counters accumulated since `earlier` — per-figure deltas for
    /// stdout reporting.
    #[must_use]
    pub fn since(&self, earlier: &JumpStats) -> JumpStats {
        JumpStats {
            jumps: self.jumps - earlier.jumps,
            jumped_quanta: self.jumped_quanta - earlier.jumped_quanta,
            stepped_quanta: self.stepped_quanta - earlier.stepped_quanta,
            replayed_node_quanta: self.replayed_node_quanta - earlier.replayed_node_quanta,
            retired_node_quanta: self.retired_node_quanta - earlier.retired_node_quanta,
        }
    }
}

/// The identity of one whole timing run: the query tag, the schedule's
/// contents, and everything of the [`SimConfig`] the timing kernel
/// reads besides the mix — bandwidth caps, stream buffers, p2p links
/// and derate, with `f64`s as bit patterns (as
/// [`q100_core::CostKey`] stores them) so the key is `Eq + Hash`. The
/// plan is a function of the tag and the schedule, so equal keys time
/// bit-identically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TimingKey {
    tag: u64,
    schedule: Arc<Schedule>,
    caps: [Option<u64>; 3],
    buffers: (u32, u32),
    p2p_links: Vec<(TileKind, TileKind)>,
    /// Tile factors, NoC/read/write factors, and per-stage stalls.
    derate: Option<([u64; TileKind::COUNT], [u64; 3], Vec<u64>)>,
}

impl TimingKey {
    fn new(tag: u64, schedule: &Arc<Schedule>, config: &SimConfig) -> Self {
        let bw = &config.bandwidth;
        TimingKey {
            tag,
            schedule: Arc::clone(schedule),
            caps: [bw.noc_gbps, bw.mem_read_gbps, bw.mem_write_gbps].map(|c| c.map(f64::to_bits)),
            buffers: (config.read_buffers, config.write_buffers),
            p2p_links: config.p2p_links.clone(),
            derate: config.derate.as_ref().map(|d| {
                (
                    d.tile_factor.map(f64::to_bits),
                    [d.noc_factor, d.mem_read_factor, d.mem_write_factor].map(f64::to_bits),
                    d.tinst_stall_cycles.clone(),
                )
            }),
        }
    }
}

/// A workload: a generated database plus every query prepared against
/// it. Functional execution happens exactly once; configuration sweeps
/// reuse the cached profiles and fan out across cores. Two memos make
/// each distinct thing simulate once: compiled plans (with their
/// schedules) per (query, scheduler, demand-clamped tile mix), and
/// whole timing results per (query, schedule, timing-relevant config).
pub struct Workload {
    /// The database.
    pub db: TpchData,
    /// The prepared queries, in paper order.
    pub queries: Vec<PreparedQuery>,
    plan_cache: PlanCache,
    timing_memo: BoundedCache<TimingKey, Arc<TimingResult>>,
    metrics: Arc<Registry>,
}

impl Workload {
    /// Prepares all 19 queries at the given scale factor.
    ///
    /// # Panics
    ///
    /// Panics if any query fails to plan or execute — the test suite
    /// validates all of them, so a failure indicates a build problem.
    #[must_use]
    pub fn prepare(scale: f64) -> Self {
        Self::prepare_subset(scale, &queries::QUERY_NAMES)
    }

    /// Prepares a subset of queries by name.
    ///
    /// # Panics
    ///
    /// Panics on unknown names or execution failure.
    #[must_use]
    pub fn prepare_subset(scale: f64, names: &[&str]) -> Self {
        let db = TpchData::generate(scale);
        let queries = names
            .iter()
            .enumerate()
            .map(|(index, name)| {
                let query =
                    queries::by_name(name).unwrap_or_else(|| panic!("unknown query `{name}`"));
                let graph = (query.q100)(&db)
                    .unwrap_or_else(|e| panic!("{name}: plan construction failed: {e}"));
                let functional = q100_core::execute_lean(&graph, &db)
                    .unwrap_or_else(|e| panic!("{name}: functional execution failed: {e}"));
                PreparedQuery { query, graph, functional, index }
            })
            .collect();
        let metrics = Arc::new(Registry::new());
        let plan_cache = PlanCache::with_metrics(Arc::clone(&metrics), "plan.cache.lookups");
        let timing_memo = BoundedCache::with_metrics(Arc::clone(&metrics), "timing.memo.lookups");
        Workload { db, queries, plan_cache, timing_memo, metrics }
    }

    /// The workload's metrics registry: every sweep, cache lookup and
    /// simulation records into it, and `--metrics` dumps its
    /// deterministic snapshot.
    #[must_use]
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Resolves the compiled [`StagePlan`] for `(prepared, config)`,
    /// scheduling and compiling on the first sight of this (query,
    /// scheduler, clamped mix) key.
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot run the query (all evaluation
    /// configurations can).
    #[must_use]
    fn plan(&self, prepared: &PreparedQuery, config: &SimConfig) -> Arc<StagePlan> {
        self.plan_cache
            .get_or_compile(
                prepared.index as u64,
                config.scheduler,
                &prepared.graph,
                &config.mix,
                &prepared.functional.profile,
            )
            .unwrap_or_else(|e| panic!("{}: scheduling failed: {e}", prepared.query.name))
    }

    /// Simulates one prepared query under `config`, reusing a memoized
    /// compiled plan (and its schedule) when this (query, scheduler,
    /// clamped mix) was seen before, and a memoized timing result when
    /// this (query, schedule, timing-relevant config) was — otherwise
    /// the fluid timing layer runs against this worker's reused
    /// scratch.
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot run the query (all evaluation
    /// configurations can).
    #[must_use]
    pub fn simulate(&self, prepared: &PreparedQuery, config: &SimConfig) -> SimOutcome {
        self.simulate_observed(prepared, config, Observe::default())
    }

    /// Runs `prepared` under `config` with tracing enabled, returning
    /// the outcome and the recorded event stream (named after the
    /// query). Uses the same memoized schedule as [`simulate`](Self::simulate), so the
    /// traced timing matches the untraced sweeps.
    ///
    /// # Panics
    ///
    /// As [`simulate`](Self::simulate).
    #[must_use]
    pub fn simulate_traced(
        &self,
        prepared: &PreparedQuery,
        config: &SimConfig,
    ) -> (SimOutcome, TraceStream) {
        let mut recorder = RingRecorder::new();
        let obs = Observe { sink: Some(&mut recorder), blame: None };
        let outcome = self.simulate_observed(prepared, config, obs);
        if recorder.dropped() > 0 {
            eprintln!(
                "warning: {} trace overflowed, {} oldest events dropped",
                prepared.query.name,
                recorder.dropped()
            );
        }
        (outcome, TraceStream { name: prepared.query.name.to_string(), events: recorder.events() })
    }

    /// Simulates one prepared query under `config` with stall-blame
    /// attribution, returning the outcome and the per-node cycle
    /// ledger. Uses the same memoized plan as [`simulate`](Self::simulate), so the
    /// attributed cycle count is bit-identical to the sweeps (the
    /// quantum-jump fast path stays armed and bulk-folds blame).
    ///
    /// # Panics
    ///
    /// As [`simulate`](Self::simulate).
    #[must_use]
    pub fn simulate_blamed(
        &self,
        prepared: &PreparedQuery,
        config: &SimConfig,
    ) -> (SimOutcome, q100_core::trace::BlameReport) {
        let mut recorder = BlameRecorder::new();
        let obs = Observe { sink: None, blame: Some(&mut recorder) };
        let outcome = self.simulate_observed(prepared, config, obs);
        let report = recorder.report(&outcome.timing, &config.mix);
        (outcome, report)
    }

    /// The one body behind [`simulate`](Self::simulate), [`simulate_traced`](Self::simulate_traced) and
    /// [`simulate_blamed`]: memoized plan, timing from the memo or from
    /// this worker's scratch, and the `sim.runs` / `sim.cycles` metrics.
    /// Runs with a trace sink or a blame recorder need their ledger, so
    /// they always reach the kernel and never touch the timing memo.
    fn simulate_observed(
        &self,
        prepared: &PreparedQuery,
        config: &SimConfig,
        obs: Observe<'_>,
    ) -> SimOutcome {
        let plan = self.plan(prepared, config);
        let timing = if obs.sink.is_none() && obs.blame.is_none() {
            self.memoized_timing(prepared, &plan, config)
        } else {
            self.run_kernel(&plan, config, obs)
        }
        .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", prepared.query.name));
        let outcome =
            Simulator::new(config).outcome(&plan, &prepared.functional, &prepared.graph, timing);
        self.metrics.inc("sim.runs", 1);
        self.metrics.observe("sim.cycles", outcome.cycles as f64);
        outcome
    }

    /// The timing of `plan` under `config` from the timing memo, run
    /// through the kernel on the first sight of its key. Debug builds
    /// re-simulate every hit and assert the whole result is unchanged.
    fn memoized_timing(
        &self,
        prepared: &PreparedQuery,
        plan: &StagePlan,
        config: &SimConfig,
    ) -> q100_core::Result<TimingResult> {
        let key = TimingKey::new(prepared.index as u64, plan.schedule(), config);
        let mut ran = false;
        let timing = self.timing_memo.get_or_insert_with(key, || {
            ran = true;
            self.run_kernel(plan, config, Observe::default()).map(Arc::new)
        })?;
        if cfg!(debug_assertions) && !ran {
            let fresh = simulate_plan(plan, config, &mut SimScratch::new(), Observe::default());
            debug_assert_eq!(
                fresh.as_ref().ok(),
                Some(timing.as_ref()),
                "{}: a timing memo hit differs from a fresh simulation",
                prepared.query.name
            );
        }
        Ok(TimingResult::clone(&timing))
    }

    /// One timing-kernel run on this worker's scratch, folding its
    /// quantum-jump counters into the registry.
    fn run_kernel(
        &self,
        plan: &StagePlan,
        config: &SimConfig,
        obs: Observe<'_>,
    ) -> q100_core::Result<TimingResult> {
        SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            let timing = simulate_plan(plan, config, &mut s, obs);
            self.record_jump_stats(&s);
            timing
        })
    }

    /// Traces every query of the workload under `config`, serially (one
    /// stream per query in workload order, byte-stable across runs).
    #[must_use]
    pub fn trace_all(&self, config: &SimConfig) -> Vec<TraceStream> {
        self.queries.iter().map(|p| self.simulate_traced(p, config).1).collect()
    }

    /// Simulates one prepared query under `base` with `scenario`'s
    /// faults injected — killed tiles reschedule on the degraded mix
    /// (through the shared plan cache, which keys on the demand-clamped
    /// mix), deratings slow the fluid timing layer. The
    /// timing memo is not consulted.
    ///
    /// # Errors
    ///
    /// Returns [`q100_core::CoreError::Unschedulable`] when the faults
    /// removed a tile kind the query needs; resilience sweeps record
    /// that as a data point rather than aborting.
    pub fn simulate_resilient(
        &self,
        prepared: &PreparedQuery,
        base: &SimConfig,
        scenario: &q100_core::FaultScenario,
    ) -> q100_core::Result<q100_core::ResilientOutcome> {
        let out = q100_core::run_resilient(
            &prepared.graph,
            &prepared.functional,
            base,
            scenario,
            &self.plan_cache,
            prepared.index as u64,
            None,
            Some(&self.metrics),
        )?;
        self.metrics.inc("sim.runs", 1);
        self.metrics.observe("sim.cycles", out.outcome.cycles as f64);
        Ok(out)
    }

    /// Simulates one prepared query bypassing every cache (schedules,
    /// compiles and times from scratch). Used to validate cache
    /// transparency.
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot run the query.
    #[must_use]
    pub fn simulate_uncached(&self, prepared: &PreparedQuery, config: &SimConfig) -> SimOutcome {
        Simulator::new(config)
            .run_profiled(&prepared.graph, &prepared.functional)
            .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", prepared.query.name))
    }

    /// Simulates every query under `config` across the worker pool,
    /// returning outcomes in workload order (identical at any job
    /// count).
    #[must_use]
    pub fn simulate_all(&self, config: &SimConfig) -> Vec<SimOutcome> {
        pool::parallel_map_metered(&self.queries, |p| self.simulate(p, config), Some(&self.metrics))
    }

    /// Evaluates many configurations in one flat parallel sweep: every
    /// `(config, query)` point is an independent job, so core
    /// utilization stays high even when one configuration has a slow
    /// straggler query. Returns per-config outcome vectors in input
    /// order, each in workload order.
    #[must_use]
    pub fn sweep(&self, configs: &[SimConfig]) -> Vec<Vec<SimOutcome>> {
        let points: Vec<(usize, usize)> =
            (0..configs.len()).flat_map(|c| (0..self.queries.len()).map(move |q| (c, q))).collect();
        let mut flat = pool::parallel_map_metered(
            &points,
            |&(c, q)| Some(self.simulate(&self.queries[q], &configs[c])),
            Some(&self.metrics),
        );
        // Regroup: `flat` is ordered (c0 q0..qn, c1 q0..qn, ...).
        let per = self.queries.len();
        flat.chunks_mut(per.max(1))
            .take(configs.len())
            .map(|chunk| chunk.iter_mut().map(|o| o.take().expect("one take per slot")).collect())
            .collect()
    }

    /// Total suite runtime for each configuration, in milliseconds.
    /// Sums per-query runtimes in workload order, so totals are
    /// bit-identical to the serial path at any job count.
    #[must_use]
    pub fn sweep_total_runtime_ms(&self, configs: &[SimConfig]) -> Vec<f64> {
        self.sweep(configs)
            .iter()
            .map(|outcomes| outcomes.iter().map(SimOutcome::runtime_ms).sum())
            .collect()
    }

    /// Total runtime of the whole suite under `config`, in
    /// milliseconds.
    #[must_use]
    pub fn total_runtime_ms(&self, config: &SimConfig) -> f64 {
        self.simulate_all(config).iter().map(SimOutcome::runtime_ms).sum()
    }

    /// Folds one finished simulation's quantum-jump counters into the
    /// metrics registry. Counter addition commutes, and each timing-memo
    /// key runs the kernel once however many workers race for it, so
    /// the accumulated totals are identical at any `--jobs`.
    fn record_jump_stats(&self, s: &SimScratch) {
        self.metrics.inc("sim.jumps", s.jumps);
        self.metrics.inc("sim.jumped_quanta", s.jumped_quanta);
        self.metrics.inc("sim.stepped_quanta", s.stepped_quanta);
        self.metrics.inc("sim.replayed_node_quanta", s.replayed_node_quanta);
        self.metrics.inc("sim.retired_node_quanta", s.retired_node_quanta);
    }

    /// Quantum-jump totals accumulated by every simulation this
    /// workload has run (including resilient runs, which report through
    /// the shared registry). Timing-memo hits run no simulation and add
    /// nothing.
    #[must_use]
    pub fn jump_stats(&self) -> JumpStats {
        JumpStats {
            jumps: self.metrics.counter("sim.jumps"),
            jumped_quanta: self.metrics.counter("sim.jumped_quanta"),
            stepped_quanta: self.metrics.counter("sim.stepped_quanta"),
            replayed_node_quanta: self.metrics.counter("sim.replayed_node_quanta"),
            retired_node_quanta: self.metrics.counter("sim.retired_node_quanta"),
        }
    }

    /// Plan-cache hit/miss counters accumulated by this workload — one
    /// lookup per simulation; the misses are the scheduler runs.
    #[must_use]
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// Timing-memo hit/miss counters accumulated by this workload — one
    /// lookup per untraced, unblamed [`simulate`](Self::simulate); the
    /// misses are the timing-kernel runs.
    #[must_use]
    pub fn timing_memo_stats(&self) -> CacheStats {
        self.timing_memo.stats()
    }

    /// Drops memoized plans (with their schedules) and timing results,
    /// and zeroes both caches' counters, so the next sweep starts cold.
    pub fn clear_sched_cache(&self) {
        self.plan_cache.clear();
        self.timing_memo.clear();
    }

    /// Zeroes both caches' hit/miss counters while keeping every
    /// memoized value, so each figure's stdout lines report their own
    /// sweep.
    pub fn reset_cache_stats(&self) {
        self.plan_cache.reset_stats();
        self.timing_memo.reset_stats();
    }

    /// The query names in workload order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.queries.iter().map(|p| p.query.name).collect()
    }
}

/// The three named design points of the paper's evaluation.
#[must_use]
pub fn paper_designs() -> [(&'static str, SimConfig); 3] {
    [
        ("LowPower", SimConfig::low_power()),
        ("Pareto", SimConfig::pareto()),
        ("HighPerf", SimConfig::high_perf()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_prepares_and_simulates_subset() {
        let w = Workload::prepare_subset(0.002, &["q6", "q1"]);
        assert_eq!(w.names(), vec!["q6", "q1"]);
        let outcomes = w.simulate_all(&SimConfig::pareto());
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.cycles > 0));
        assert!(w.total_runtime_ms(&SimConfig::pareto()) > 0.0);
    }

    #[test]
    fn profiles_are_reused_deterministically() {
        let w = Workload::prepare_subset(0.002, &["q6"]);
        let a = w.simulate(&w.queries[0], &SimConfig::low_power());
        let b = w.simulate(&w.queries[0], &SimConfig::low_power());
        assert_eq!(a.cycles, b.cycles);
        // The second simulation reused the first's compiled plan.
        let plan_stats = w.plan_cache_stats();
        assert_eq!((plan_stats.hits, plan_stats.misses), (1, 1));
        // ...and its whole timing result: one kernel run in all.
        let memo_stats = w.timing_memo_stats();
        assert_eq!((memo_stats.hits, memo_stats.misses), (1, 1));
    }

    #[test]
    fn observed_runs_bypass_the_timing_memo_and_clearing_starts_cold() {
        let w = Workload::prepare_subset(0.002, &["q6"]);
        let p = &w.queries[0];
        let config = SimConfig::pareto();
        let plain = w.simulate(p, &config);
        let after_plain = w.jump_stats();
        let (traced, _) = w.simulate_traced(p, &config);
        let (blamed, _) = w.simulate_blamed(p, &config);
        assert_eq!(traced.timing, plain.timing);
        assert_eq!(blamed.timing, plain.timing);
        let memo = w.timing_memo_stats();
        assert_eq!((memo.hits, memo.misses), (0, 1), "observed runs never consult the memo");
        assert!(
            w.jump_stats().stepped_quanta > after_plain.stepped_quanta,
            "observed runs reach the kernel"
        );

        let before = w.jump_stats();
        let _ = w.simulate(p, &config);
        assert_eq!(w.jump_stats(), before, "a memo hit runs no simulation");
        w.clear_sched_cache();
        assert_eq!(w.timing_memo_stats(), CacheStats::default());
        let again = w.simulate(p, &config);
        assert_eq!(again.timing, plain.timing);
        assert_eq!(w.timing_memo_stats().misses, 1, "a cleared memo starts cold");
    }

    #[test]
    fn cached_and_uncached_simulations_agree() {
        let w = Workload::prepare_subset(0.002, &["q6", "q1"]);
        for p in &w.queries {
            for (_, config) in paper_designs() {
                let cached = w.simulate(p, &config);
                let uncached = w.simulate_uncached(p, &config);
                assert_eq!(cached.cycles, uncached.cycles, "{}", p.query.name);
                assert_eq!(cached.schedule, uncached.schedule, "{}", p.query.name);
            }
        }
    }

    #[test]
    fn traced_simulation_matches_sweeps_and_metrics_are_job_independent() {
        let config = SimConfig::pareto();

        let run = |jobs: usize| {
            crate::pool::set_jobs(Some(jobs));
            let w = Workload::prepare_subset(0.002, &["q6", "q1"]);
            let outcomes = w.simulate_all(&config);
            let streams = w.trace_all(&config);
            let names: Vec<&str> =
                (0..q100_core::ENDPOINTS).map(q100_core::exec::endpoint_name).collect();
            let trace_json = q100_core::trace::chrome_trace_json(
                &streams,
                &names,
                q100_core::exec::bytes_per_cycle_to_gbps(1.0),
            );
            for (outcome, stream) in outcomes.iter().zip(&streams) {
                assert!(!stream.events.is_empty());
                assert_eq!(
                    outcome.cycles,
                    stream.events.iter().map(|e| e.cycle()).max().unwrap(),
                    "traced timeline must end exactly at the untraced cycle count"
                );
            }
            let metrics_json = w.metrics().snapshot().to_json();
            crate::pool::set_jobs(None);
            (trace_json, metrics_json)
        };

        let (trace_serial, metrics_serial) = run(1);
        let (trace_jobs, metrics_jobs) = run(4);
        assert_eq!(trace_serial, trace_jobs, "trace JSON must not depend on --jobs");
        assert_eq!(metrics_serial, metrics_jobs, "metrics JSON must not depend on --jobs");
        q100_core::trace::validate_chrome_trace_json(&trace_serial).unwrap();
        q100_core::trace::validate_metrics_json(&metrics_serial).unwrap();
    }

    #[test]
    fn sweep_groups_match_simulate_all() {
        let w = Workload::prepare_subset(0.002, &["q6", "q1"]);
        let configs = [SimConfig::low_power(), SimConfig::high_perf()];
        let grouped = w.sweep(&configs);
        assert_eq!(grouped.len(), 2);
        for (cfg, outcomes) in configs.iter().zip(&grouped) {
            let direct = w.simulate_all(cfg);
            let a: Vec<u64> = outcomes.iter().map(|o| o.cycles).collect();
            let b: Vec<u64> = direct.iter().map(|o| o.cycles).collect();
            assert_eq!(a, b);
        }
        let totals = w.sweep_total_runtime_ms(&configs);
        assert!((totals[0] - w.total_runtime_ms(&configs[0])).abs() < 1e-12);
    }
}
