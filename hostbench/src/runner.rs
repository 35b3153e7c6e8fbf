//! Runs one workload: set-up, timed passes, then untimed output checks.
//!
//! An untraced run measures the end-to-end metrics with [`JOBS`] sweep
//! workers. A traced run measures the per-layer metrics: one untraced
//! cycle with [`JOBS`] workers for pool utilisation, then single-worker
//! cycles with spans around every call into a layer, so every count
//! repeats exactly from run to run.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use q100_core::{
    FunctionalRun, QueryGraph, ScheduleCache, SchedulerKind, SimConfig, SimScratch, Simulator,
    StagePlan, TileMix,
};
use q100_experiments::{pool, serve, Workload};
use q100_serve::{
    generate_requests, mix_seed, run_service_on, Parallelism, Q100Device, ServePolicy, ServeReport,
    TenantSpec,
};
use q100_tpch::TpchData;

use crate::pins;
use crate::report::Report;
use crate::spans::Tracer;
use crate::spec::{Kind, Spec};
use crate::stats::{fastest, median, nearest_rank, ratio};
use crate::sys;

/// Sweep workers of untraced passes (the 2-vCPU machine the benchmark
/// was sized on).
pub const JOBS: usize = 2;

/// Every this many sweep ops of the first cycle is simulated again with
/// no cache, a check that does not depend on the pins.
const RESIM_EVERY: usize = 97;

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seeds the serve request and fault streams (the sweeps ignore it).
    pub seed: u64,
    /// Timed cycles repeat until this many seconds have passed; at
    /// least one cycle runs.
    pub seconds: f64,
    /// Measure per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Fewest set-ups timed; more run while set-ups have taken under a
    /// tenth of the run. `setup_s` is their median.
    pub setups: usize,
}

/// Runs `spec` and checks its outputs.
#[must_use]
pub fn run(spec: &Spec, opts: &Options) -> Report {
    let mut report = match (&spec.kind, opts.traced) {
        (Kind::Sweep { configs, slices }, false) => sweep(spec, configs, *slices, opts),
        (Kind::Sweep { configs, slices }, true) => sweep_traced(spec, configs, *slices, opts),
        (Kind::Serve { .. }, false) => serve_untraced(spec, opts),
        (Kind::Serve { .. }, true) => serve_traced(spec, opts),
    };
    report.values.insert("peak_rss_mb", sys::peak_rss_mb());
    report
}

fn prepare(spec: &Spec) -> Workload {
    Workload::prepare_subset(spec.scale, &spec.queries)
}

/// Outputs of repeated cycles: the first cycle's, and how many ops of
/// later cycles differed from it.
struct Cycles {
    first: Option<Vec<u64>>,
    attempted: u64,
    mismatched: u64,
}

impl Cycles {
    fn new() -> Self {
        Cycles { first: None, attempted: 0, mismatched: 0 }
    }

    fn add(&mut self, got: Vec<u64>, ops: u64) {
        self.attempted += ops;
        match &self.first {
            None => self.first = Some(got),
            Some(first) => {
                self.mismatched += first.iter().zip(&got).filter(|(a, b)| a != b).count() as u64;
            }
        }
    }
}

/// `(cpu seconds, wall seconds)` spent in `f`, with its result.
fn busy<R>(f: impl FnOnce() -> R) -> (R, (f64, f64)) {
    let (cpu, t) = (sys::cpu_seconds(), Instant::now());
    let r = f();
    (r, (sys::cpu_seconds() - cpu, t.elapsed().as_secs_f64()))
}

/// Nearest-rank p50 and p99 of `seconds`, in milliseconds.
fn ms_percentiles(seconds: &[f64]) -> (f64, f64) {
    let mut ns: Vec<u64> = seconds.iter().map(|s| (s * 1e9) as u64).collect();
    ns.sort_unstable();
    (nearest_rank(&ns, 50.0) as f64 / 1e6, nearest_rank(&ns, 99.0) as f64 / 1e6)
}

/// Generates the database and prepares every query with one span per
/// layer call: what `Workload::prepare_subset` does, taken apart.
fn traced_prepare(tracer: &mut Tracer, spec: &Spec) -> Vec<(QueryGraph, FunctionalRun)> {
    tracer.open("setup", false);
    let db = tracer.time("tpch.datagen", || TpchData::generate(spec.scale));
    let graphs: Vec<QueryGraph> = tracer.time("tpch.queries", || {
        spec.queries
            .iter()
            .map(|name| {
                let query = q100_tpch::queries::by_name(name).expect("workloads name real queries");
                (query.q100)(&db)
                    .unwrap_or_else(|e| panic!("{name}: plan construction failed: {e}"))
            })
            .collect()
    });
    let prepared = graphs
        .into_iter()
        .zip(&spec.queries)
        .map(|(graph, name)| {
            let functional = tracer
                .time("core.functional", || q100_core::execute_lean(&graph, &db))
                .unwrap_or_else(|e| panic!("{name}: functional execution failed: {e}"));
            (graph, functional)
        })
        .collect();
    tracer.close();
    prepared
}

/// Per-layer metrics every traced run reports: the set-up layers, pool
/// utilisation of the untraced cycle, and the trace's own checks.
fn common_layers(tracer: &Tracer, busy: (f64, f64), report: &mut Report) {
    let v = &mut report.values;
    v.insert("tpch.datagen_s", tracer.total("tpch.datagen"));
    v.insert("tpch.queries_s", tracer.total("tpch.queries"));
    v.insert("core.functional_s", tracer.total("core.functional"));
    let max = tracer.seconds("core.functional").into_iter().fold(0.0, f64::max);
    v.insert("core.functional_max_query_s", max);
    v.insert("experiments.pool_cpu_util", ratio(busy.0, busy.1 * JOBS as f64));
    let (coverage, wall) = tracer.coverage();
    v.insert("trace.coverage", coverage);
    v.insert("trace.wall_s", wall);
    report.trace_json = Some(tracer.chrome_json());
}

// ---------------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------------

/// The configs of each pass: config `i` goes to pass `i % slices`.
fn slice_configs(configs: &[(String, SimConfig)], slices: usize) -> Vec<Vec<(usize, SimConfig)>> {
    let slices = slices.clamp(1, configs.len().max(1));
    (0..slices)
        .map(|k| {
            configs
                .iter()
                .enumerate()
                .skip(k)
                .step_by(slices)
                .map(|(i, (_, c))| (i, c.clone()))
                .collect()
        })
        .collect()
}

/// One cycle of `Workload::sweep` passes, caches cleared first, as a
/// fresh `fig6` or `fig13` run starts; `between` runs after every pass,
/// untimed. Returns every op's cycles (config major) and each pass's
/// ops per second.
fn sweep_cycle(
    w: &Workload,
    slices: &[Vec<(usize, SimConfig)>],
    ops: usize,
    between: &mut dyn FnMut(),
) -> (Vec<u64>, Vec<f64>) {
    let nq = w.queries.len();
    let mut got = vec![0u64; ops];
    let mut rates = Vec::with_capacity(slices.len());
    w.clear_sched_cache();
    for slice in slices {
        let configs: Vec<SimConfig> = slice.iter().map(|(_, c)| c.clone()).collect();
        let t = Instant::now();
        let out = w.sweep(&configs);
        rates.push((configs.len() * nq) as f64 / t.elapsed().as_secs_f64());
        for ((i, _), outcomes) in slice.iter().zip(&out) {
            for (q, o) in outcomes.iter().enumerate() {
                got[i * nq + q] = o.cycles;
            }
        }
        between();
    }
    (got, rates)
}

/// Seconds one call of `f` takes; its result is dropped afterwards.
fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    let secs = t.elapsed().as_secs_f64();
    drop(r);
    secs
}

/// Timed set-ups spread over a run: the first before the timed passes,
/// the others between passes while fewer than the minimum ran or
/// set-ups took under a tenth of the run so far, so that no one slow
/// spell of the machine covers them all.
struct Setups {
    times: Vec<f64>,
    min: usize,
    start: Instant,
}

impl Setups {
    fn new(min: usize) -> Self {
        Setups { times: Vec::new(), min, start: Instant::now() }
    }

    fn push(&mut self, seconds: f64) {
        self.times.push(seconds);
    }

    fn due(&self) -> bool {
        self.times.len() < self.min
            || self.times.iter().sum::<f64>() < 0.1 * self.start.elapsed().as_secs_f64()
    }

    fn median(&self) -> f64 {
        median(&self.times)
    }
}

fn sweep(spec: &Spec, configs: &[(String, SimConfig)], slices: usize, opts: &Options) -> Report {
    pool::set_jobs(Some(JOBS));
    let mut setups = Setups::new(opts.setups);
    let t = Instant::now();
    let workload = prepare(spec);
    setups.push(t.elapsed().as_secs_f64());
    let mut between = || {
        if setups.due() {
            setups.push(timed(|| prepare(spec)));
        }
    };

    let slices = slice_configs(configs, slices);
    let ops = spec.ops_per_cycle();
    let mut cycles = Cycles::new();
    let mut rates = Vec::new();
    let start = Instant::now();
    while cycles.first.is_none() || start.elapsed().as_secs_f64() < opts.seconds {
        let (got, r) = sweep_cycle(&workload, &slices, ops, &mut between);
        cycles.add(got, ops as u64);
        rates.extend(r);
    }
    let mut report = Report { passes: rates.len(), ..Report::default() };
    report.values.insert("setup_s", setups.median());
    report.values.insert("ops_per_s", fastest(&rates));
    let queries: Vec<_> = workload.queries.iter().map(|p| (&p.graph, &p.functional)).collect();
    finish_sweep(spec, configs, &queries, cycles, &mut report);
    report
}

type PlanKey = (usize, SchedulerKind, TileMix);

#[allow(clippy::too_many_lines)]
fn sweep_traced(
    spec: &Spec,
    configs: &[(String, SimConfig)],
    slices: usize,
    opts: &Options,
) -> Report {
    let slices = slice_configs(configs, slices);
    let ops = spec.ops_per_cycle();
    let mut report = Report::default();
    let mut cycles = Cycles::new();

    pool::set_jobs(Some(JOBS));
    let workload = prepare(spec);
    let ((got, _), busy) = busy(|| sweep_cycle(&workload, &slices, ops, &mut || {}));
    cycles.add(got, ops as u64);
    let stats = workload.plan_cache_stats();
    let hit_ratio = ratio(stats.hits as f64, (stats.hits + stats.misses) as f64);
    report.values.insert("core.plan_cache_hit_ratio", hit_ratio);
    drop(workload);

    // Single-worker cycles that take `Workload::simulate` apart: the
    // schedule and the compiled plan on first sight of a (query,
    // scheduler, mix) key, as its plan cache does, then the timing run.
    pool::set_jobs(Some(1));
    let mut tracer = Tracer::new();
    let prepared = traced_prepare(&mut tracer, spec);
    let (mut quanta, mut stepped, mut jumps) = (0u64, 0u64, 0u64);
    let mut first_counts = None;
    let mut traced_cycles = 0usize;
    let start = Instant::now();
    while traced_cycles == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        let sched = ScheduleCache::new();
        let mut plans: HashMap<PlanKey, Arc<StagePlan>> = HashMap::new();
        let mut scratch = SimScratch::new();
        let mut got = vec![u64::MAX; ops];
        for slice in &slices {
            tracer.open("pass", false);
            for (i, config) in slice {
                for (q, (graph, functional)) in prepared.iter().enumerate() {
                    tracer.open("op", false);
                    let key = (q, config.scheduler, config.mix);
                    let plan = match plans.get(&key) {
                        Some(plan) => Some(Arc::clone(plan)),
                        None => tracer
                            .time("core.sched", || {
                                sched.get_or_schedule(
                                    q as u64,
                                    config.scheduler,
                                    graph,
                                    &config.mix,
                                    &functional.profile,
                                )
                            })
                            .and_then(|s| {
                                tracer.time("core.plan", || {
                                    StagePlan::compile(graph, s, &functional.profile)
                                })
                            })
                            .ok()
                            .map(|p| Arc::clone(plans.entry(key).or_insert_with(|| Arc::new(p)))),
                    };
                    if let Some(plan) = plan {
                        let sim = Simulator::new(config);
                        let outcome = tracer.time("core.timing", || {
                            sim.run_planned(&plan, functional, graph, &mut scratch)
                        });
                        if traced_cycles == 0 {
                            jumps += scratch.jumps;
                            stepped += scratch.stepped_quanta;
                            quanta += scratch.stepped_quanta + scratch.jumped_quanta;
                        }
                        got[i * prepared.len() + q] = outcome.map_or(u64::MAX, |o| o.cycles);
                    }
                    tracer.close();
                }
            }
            tracer.close();
        }
        cycles.add(got, ops as u64);
        traced_cycles += 1;
        first_counts.get_or_insert_with(|| {
            ["core.sched", "core.plan", "core.timing"].map(|name| tracer.count(name) as f64)
        });
    }
    report.passes = traced_cycles * slices.len();

    let [sched_calls, plan_calls, timing_calls] = first_counts.expect("one traced cycle ran");
    let per_cycle = |name: &str| tracer.total(name) / traced_cycles as f64;
    let (p50, p99) = ms_percentiles(&tracer.seconds("core.timing"));
    let v = &mut report.values;
    v.insert("core.sched_s", per_cycle("core.sched"));
    v.insert("core.sched_calls", sched_calls);
    v.insert("core.plan_s", per_cycle("core.plan"));
    v.insert("core.plan_calls", plan_calls);
    v.insert("core.timing_s", per_cycle("core.timing"));
    v.insert("core.timing_calls", timing_calls);
    v.insert("core.timing_ms_p50", p50);
    v.insert("core.timing_ms_p99", p99);
    v.insert("core.timing_quanta", quanta as f64);
    v.insert("core.timing_stepped_quanta", stepped as f64);
    v.insert("core.timing_jumps", jumps as f64);
    v.insert("core.timing_jump_coverage", ratio((quanta - stepped) as f64, quanta as f64));
    v.insert("core.timing_ns_per_quantum", ratio(per_cycle("core.timing") * 1e9, quanta as f64));
    common_layers(&tracer, busy, &mut report);
    let queries: Vec<_> = prepared.iter().map(|(g, f)| (g, f)).collect();
    finish_sweep(spec, configs, &queries, cycles, &mut report);
    report
}

/// The simulated statistics of a sweep's first cycle, and the checks of
/// its outputs: the pins, an uncached re-run of every
/// [`RESIM_EVERY`]th op, and later cycles against the first.
fn finish_sweep(
    spec: &Spec,
    configs: &[(String, SimConfig)],
    queries: &[(&QueryGraph, &FunctionalRun)],
    cycles: Cycles,
    report: &mut Report,
) {
    let first = cycles.first.expect("at least one cycle ran");
    let labels: Vec<String> = configs
        .iter()
        .flat_map(|(c, _)| spec.queries.iter().map(move |q| format!("{c}/{q}")))
        .collect();
    let mut bad: Vec<bool> = match pins::check_sweep(&spec.pins, &labels, &first) {
        Some(differ) => {
            let n = differ.iter().filter(|&&d| d).count();
            report.notes.push(format!("pins: {n} of {} ops differ", first.len()));
            differ
        }
        None => {
            report.notes.push("pins: none for this size".to_string());
            vec![false; first.len()]
        }
    };
    let nq = queries.len();
    let resims: Vec<usize> = (0..first.len()).step_by(RESIM_EVERY).collect();
    for &i in &resims {
        let (graph, functional) = queries[i % nq];
        let outcome = Simulator::new(&configs[i / nq].1).run_profiled(graph, functional);
        bad[i] |= outcome.map_or(true, |o| o.cycles != first[i]);
    }
    let failed = bad.iter().filter(|&&b| b).count() as u64;
    report.notes.push(format!(
        "{failed} first-cycle ops failed a check (pins, uncached re-run of {} ops); \
         {} later-cycle ops differ from the first cycle",
        resims.len(),
        cycles.mismatched
    ));
    report.attempted += cycles.attempted;
    report.failed += failed + cycles.mismatched;
    let mut sorted = first.clone();
    sorted.sort_unstable();
    let v = &mut report.values;
    v.insert("sim_cycles", first.iter().sum::<u64>() as f64);
    v.insert("p50_latency_cycles", nearest_rank(&sorted, 50.0) as f64);
    v.insert("p99_latency_cycles", nearest_rank(&sorted, 99.0) as f64);
    // A sweep op either returns its outcome or aborts the run.
    v.insert("completed_share", 1.0);
    report.pins = pins::render_sweep(spec.name, &labels, &first);
}

// ---------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------

/// Phase-1 cost resolution on the experiment worker pool, as the
/// `serve --soak` subcommand runs it.
struct Pool;

impl Parallelism for Pool {
    fn run(&self, n: usize, f: &(dyn Fn(usize) -> u64 + Sync)) -> Vec<u64> {
        let indices: Vec<usize> = (0..n).collect();
        pool::parallel_map(&indices, |&i| f(i))
    }
}

/// Phase-1 cost resolution in the calling thread, one span per round
/// and per class simulation.
struct TracedRounds<'t>(Mutex<&'t mut Tracer>);

impl Parallelism for TracedRounds<'_> {
    fn run(&self, n: usize, f: &(dyn Fn(usize) -> u64 + Sync)) -> Vec<u64> {
        let mut tracer = self.0.lock().expect("the tracer is only used from this thread");
        tracer.open("serve.phase1_round", true);
        let costs = (0..n).map(|i| tracer.time("serve.phase1_sim", || f(i))).collect();
        tracer.close();
        costs
    }
}

/// The devices of one serve set-up, the Pareto design (the one served)
/// first.
fn devices(workload: &Workload) -> Vec<(&'static str, Q100Device<'_>)> {
    let mut devices = serve::build_devices(workload);
    devices.sort_by_key(|(name, _)| *name != "Pareto");
    devices
}

/// The tenants and policy the `serve` subcommand derives for `device`.
fn serving(device: &Q100Device<'_>, spec: &Spec) -> (Vec<TenantSpec>, ServePolicy, usize) {
    let Kind::Serve { load, rate, requests, .. } = spec.kind else {
        unreachable!("only serve workloads serve")
    };
    let mean = device.mean_baseline_cycles();
    (serve::tenants(mean, device.queries().len(), load), serve::policy(mean, rate), requests)
}

fn serve_pass(
    device: &Q100Device<'_>,
    spec: &Spec,
    seed: u64,
    par: &dyn Parallelism,
) -> ServeReport {
    let (tenants, policy, requests) = serving(device, spec);
    run_service_on(device, &tenants, &policy, seed, requests, None, None, par)
}

/// The request-stream seed of each pass of a cycle.
fn pass_seeds(spec: &Spec, seed: u64) -> Vec<u64> {
    let Kind::Serve { slices, .. } = spec.kind else { unreachable!("only serve workloads serve") };
    (0..slices as u64).map(|k| mix_seed(seed, &[spec.tag(), k])).collect()
}

/// Cycles of a serve run: the first cycle's reports, the digests of
/// every cycle, and requests whose pass broke an accounting invariant.
struct Served {
    first: Vec<ServeReport>,
    digests: Cycles,
    broken: u64,
    notes: Vec<String>,
}

impl Served {
    fn new() -> Self {
        Served { first: Vec::new(), digests: Cycles::new(), broken: 0, notes: Vec::new() }
    }

    /// Serves one cycle: `pass` runs once per seed.
    fn cycle(&mut self, seeds: &[u64], mut pass: impl FnMut(u64) -> ServeReport) {
        let keep = self.first.is_empty();
        let (mut digests, mut offered) = (Vec::new(), 0);
        for &seed in seeds {
            let report = pass(seed);
            if let Err(e) = report.check_invariants() {
                self.notes.push(format!("invariant violated: {e}"));
                self.broken += report.offered;
            }
            digests.extend(pins::digests(&report.outcomes));
            offered += report.offered;
            if keep {
                self.first.push(report);
            }
        }
        self.digests.add(digests, offered);
    }

    /// The checks of every pass: invariants, the pins for `seed`, and
    /// later cycles against the first.
    fn check(&self, spec: &Spec, seed: u64, report: &mut Report) {
        let Kind::Serve { requests, .. } = spec.kind else {
            unreachable!("only serve workloads serve")
        };
        let digests = self.digests.first.as_deref().expect("at least one cycle ran");
        let offered: u64 = self.first.iter().map(|r| r.offered).sum();
        report.notes.extend(self.notes.iter().cloned());
        let pinned = match pins::check_serve(&spec.pins, seed, digests, requests) {
            Some(failed) => {
                report
                    .notes
                    .push(format!("pins for seed {seed}: {failed} of {offered} requests differ"));
                failed
            }
            None => {
                report.notes.push(format!("pins: none for seed {seed}"));
                0
            }
        };
        let later = self.digests.mismatched * pins::BLOCK.min(requests) as u64;
        report.notes.push(format!(
            "seed {seed}: {} requests in passes that broke an invariant; {later} requests of \
             later cycles in digest blocks that differ from the first cycle",
            self.broken
        ));
        report.attempted += self.digests.attempted;
        report.failed += self.broken + pinned + later;
    }

    /// [`Served::check`], then the simulated statistics of the first
    /// cycle.
    fn finish(self, spec: &Spec, seed: u64, report: &mut Report) {
        self.check(spec, seed, report);
        let digests = self.digests.first.as_deref().expect("at least one cycle ran");
        report.pins = pins::render_serve(spec.name, seed, digests);
        let mut latency: Vec<u64> = self
            .first
            .iter()
            .flat_map(|r| r.outcomes.iter().map(|o| o.finish - o.arrival))
            .collect();
        latency.sort_unstable();
        let completed: u64 = self.first.iter().map(|r| r.completed).sum();
        let offered: u64 = self.first.iter().map(|r| r.offered).sum();
        let v = &mut report.values;
        v.insert("sim_cycles", latency.iter().sum::<u64>() as f64);
        v.insert("p50_latency_cycles", nearest_rank(&latency, 50.0) as f64);
        v.insert("p99_latency_cycles", nearest_rank(&latency, 99.0) as f64);
        v.insert("completed_share", ratio(completed as f64, offered as f64));
    }
}

/// On a run seed the serve pins were not written for, serves one
/// untimed cycle at the pinned seed and checks it against them, so that
/// a run on any seed checks the serving path's outputs.
fn check_pinned_seed(spec: &Spec, workload: &Workload, seed: u64, report: &mut Report) {
    if seed == pins::PIN_SEED || spec.pins.is_empty() {
        return;
    }
    pool::set_jobs(Some(JOBS));
    let mut pinned = Served::new();
    pinned.cycle(&pass_seeds(spec, pins::PIN_SEED), |s| {
        serve_pass(&devices(workload)[0].1, spec, s, &Pool)
    });
    pinned.check(spec, pins::PIN_SEED, report);
}

fn serve_untraced(spec: &Spec, opts: &Options) -> Report {
    let Kind::Serve { requests, fresh_devices, .. } = spec.kind else {
        unreachable!("only serve workloads serve")
    };
    let seeds = pass_seeds(spec, opts.seed);
    pool::set_jobs(Some(JOBS));
    let mut setups = Setups::new(opts.setups);
    let t = Instant::now();
    let workload = prepare(spec);
    let mut devs = devices(&workload);
    setups.push(t.elapsed().as_secs_f64());

    let mut served = Served::new();
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        served.cycle(&seeds, |seed| {
            if fresh_devices && !rates.is_empty() {
                drop(std::mem::take(&mut devs)); // free the old devices first
                devs = devices(&workload);
            }
            let t = Instant::now();
            let report = serve_pass(&devs[0].1, spec, seed, &Pool);
            rates.push(requests as f64 / t.elapsed().as_secs_f64());
            if setups.due() {
                let t = Instant::now();
                let w = prepare(spec);
                let d = std::hint::black_box(devices(&w));
                setups.push(t.elapsed().as_secs_f64());
                drop(d);
            }
            report
        });
    }
    let mut report = Report { passes: rates.len(), ..Report::default() };
    report.values.insert("setup_s", setups.median());
    report.values.insert("ops_per_s", fastest(&rates));
    served.finish(spec, opts.seed, &mut report);
    drop(devs); // so the check below adds nothing to `peak_rss_mb`
    check_pinned_seed(spec, &workload, opts.seed, &mut report);
    report
}

#[allow(clippy::too_many_lines)]
fn serve_traced(spec: &Spec, opts: &Options) -> Report {
    let Kind::Serve { fresh_devices, .. } = spec.kind else {
        unreachable!("only serve workloads serve")
    };
    let seeds = pass_seeds(spec, opts.seed);
    let mut report = Report::default();
    let mut served = Served::new();

    // One untraced cycle on the worker pool, for its utilisation and as
    // the reference the single-worker cycles must reproduce.
    pool::set_jobs(Some(JOBS));
    let workload = prepare(spec);
    let ((), busy) = busy(|| {
        served.cycle(&seeds, |seed| {
            let devs = devices(&workload);
            serve_pass(&devs[0].1, spec, seed, &Pool)
        });
    });

    pool::set_jobs(Some(1));
    let mut tracer = Tracer::new();
    drop(traced_prepare(&mut tracer, spec));
    let mut devs = Vec::new();
    let (mut cost, mut plan) = ([0u64; 2], [0u64; 2]);
    let mut cycles = 0usize;
    let start = Instant::now();
    while cycles == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        served.cycle(&seeds, |seed| {
            tracer.open("pass", false);
            if fresh_devices || devs.is_empty() {
                drop(std::mem::take(&mut devs));
                devs = tracer.time("serve.device_build", || devices(&workload));
            }
            let device = &devs[0].1;
            let (tenants, _, requests) = serving(device, spec);
            tracer.time("serve.requests", || {
                std::hint::black_box(generate_requests(seed, &tenants, requests));
            });
            let before = (device.cost_cache().stats(), device.plan_cache().stats());
            tracer.open("serve.run", true);
            let report = serve_pass(device, spec, seed, &TracedRounds(Mutex::new(&mut tracer)));
            tracer.close();
            tracer.close();
            if cycles == 0 {
                let after = (device.cost_cache().stats(), device.plan_cache().stats());
                cost[0] += after.0.hits - before.0.hits;
                cost[1] += after.0.misses - before.0.misses;
                plan[0] += after.1.hits - before.1.hits;
                plan[1] += after.1.misses - before.1.misses;
            }
            report
        });
        cycles += 1;
    }
    report.passes = cycles * seeds.len();

    let attempts: u64 = served.first.iter().map(|r| r.cost_attempts).sum();
    let classes: u64 = served.first.iter().map(|r| r.cost_unique_classes).sum();
    let offered: u64 = served.first.iter().map(|r| r.offered).sum();
    let per_cycle = |total: f64| total / cycles as f64;
    let (p50, p99) = ms_percentiles(&tracer.seconds("serve.phase1_sim"));
    let v = &mut report.values;
    v.insert("serve.device_build_s", median(&tracer.seconds("serve.device_build")));
    v.insert("serve.requests_s", per_cycle(tracer.total("serve.requests")));
    v.insert("serve.phase1_rounds", (tracer.count("serve.phase1_round") / cycles) as f64);
    v.insert("serve.phase1_sims", (tracer.count("serve.phase1_sim") / cycles) as f64);
    v.insert("serve.phase1_sim_s", per_cycle(tracer.total("serve.phase1_sim")));
    v.insert("serve.phase1_sim_ms_p50", p50);
    v.insert("serve.phase1_sim_ms_p99", p99);
    v.insert("serve.rest_s", per_cycle(tracer.self_total("serve.run")));
    v.insert("serve.cost_cache_hit_ratio", ratio(cost[0] as f64, (cost[0] + cost[1]) as f64));
    v.insert("serve.cost_cache_misses", cost[1] as f64);
    v.insert("serve.plan_cache_misses", plan[1] as f64);
    v.insert("core.plan_cache_hit_ratio", ratio(plan[0] as f64, (plan[0] + plan[1]) as f64));
    v.insert("core.resilience_unique_class_ratio", ratio(classes as f64, attempts as f64));
    v.insert("serve.attempts_per_request", ratio(attempts as f64, offered as f64));
    common_layers(&tracer, busy, &mut report);
    served.finish(spec, opts.seed, &mut report);
    drop(devs);
    check_pinned_seed(spec, &workload, opts.seed, &mut report);
    report
}
