//! Chaos soak: 10k requests against a fault-injected device, proving
//! the no-silent-drop accounting and the graceful-degradation paths.

use std::collections::HashSet;

use q100_columnar::{Column, Table, Value};
use q100_core::{
    check_feasible, execute, AggOp, CmpOp, CoreError, Fault, FaultScenario, FunctionalRun,
    MemoryCatalog, QueryGraph, ServiceCost, SimConfig, Simulator, TileKind, TileMix,
};
use q100_dbms::SoftwareCost;
use q100_serve::{
    generate_requests, mix_seed, run_service, Disposition, Q100Device, Request, ServePolicy,
    ServiceQuery, TenantSpec,
};
use q100_trace::{Registry, RingRecorder, TraceEvent};

fn catalog() -> MemoryCatalog {
    let rows = 2048i64;
    let ids: Vec<i64> = (0..rows).collect();
    let vals: Vec<i64> = (0..rows).map(|i| (i * 7) % 100).collect();
    let grps: Vec<i64> = (0..rows).map(|i| i % 8).collect();
    let t = Table::new(vec![
        Column::from_ints("id", ids),
        Column::from_ints("v", vals),
        Column::from_ints("g", grps),
    ])
    .unwrap();
    MemoryCatalog::new(vec![("t".into(), t)])
}

fn filter_graph() -> QueryGraph {
    let mut b = QueryGraph::builder("filter");
    let id = b.col_select_base("t", "id");
    let v = b.col_select_base("t", "v");
    let pred = b.bool_gen_const(v, CmpOp::Gt, Value::Int(50));
    let fid = b.col_filter(id, pred);
    let fv = b.col_filter(v, pred);
    let _ = b.stitch(&[fid, fv]);
    b.finish().unwrap()
}

fn agg_graph() -> QueryGraph {
    let mut b = QueryGraph::builder("agg");
    let v = b.col_select_base("t", "v");
    let g = b.col_select_base("t", "g");
    let _ = b.aggregate(AggOp::Sum, v, g);
    b.finish().unwrap()
}

struct Workload {
    graphs: Vec<QueryGraph>,
    functionals: Vec<FunctionalRun>,
}

impl Workload {
    fn new() -> Self {
        let cat = catalog();
        let graphs = vec![filter_graph(), agg_graph()];
        let functionals = graphs.iter().map(|g| execute(g, &cat).unwrap()).collect();
        Workload { graphs, functionals }
    }

    fn queries(&self) -> Vec<ServiceQuery<'_>> {
        self.graphs
            .iter()
            .zip(&self.functionals)
            .enumerate()
            .map(|(i, (g, f))| ServiceQuery {
                name: format!("q{i}"),
                graph: g,
                functional: f,
                software: SoftwareCost { runtime_ms: 0.05 + 0.02 * i as f64, energy_mj: 0.7 },
            })
            .collect()
    }
}

fn tenants(mean: u64) -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "interactive".into(),
            period_cycles: mean,
            deadline_cycles: 4 * mean,
            queries: vec![0],
            weight: 2,
        },
        TenantSpec {
            name: "analytics".into(),
            period_cycles: 2 * mean,
            deadline_cycles: 10 * mean,
            queries: vec![0, 1],
            weight: 1,
        },
        TenantSpec {
            name: "batch".into(),
            period_cycles: 4 * mean,
            deadline_cycles: 30 * mean,
            queries: vec![1],
            weight: 1,
        },
    ]
}

fn policy(mean: u64, fault_rate: f64) -> ServePolicy {
    ServePolicy {
        queue_depth: 8,
        max_attempts: 3,
        backoff_base_cycles: (mean / 8).max(1),
        fail_cost_cycles: (mean / 16).max(1),
        breaker_threshold: 4,
        breaker_cooldown_cycles: 8 * mean.max(1),
        fault_rate,
    }
}

/// The headline invariant check: a 10k-request soak at a 20% fault
/// rate, with every request accounted for. The device is a minimal
/// one-of-each mix so kill faults genuinely make queries unschedulable
/// and the degradation path gets real traffic (the redundant paper
/// designs shrug off single kills).
#[test]
fn chaos_soak_10k_requests_at_20_percent_faults_upholds_invariants() {
    let w = Workload::new();
    let device = Q100Device::new(SimConfig::new(TileMix::uniform(1)), w.queries()).unwrap();
    let mean = device.mean_baseline_cycles();
    assert!(mean > 0);

    let registry = Registry::new();
    let mut sink = RingRecorder::with_capacity(16);
    let report = run_service(
        &device,
        &tenants(mean),
        &policy(mean, 0.2),
        0xc0ffee,
        10_000,
        Some(&mut sink),
        Some(&registry),
    );

    report.check_invariants().unwrap();
    assert_eq!(report.offered, 10_000);
    // A 20% fault rate must exercise the degradation machinery: retries
    // happen and some requests end on the software baseline.
    assert!(report.retries > 0, "no retries at a 20% fault rate");
    assert!(report.degraded > 0, "no degradations at a 20% fault rate");
    assert!(report.completed > 0, "the device should still complete most work");
    assert_eq!(report.fallback.runs, (report.offered - report.completed));
    assert!(report.fallback.runtime_ms > 0.0);

    // The registry mirrors the report's accounting.
    assert_eq!(registry.counter("serve.offered"), report.offered);
    assert_eq!(registry.counter("serve.shed"), report.shed);
    assert_eq!(registry.counter("serve.degraded"), report.degraded);
    // Trace events carry the request slices.
    assert!(sink.events().iter().any(|e| matches!(e, TraceEvent::ServeRequest { .. })));

    // Per-tenant percentiles are populated and ordered.
    for t in &report.tenants {
        assert!(t.offered > 0, "tenant {} got no requests", t.name);
        assert!(t.p50_latency_cycles <= t.p99_latency_cycles);
    }
}

/// Byte-level determinism of the serving loop itself: identical inputs
/// yield identical reports (the experiments crate additionally proves
/// `--jobs` independence for the full study).
#[test]
fn soak_is_deterministic_in_its_inputs() {
    let w = Workload::new();
    let device = Q100Device::new(SimConfig::pareto(), w.queries()).unwrap();
    let mean = device.mean_baseline_cycles();
    let a = run_service(&device, &tenants(mean), &policy(mean, 0.2), 99, 500, None, None);
    let b = run_service(&device, &tenants(mean), &policy(mean, 0.2), 99, 500, None, None);
    assert_eq!(a, b);
    let c = run_service(&device, &tenants(mean), &policy(mean, 0.2), 100, 500, None, None);
    assert_ne!(a, c, "a different seed must change the outcome stream");
}

/// A fresh, uncached run of `scenario`'s degraded configuration on
/// `device`: scheduled on the whole degraded mix (no demand clamp), no
/// plan or cost cache involved.
fn fresh_cycles(
    device: &Q100Device<'_>,
    query: usize,
    scenario: &FaultScenario,
) -> Result<u64, CoreError> {
    let q = &device.queries()[query];
    let config = scenario.apply(device.config());
    Simulator::new(&config).run_profiled(q.graph, q.functional).map(|o| o.cycles)
}

/// The cached cost path the two-phase engine relies on: for random
/// scenarios on both a redundant and a minimal device,
/// `probe_cost`/`cost` plus the stall carry reproduce a fresh run of
/// the degraded configuration exactly (or agree the scenario is
/// unschedulable).
#[test]
fn probed_costs_match_direct_service_cycles() {
    let w = Workload::new();
    for config in [SimConfig::pareto(), SimConfig::new(TileMix::uniform(1))] {
        let device = Q100Device::new(config, w.queries()).unwrap();
        for query in 0..device.queries().len() {
            for seed in 0..64u64 {
                let scenario = FaultScenario::generate(seed, 0.3, &device.config().mix);
                let direct = fresh_cycles(&device, query, &scenario);
                let probe = device.probe_cost(query, &scenario);
                match (direct, device.cost(query, &probe)) {
                    (Ok(cycles), ServiceCost::Cycles(c)) => {
                        assert_eq!(cycles, c + probe.stall_extra, "query {query} seed {seed}");
                    }
                    (Err(_), ServiceCost::Failed) => {}
                    (d, c) => panic!("query {query} seed {seed}: direct {d:?} vs cached {c:?}"),
                }
            }
        }
    }
}

/// The `Unschedulable` path: on a minimal mix, a kill fault makes the
/// query unschedulable (a typed error on a fresh run, a failed cost
/// through the device), and the serving loop turns it into a software
/// degradation rather than a drop or a panic.
#[test]
fn unschedulable_mix_degrades_to_software() {
    let w = Workload::new();
    let device = Q100Device::new(SimConfig::new(TileMix::uniform(1)), w.queries()).unwrap();

    // Directly: killing the only ColFilter makes the filter query
    // unschedulable, and the error is typed.
    let kill = FaultScenario { faults: vec![Fault::TileKilled { kind: TileKind::ColFilter }] };
    match fresh_cycles(&device, 0, &kill) {
        Err(CoreError::Unschedulable { .. }) => {}
        other => panic!("expected Unschedulable, got {other:?}"),
    }
    let probe = device.probe_cost(0, &kill);
    assert_eq!(probe.known, Some(ServiceCost::Failed));
    assert!(probe.plan.is_none());
    assert_eq!(device.cost(0, &probe), ServiceCost::Failed);

    // Through the loop: at fault rate 1.0 every attempt sees heavy
    // faults; kills on the uniform(1) mix force software fallbacks.
    let mean = device.mean_baseline_cycles();
    let report = run_service(&device, &tenants(mean), &policy(mean, 1.0), 7, 400, None, None);
    report.check_invariants().unwrap();
    assert!(report.degraded > 0, "kill faults on a minimal mix must degrade requests");
    assert!(report.fallback.runs > 0);
    assert!(
        report
            .outcomes
            .iter()
            .filter(|o| o.disposition == Disposition::Degraded)
            .all(|o| o.finish >= o.arrival),
        "every degraded request is answered, never dropped"
    );
}

/// The distinct feasible `(query, canonical mix)` pairs a soak over
/// `requests` probes, derived without the device's caches: each query's
/// healthy mix (compiled when the device is built), then each request's
/// attempts in order until one lands on a schedulable mix.
fn feasible_canonical_mixes(
    device: &Q100Device<'_>,
    requests: &[Request],
    policy: &ServePolicy,
) -> HashSet<(usize, TileMix)> {
    let base = device.config().mix;
    let demand: Vec<_> = device.queries().iter().map(|q| q.graph.kind_histogram()).collect();
    let mut mixes: HashSet<_> = demand.iter().map(|d| base.clamped_to(d)).enumerate().collect();
    for req in requests {
        for attempt in 1..=u64::from(policy.max_attempts.max(1)) {
            let seed = mix_seed(req.seed, &[attempt]);
            let scenario = FaultScenario::generate(seed, policy.fault_rate, &base);
            let mix = scenario.degraded_mix(&base).clamped_to(&demand[req.query]);
            if check_feasible(device.queries()[req.query].graph, &mix).is_ok() {
                mixes.insert((req.query, mix));
                break;
            }
        }
    }
    mixes
}

/// The plan cache is the device's only plan memo: a 2k-request soak at
/// a 30% fault rate compiles exactly one plan per feasible canonical
/// mix it probes, evicts nothing, and a replay on the same device
/// compiles nothing new and reproduces every cost. On the Pareto and
/// `uniform(1)` designs only the healthy mixes are feasible (kills
/// either clamp away or starve a kind); on `uniform(2)` a kill can
/// halve a demanded kind and still leave a schedulable mix.
#[test]
fn plan_cache_compiles_each_feasible_canonical_mix_once() {
    let w = Workload::new();
    let total = 2_000;
    let mut rescheduled = 0;
    for mix in [TileMix::pareto(), TileMix::uniform(1), TileMix::uniform(2)] {
        let config = SimConfig { mix, ..SimConfig::pareto() };
        let device = Q100Device::new(config, w.queries()).unwrap();
        let mean = device.mean_baseline_cycles();
        let (tenants, policy) = (tenants(mean), policy(mean, 0.3));
        let first = run_service(&device, &tenants, &policy, 0x5eed, total, None, None);
        first.check_invariants().unwrap();

        let requests = generate_requests(0x5eed, &tenants, total);
        let expected = feasible_canonical_mixes(&device, &requests, &policy);
        let plans = device.plan_cache();
        assert_eq!(plans.stats().misses, expected.len() as u64, "{}", device.config().mix);
        assert_eq!(plans.evictions(), 0);
        rescheduled += expected.len() - device.queries().len();

        let (plan_misses, cost_misses) = (plans.stats().misses, device.cost_cache().stats().misses);
        let replay = run_service(&device, &tenants, &policy, 0x5eed, total, None, None);
        assert_eq!(plans.stats().misses, plan_misses, "a replay compiles no new plan");
        assert_eq!(device.cost_cache().stats().misses, cost_misses, "a replay simulates nothing");
        assert_eq!(replay, first, "a replay reproduces every cost");
    }
    assert!(rescheduled > 0, "some kill must reschedule onto a feasible degraded mix");
}
