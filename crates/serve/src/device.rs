//! The served device: a Q100 design plus the query table it serves.

use std::sync::Arc;

use q100_core::{
    simulate_plan, CoreError, CostKey, FaultScenario, FunctionalRun, Observe, PlanCache,
    QueryGraph, Result, ScenarioClassifier, ServiceCost, ServiceCostCache, SimConfig, SimScratch,
    StagePlan, FREQUENCY_MHZ,
};
use q100_dbms::SoftwareCost;

/// One query the service can run: its spatial-instruction graph, the
/// functional run (data volumes drive the timing model), and the
/// measured software-baseline cost used when the request falls back.
#[derive(Debug, Clone)]
pub struct ServiceQuery<'w> {
    /// Display name (e.g. `"q6"`).
    pub name: String,
    /// The compiled spatial-instruction graph.
    pub graph: &'w QueryGraph,
    /// Functional run of `graph` against the serving catalog.
    pub functional: &'w FunctionalRun,
    /// Software-baseline cost of the same query (the degradation path).
    pub software: SoftwareCost,
}

/// One resolved cost probe (see [`Q100Device::probe_cost`]).
#[derive(Debug, Clone)]
pub struct CostProbe {
    /// The canonical cost key the scenario collapsed to.
    pub key: CostKey,
    /// Stall cycles to add on top of the key's memoized cost.
    pub stall_extra: u64,
    /// `Some` when the cost is already decided without consulting the
    /// cost cache: the fault-free baseline, or an infeasible class.
    pub known: Option<ServiceCost>,
    /// The key's plan (its canonical mix's), fetched by the probe;
    /// `None` when the cost is known.
    pub plan: Option<Arc<StagePlan>>,
}

/// The resident-entry bound of a device's plan and cost caches.
///
/// Costs are tiny (a key plus one `u64`), so the bound is generous: a
/// million-request soak at a 20% fault rate populates high hundreds of
/// thousands of classes and must stay eviction-free for its
/// unique-simulation accounting to be exact, while a pathological
/// stream still cannot grow memory without bound (~200 B per entry, a
/// ~400 MB ceiling).
///
/// The plan cache shares the bound so that it never evicts, which keeps
/// its counters independent of the worker count: every feasible
/// canonical mix it compiles yields at least one cost key, so it cannot
/// evict before the cost cache does. For plans the bound is no useful
/// memory ceiling: a plan is far larger than a cost entry, and a long
/// soak keeps every plan it compiles resident (a FOUND note in
/// `CHANGES.md` measures the growth).
const CACHE_BOUND: usize = 1 << 21;

/// A Q100 design wrapped behind a fallible cycle-estimate interface,
/// owning its own bounded plan and cost caches so repeated requests
/// for the same query are cheap.
#[derive(Debug)]
pub struct Q100Device<'w> {
    config: SimConfig,
    queries: Vec<ServiceQuery<'w>>,
    plans: PlanCache,
    baseline_cycles: Vec<u64>,
    classifiers: Vec<ScenarioClassifier>,
    healthy_keys: Vec<CostKey>,
    costs: ServiceCostCache,
}

impl<'w> Q100Device<'w> {
    /// Builds a device for `config`, validating it and precomputing the
    /// fault-free baseline cycle count of every query as the cost of
    /// its healthy class (through [`Q100Device::cost`], so the plan
    /// cache holds each healthy plan and the cost cache each healthy
    /// class: scenarios whose faults are invisible to the simulator
    /// collapse onto these and never simulate). The stats reset keeps
    /// the baselines out of the reported cost misses.
    ///
    /// # Errors
    ///
    /// Returns a [`q100_core::CoreError`] when the config is invalid or
    /// any query cannot be scheduled on the healthy mix.
    pub fn new(config: SimConfig, queries: Vec<ServiceQuery<'w>>) -> Result<Self> {
        config.validate()?;
        let plans = PlanCache::with_capacity(CACHE_BOUND);
        let healthy = FaultScenario::default();
        let mut classifiers = Vec::with_capacity(queries.len());
        let mut probes = Vec::with_capacity(queries.len());
        for (tag, q) in queries.iter().enumerate() {
            let classifier = ScenarioClassifier::new(q.graph, &config);
            let (class, plan) = classifier.classify(
                &healthy,
                q.graph,
                &q.functional.profile,
                config.scheduler,
                &plans,
                tag as u64,
            );
            probes.push(CostProbe {
                key: class.key,
                stall_extra: 0,
                known: None,
                plan: Some(plan?),
            });
            classifiers.push(classifier);
        }
        let healthy_keys = probes.iter().map(|p| p.key).collect();
        let costs = ServiceCostCache::with_capacity(CACHE_BOUND);
        let mut device = Q100Device {
            config,
            queries,
            plans,
            baseline_cycles: Vec::new(),
            classifiers,
            healthy_keys,
            costs,
        };
        for (query, probe) in probes.iter().enumerate() {
            let ServiceCost::Cycles(cycles) = device.cost(query, probe) else {
                let name = &device.queries[query].name;
                return Err(CoreError::Internal(format!("{name}: the healthy baseline failed")));
            };
            device.baseline_cycles.push(cycles);
        }
        device.costs.reset_stats();
        Ok(device)
    }

    /// Canonicalizes `scenario` against `query` without simulating: the
    /// returned probe either carries the decided cost (fault-free
    /// baseline, infeasible class) or the [`CostKey`] and plan to
    /// resolve through [`Q100Device::cost`], plus the stall cycles to
    /// add on top of the keyed cost.
    #[must_use]
    pub fn probe_cost(&self, query: usize, scenario: &FaultScenario) -> CostProbe {
        if scenario.is_empty() {
            return CostProbe {
                key: self.healthy_keys[query],
                stall_extra: 0,
                known: Some(ServiceCost::Cycles(self.baseline_cycles[query])),
                plan: None,
            };
        }
        let q = &self.queries[query];
        let (class, plan) = self.classifiers[query].classify(
            scenario,
            q.graph,
            &q.functional.profile,
            self.config.scheduler,
            &self.plans,
            query as u64,
        );
        let (known, plan) = match plan {
            Ok(plan) => (None, Some(plan)),
            Err(_) => (Some(ServiceCost::Failed), None),
        };
        CostProbe { key: class.key, stall_extra: class.stall_extra(), known, plan }
    }

    /// The stall-free cost of `probe` for `query`: its known cost, or
    /// one single-flight lookup of `(query, key)` in the cost cache
    /// that simulates the key on the probe's plan on a miss (the base
    /// configuration with the key's mix and derate swapped in). Pure
    /// in `(query, key)` and safe to call from worker threads: racing
    /// callers of one fresh key simulate it once.
    #[must_use]
    pub fn cost(&self, query: usize, probe: &CostProbe) -> ServiceCost {
        if let Some(cost) = probe.known {
            return cost;
        }
        let Some(plan) = &probe.plan else { return ServiceCost::Failed };
        let key = probe.key;
        let simulate = || {
            let cfg = SimConfig { mix: key.mix, derate: key.derate(), ..self.config.clone() };
            let timing = simulate_plan(plan, &cfg, &mut SimScratch::new(), Observe::default());
            Ok::<_, std::convert::Infallible>(
                timing.map_or(ServiceCost::Failed, |t| ServiceCost::Cycles(t.cycles)),
            )
        };
        let Ok(cost) = self.costs.get_or_insert_with((query as u64, key), simulate);
        cost
    }

    /// The scenario-keyed service-cost cache (tags are query indices).
    #[must_use]
    pub fn cost_cache(&self) -> &ServiceCostCache {
        &self.costs
    }

    /// The compiled-plan cache (one entry per feasible canonical mix
    /// seen, keyed by query index).
    #[must_use]
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// Cycles the software baseline needs for `query`, expressed on the
    /// device clock so the two paths share one timeline.
    #[must_use]
    pub fn software_cycles(&self, query: usize) -> u64 {
        self.queries[query].software.service_cycles(FREQUENCY_MHZ)
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The query table.
    #[must_use]
    pub fn queries(&self) -> &[ServiceQuery<'w>] {
        &self.queries
    }

    /// The memoized fault-free baseline for one query.
    #[must_use]
    pub fn baseline_cycles(&self, query: usize) -> u64 {
        self.baseline_cycles[query]
    }

    /// Mean fault-free baseline across the query table (useful for
    /// scaling load levels and policy knobs to the workload).
    #[must_use]
    pub fn mean_baseline_cycles(&self) -> u64 {
        if self.baseline_cycles.is_empty() {
            return 0;
        }
        let sum: u64 = self.baseline_cycles.iter().sum();
        sum / self.baseline_cycles.len() as u64
    }
}
