//! The served device: a Q100 design plus the query table it serves.

use q100_core::{
    estimate_class_cycles, estimate_service_cycles, CostKey, FaultScenario, FunctionalRun,
    PlanCache, QueryGraph, Result, ScenarioClassifier, ServiceCost, ServiceCostCache, SimConfig,
    FREQUENCY_MHZ,
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProbe {
    /// The canonical cost key the scenario collapsed to.
    pub key: CostKey,
    /// Stall cycles to add on top of the key's memoized cost.
    pub stall_extra: u64,
    /// `Some` when the cost is already decided without consulting the
    /// cost cache: the fault-free baseline, or an infeasible class.
    pub known: Option<ServiceCost>,
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
    /// fault-free baseline cycle count of every query (this also warms
    /// the plan cache and seeds the cost cache with each
    /// query's healthy class, so serving-time estimates only pay for
    /// fault-specific simulation).
    ///
    /// # Errors
    ///
    /// Returns a [`q100_core::CoreError`] when the config is invalid or
    /// any query cannot be scheduled on the healthy mix.
    pub fn new(config: SimConfig, queries: Vec<ServiceQuery<'w>>) -> Result<Self> {
        config.validate()?;
        let plans = PlanCache::with_capacity(CACHE_BOUND);
        let empty = FaultScenario { faults: Vec::new() };
        let mut baseline_cycles = Vec::with_capacity(queries.len());
        for (tag, q) in queries.iter().enumerate() {
            baseline_cycles.push(estimate_service_cycles(
                q.graph,
                q.functional,
                &config,
                &empty,
                &plans,
                tag as u64,
            )?);
        }
        // Seed the cost cache with the canonical healthy class of every
        // query: scenarios whose faults are invisible to the simulator
        // (masked derates, clamped-away kills, stall-only scenarios)
        // collapse onto these keys and never simulate. The stats reset
        // keeps seeded entries out of the reported miss counts.
        let costs = ServiceCostCache::with_capacity(CACHE_BOUND);
        let mut classifiers = Vec::with_capacity(queries.len());
        let mut healthy_keys = Vec::with_capacity(queries.len());
        for (tag, q) in queries.iter().enumerate() {
            let classifier = ScenarioClassifier::new(q.graph, &config);
            let class = classifier.classify(
                &empty,
                q.graph,
                &q.functional.profile,
                config.scheduler,
                &plans,
                tag as u64,
            );
            costs.insert((tag as u64, class.key), ServiceCost::Cycles(baseline_cycles[tag]));
            healthy_keys.push(class.key);
            classifiers.push(classifier);
        }
        costs.reset_stats();
        Ok(Q100Device { config, queries, plans, baseline_cycles, classifiers, healthy_keys, costs })
    }

    /// Device cycles to run query `query` under `scenario`. An empty
    /// scenario returns the memoized fault-free baseline (the resilience
    /// layer guarantees it is byte-identical to a fresh estimate).
    ///
    /// # Errors
    ///
    /// Returns [`q100_core::CoreError::Unschedulable`] when the faulted
    /// mix can no longer host the query — the caller's signal to fall
    /// back to the software baseline.
    pub fn service_cycles(&self, query: usize, scenario: &FaultScenario) -> Result<u64> {
        if scenario.is_empty() {
            return Ok(self.baseline_cycles[query]);
        }
        let q = &self.queries[query];
        estimate_service_cycles(
            q.graph,
            q.functional,
            &self.config,
            scenario,
            &self.plans,
            query as u64,
        )
    }

    /// Canonicalizes `scenario` against `query` without simulating: the
    /// returned probe either carries the decided cost (fault-free
    /// baseline, infeasible class) or the [`CostKey`] to resolve via
    /// [`Q100Device::cost_cache`] / [`Q100Device::class_cost`], plus
    /// the stall cycles to add on top of the keyed cost.
    #[must_use]
    pub fn probe_cost(&self, query: usize, scenario: &FaultScenario) -> CostProbe {
        if scenario.is_empty() {
            return CostProbe {
                key: self.healthy_keys[query],
                stall_extra: 0,
                known: Some(ServiceCost::Cycles(self.baseline_cycles[query])),
            };
        }
        let q = &self.queries[query];
        let class = self.classifiers[query].classify(
            scenario,
            q.graph,
            &q.functional.profile,
            self.config.scheduler,
            &self.plans,
            query as u64,
        );
        let known = if class.feasible { None } else { Some(ServiceCost::Failed) };
        CostProbe { key: class.key, stall_extra: class.stall_extra(), known }
    }

    /// Simulates the cost of one canonical class (a cost-cache miss).
    /// Pure in `(query, key)` and safe to call from worker threads.
    #[must_use]
    pub fn class_cost(&self, query: usize, key: &CostKey) -> ServiceCost {
        let q = &self.queries[query];
        let (tag, scheduler) = (query as u64, self.config.scheduler);
        // The probe that produced `key` already looked its plan up (the
        // key's mix is canonical, so it is the plan key). Re-reading it
        // uncounted keeps the plan cache's hits independent of how
        // often racing serve cells miss the same cost.
        let plan = match self.plans.peek(&(tag, scheduler, key.mix)) {
            Some(plan) => Ok(plan),
            None => {
                self.plans.get_or_compile(tag, scheduler, q.graph, &key.mix, &q.functional.profile)
            }
        };
        let cycles = plan.and_then(|plan| {
            estimate_class_cycles(&plan, q.graph, q.functional, &self.config, key)
        });
        match cycles {
            Ok(cycles) => ServiceCost::Cycles(cycles),
            Err(_) => ServiceCost::Failed,
        }
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
