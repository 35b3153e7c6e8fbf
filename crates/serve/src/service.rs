//! The deterministic serving loop, split into two phases.
//!
//! **Phase 1 — cost resolution.** Every attempt's [`FaultScenario`] is
//! canonicalized into its cost class (see
//! [`q100_core::ScenarioClassifier`]); the distinct `(query, class)`
//! pairs of the whole request stream are resolved through the device's
//! [`q100_core::ServiceCostCache`], and only the cache misses are
//! simulated — fanned out through a caller-supplied [`Parallelism`].
//! An attempt's cycle cost is a pure function of `(design, query,
//! effective derate)`, independent of queue/breaker state, so costs can
//! be resolved out of order and in parallel without changing anything.
//!
//! **Phase 2 — policy replay.** The virtual-clock
//! admission/deadline/retry/breaker/degradation loop runs unchanged,
//! but every `service_cycles` call becomes a table lookup into the
//! phase-1 cost matrix. The replay is serial and cheap, and — because
//! phase 1 resolves a (deterministic) superset of the attempts the
//! policy consumes — byte-identical to the original one-phase loop at
//! any worker count.

use std::collections::{HashMap, HashSet};

use q100_dbms::FallbackAccount;
use q100_trace::{Histogram, Registry, TraceEvent, TraceSink, DEFAULT_BOUNDS};

use crate::device::Q100Device;
use crate::mix_seed;
use crate::policy::{CircuitBreaker, ServePolicy};
use crate::tenant::{generate_requests, TenantSpec};
use q100_core::{CostKey, FaultScenario, ServiceCost};

/// Why an arrival was shed before reaching the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admitted-work queue was at the policy's depth.
    QueueFull,
    /// The circuit breaker was open.
    BreakerOpen,
}

/// The final fate of one request. Every request gets exactly one — the
/// service never drops a request silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Ran on the Q100 and finished inside its deadline.
    Completed,
    /// Never admitted; answered by the software baseline.
    Shed(ShedReason),
    /// Admitted, but the device could not produce an answer (attempts
    /// exhausted or unschedulable); answered by the software baseline.
    Degraded,
    /// Admitted, but its deadline expired before the device could
    /// finish; answered (late) by the software baseline.
    DeadlineMissed,
}

impl Disposition {
    /// Stable numeric code used in trace events: 0 = completed,
    /// 1 = shed, 2 = degraded, 3 = deadline missed.
    #[must_use]
    pub fn code(self) -> u16 {
        match self {
            Disposition::Completed => 0,
            Disposition::Shed(_) => 1,
            Disposition::Degraded => 2,
            Disposition::DeadlineMissed => 3,
        }
    }
}

/// Which engine produced the request's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The Q100 device.
    Q100,
    /// The software baseline (MonetDB-style cost model).
    Software,
}

/// The audited outcome of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Index into the tenant table.
    pub tenant: usize,
    /// Per-tenant sequence number.
    pub seq: u32,
    /// Index into the device's query table.
    pub query: usize,
    /// Arrival cycle.
    pub arrival: u64,
    /// Cycle the answer was produced (on whichever backend).
    pub finish: u64,
    /// Final disposition.
    pub disposition: Disposition,
    /// Backend that produced the answer.
    pub backend: Backend,
    /// Q100 attempts made (0 for shed requests).
    pub attempts: u32,
}

/// Per-tenant slice of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Requests offered by this tenant.
    pub offered: u64,
    /// Requests admitted past the shedding policies.
    pub admitted: u64,
    /// Requests shed (queue full or breaker open).
    pub shed: u64,
    /// Requests completed on the Q100 inside their deadline.
    pub completed: u64,
    /// Requests degraded to the software baseline.
    pub degraded: u64,
    /// Requests whose deadline expired.
    pub deadline_missed: u64,
    /// Median latency (arrival to answer) in cycles, nearest-rank.
    pub p50_latency_cycles: u64,
    /// 99th-percentile latency in cycles, nearest-rank.
    pub p99_latency_cycles: u64,
}

/// The full, deterministic record of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests offered (equals `outcomes.len()`).
    pub offered: u64,
    /// Requests admitted past the shedding policies.
    pub admitted: u64,
    /// Requests shed before reaching the device.
    pub shed: u64,
    /// Shed because the queue was at depth.
    pub shed_queue_full: u64,
    /// Shed because the breaker was open.
    pub shed_breaker: u64,
    /// Admitted requests completed on the Q100 inside their deadline.
    pub completed: u64,
    /// Admitted requests degraded to the software baseline.
    pub degraded: u64,
    /// Admitted requests whose deadline expired.
    pub deadline_missed: u64,
    /// Q100 retry attempts beyond each request's first.
    pub retries: u64,
    /// Times the circuit breaker opened.
    pub breaker_opens: u64,
    /// Attempt costs resolved by phase 1 (a deterministic superset of
    /// the attempts phase 2 consumes: every request's first attempt,
    /// plus follow-ups for each attempt that resolved as failed).
    pub cost_attempts: u64,
    /// Distinct `(query, cost class)` pairs among the resolved attempts
    /// — the stream's canonical cost entropy. Both this and
    /// `cost_attempts` depend only on the inputs, never on cache warmth
    /// or worker count.
    pub cost_unique_classes: u64,
    /// Aggregate software-baseline work absorbed by fallbacks.
    pub fallback: FallbackAccount,
    /// Per-tenant slices, in tenant-table order.
    pub tenants: Vec<TenantReport>,
    /// Every request's audited outcome, in arrival order.
    pub outcomes: Vec<RequestOutcome>,
}

impl ServeReport {
    /// Proves the no-silent-drop accounting:
    ///
    /// * `offered == outcomes.len() == admitted + shed`
    /// * `admitted == completed + degraded + deadline_missed`
    /// * `shed == shed_queue_full + shed_breaker`
    /// * every `finish >= arrival`
    /// * per-tenant counters sum to the aggregate ones
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.offered != self.outcomes.len() as u64 {
            return Err(format!(
                "offered {} != recorded outcomes {}",
                self.offered,
                self.outcomes.len()
            ));
        }
        if self.offered != self.admitted + self.shed {
            return Err(format!(
                "offered {} != admitted {} + shed {}",
                self.offered, self.admitted, self.shed
            ));
        }
        if self.admitted != self.completed + self.degraded + self.deadline_missed {
            return Err(format!(
                "admitted {} != completed {} + degraded {} + deadline_missed {}",
                self.admitted, self.completed, self.degraded, self.deadline_missed
            ));
        }
        if self.shed != self.shed_queue_full + self.shed_breaker {
            return Err(format!(
                "shed {} != queue_full {} + breaker {}",
                self.shed, self.shed_queue_full, self.shed_breaker
            ));
        }
        if let Some(o) = self.outcomes.iter().find(|o| o.finish < o.arrival) {
            return Err(format!(
                "tenant {} seq {} finishes at {} before arriving at {}",
                o.tenant, o.seq, o.finish, o.arrival
            ));
        }
        let tenant_offered: u64 = self.tenants.iter().map(|t| t.offered).sum();
        if tenant_offered != self.offered {
            return Err(format!(
                "per-tenant offered sums to {tenant_offered}, aggregate is {}",
                self.offered
            ));
        }
        Ok(())
    }
}

/// Nearest-rank percentile of an already-sorted sample; 0 when empty.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How phase 1 fans uncached class simulations out. Implementations
/// must return `f(0), f(1), …, f(n-1)` in input order; whether the
/// calls run serially or on a worker pool is invisible to the caller
/// (class costs are pure), so the report is byte-identical either way.
pub trait Parallelism: Sync {
    /// Computes `f` over `0..n`, preserving input order.
    fn run(&self, n: usize, f: &(dyn Fn(usize) -> u64 + Sync)) -> Vec<u64>;
}

/// The in-thread executor — [`run_service`]'s default. Callers with a
/// worker pool (e.g. the experiments crate) supply their own
/// [`Parallelism`] via [`run_service_on`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Serial;

impl Parallelism for Serial {
    fn run(&self, n: usize, f: &(dyn Fn(usize) -> u64 + Sync)) -> Vec<u64> {
        (0..n).map(f).collect()
    }
}

/// Cost-matrix encoding: a failed attempt (infeasible class or
/// simulation error).
const COST_FAILED: u64 = u64::MAX;
/// Cost-matrix encoding: an attempt phase 1 never resolved (phase 2
/// must never read one — `debug_assert`ed).
const COST_UNRESOLVED: u64 = u64::MAX - 1;

/// Phase 1: resolves the cost of every attempt the policy could
/// consume into a flat `requests.len() × max_attempts` matrix
/// (cycles-with-stalls, or [`COST_FAILED`]).
///
/// Round `k` probes attempt `k` of every still-live request (round 1:
/// all of them; later rounds: those whose previous attempt failed — a
/// superset of what phase 2 consumes, since costs are pure). Each
/// round canonicalizes its scenarios, deduplicates the keys, looks
/// each distinct key up in the device cost cache exactly once, and
/// simulates only the misses through `par`.
fn resolve_costs(
    device: &Q100Device<'_>,
    requests: &[crate::tenant::Request],
    policy: &ServePolicy,
    par: &dyn Parallelism,
) -> (Vec<u64>, u64, u64) {
    let max_attempts = policy.max_attempts.max(1) as usize;
    let n = requests.len();
    let mut costs = vec![COST_UNRESOLVED; n * max_attempts];
    let mut cost_attempts = 0u64;
    let mut seen_classes: HashSet<(usize, CostKey)> = HashSet::new();

    // Reused across every attempt of every request (satellite of the
    // two-phase split: no per-attempt allocations).
    let mut scenario = FaultScenario::default();
    let mut candidates: Vec<usize> = (0..n).collect();
    let mut next_candidates: Vec<usize> = Vec::new();
    let mut round: Vec<(usize, crate::device::CostProbe)> = Vec::new();
    let mut round_cost: HashMap<(usize, CostKey), ServiceCost> = HashMap::new();
    let mut misses: Vec<(usize, CostKey)> = Vec::new();

    for attempt in 1..=max_attempts {
        if candidates.is_empty() {
            break;
        }
        round.clear();
        round_cost.clear();
        misses.clear();

        for &i in &candidates {
            let req = &requests[i];
            scenario.generate_into(
                mix_seed(req.seed, &[attempt as u64]),
                policy.fault_rate,
                &device.config().mix,
            );
            let probe = device.probe_cost(req.query, &scenario);
            seen_classes.insert((req.query, probe.key));
            cost_attempts += 1;
            round.push((i, probe));
        }

        // One cache lookup per distinct (query, key) this round; the
        // leftovers are this round's misses, simulated in parallel.
        for &(i, ref probe) in &round {
            if probe.known.is_some() {
                continue;
            }
            let qk = (requests[i].query, probe.key);
            if round_cost.contains_key(&qk) || misses.contains(&qk) {
                continue;
            }
            match device.cost_cache().get(&(qk.0 as u64, probe.key)) {
                Some(cost) => {
                    round_cost.insert(qk, cost);
                }
                None => misses.push(qk),
            }
        }
        let fresh = par.run(misses.len(), &|j: usize| {
            let (query, key) = misses[j];
            match device.class_cost(query, &key) {
                ServiceCost::Cycles(c) => c.min(COST_UNRESOLVED - 1),
                ServiceCost::Failed => COST_FAILED,
            }
        });
        for (&(query, key), &enc) in misses.iter().zip(&fresh) {
            let cost =
                if enc == COST_FAILED { ServiceCost::Failed } else { ServiceCost::Cycles(enc) };
            device.cost_cache().insert((query as u64, key), cost);
            round_cost.insert((query, key), cost);
        }

        next_candidates.clear();
        for &(i, ref probe) in &round {
            let cost = probe.known.unwrap_or_else(|| round_cost[&(requests[i].query, probe.key)]);
            let enc = match cost {
                ServiceCost::Failed => COST_FAILED,
                ServiceCost::Cycles(c) => {
                    c.saturating_add(probe.stall_extra).min(COST_UNRESOLVED - 1)
                }
            };
            costs[i * max_attempts + (attempt - 1)] = enc;
            if enc == COST_FAILED {
                next_candidates.push(i);
            }
        }
        std::mem::swap(&mut candidates, &mut next_candidates);
    }
    (costs, cost_attempts, seen_classes.len() as u64)
}

/// Runs the serving loop: `total` requests generated from
/// `(seed, tenants)` via [`generate_requests`], pushed through `device`
/// under `policy`. Everything — arrivals, faults, backoff, deadlines —
/// lives on one virtual clock in simulated device cycles, so the
/// returned [`ServeReport`] is byte-identical for identical inputs
/// regardless of thread count or wall-clock timing.
///
/// Each arrival is disposed of in order:
///
/// 1. **Breaker** — an open breaker sheds the request to software.
/// 2. **Admission** — more than `queue_depth` admitted requests still
///    in flight sheds it to software.
/// 3. **Deadline at dispatch** — if the device queue alone already
///    pushes the start past the deadline, the request is counted as a
///    deadline miss and answered (late) by software.
/// 4. **Attempts** — up to `max_attempts` Q100 estimates, each against
///    a fresh [`FaultScenario`] derived from the request seed and the
///    attempt number, with exponential backoff between attempts.
///    Success inside the deadline completes the request; success past
///    it is aborted at the deadline (miss); exhausted attempts or an
///    unschedulable degraded mix degrade it to software and feed the
///    circuit breaker.
///
/// Attempt costs are resolved up front through the device's
/// scenario-keyed cost cache (see the module docs); this entry point
/// simulates cache misses in the calling thread — use
/// [`run_service_on`] to fan them out on a worker pool.
///
/// When `sink` is given, every request emits a
/// [`TraceEvent::ServeRequest`] slice; when `registry` is given, the
/// `serve.*` counters and the `serve.latency.cycles` histogram are
/// populated.
pub fn run_service(
    device: &Q100Device<'_>,
    tenants: &[TenantSpec],
    policy: &ServePolicy,
    seed: u64,
    total: usize,
    sink: Option<&mut dyn TraceSink>,
    registry: Option<&Registry>,
) -> ServeReport {
    run_service_on(device, tenants, policy, seed, total, sink, registry, &Serial)
}

/// [`run_service`] with an explicit phase-1 [`Parallelism`]. The
/// executor only affects wall-clock: the report is byte-identical for
/// any implementation.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub fn run_service_on(
    device: &Q100Device<'_>,
    tenants: &[TenantSpec],
    policy: &ServePolicy,
    seed: u64,
    total: usize,
    mut sink: Option<&mut dyn TraceSink>,
    registry: Option<&Registry>,
    par: &dyn Parallelism,
) -> ServeReport {
    let requests = generate_requests(seed, tenants, total);
    let max_attempts = policy.max_attempts.max(1);

    // Phase 1: cost resolution (the only expensive part, parallel).
    let (costs, cost_attempts, cost_unique_classes) = resolve_costs(device, &requests, policy, par);

    // Phase 2: policy replay on the virtual clock, pure table lookups.
    let mut breaker = CircuitBreaker::new(policy.breaker_threshold, policy.breaker_cooldown_cycles);

    // The device runs admitted requests FIFO; `device_free` is when it
    // next idles, `inflight` holds the release cycles of admitted
    // requests still occupying queue slots.
    let mut device_free = 0u64;
    let mut inflight: Vec<u64> = Vec::new();

    let mut outcomes = Vec::with_capacity(requests.len());
    let mut fallback = FallbackAccount::default();
    let mut retries = 0u64;
    let (mut shed_queue_full, mut shed_breaker) = (0u64, 0u64);

    for (i, req) in requests.iter().enumerate() {
        let now = req.arrival;
        inflight.retain(|&free| free > now);

        let software_cycles = device.software_cycles(req.query);
        let software = device.queries()[req.query].software;

        let (disposition, backend, finish, attempts) = if !breaker.admits(now) {
            (
                Disposition::Shed(ShedReason::BreakerOpen),
                Backend::Software,
                now + software_cycles,
                0,
            )
        } else if inflight.len() >= policy.queue_depth {
            (Disposition::Shed(ShedReason::QueueFull), Backend::Software, now + software_cycles, 0)
        } else {
            let start = now.max(device_free);
            if start >= req.deadline {
                // The queue alone blows the deadline: don't waste
                // device time, answer late in software. The healthy
                // device is not to blame, so the breaker is untouched.
                inflight.push(req.deadline);
                (Disposition::DeadlineMissed, Backend::Software, req.deadline + software_cycles, 0)
            } else {
                // Attempt loop on the device, replayed against the
                // phase-1 cost matrix.
                let mut t = start;
                let mut attempts = 0u32;
                let mut success = None;
                let mut deadline_stop = false;
                loop {
                    attempts += 1;
                    let enc = costs[i * max_attempts as usize + (attempts as usize - 1)];
                    debug_assert_ne!(enc, COST_UNRESOLVED, "phase 1 must cover every attempt");
                    if enc != COST_FAILED {
                        success = Some(enc);
                        break;
                    }
                    t += policy.fail_cost_cycles;
                    if attempts >= max_attempts {
                        break;
                    }
                    if t >= req.deadline {
                        deadline_stop = true;
                        break;
                    }
                    t += policy.backoff_base_cycles << (attempts - 1).min(32);
                    if t >= req.deadline {
                        deadline_stop = true;
                        break;
                    }
                }
                retries += u64::from(attempts - 1);
                match success {
                    Some(cycles) if t + cycles <= req.deadline => {
                        let finish = t + cycles;
                        device_free = finish;
                        inflight.push(finish);
                        breaker.on_success();
                        (Disposition::Completed, Backend::Q100, finish, attempts)
                    }
                    Some(_) => {
                        // The run would finish past the deadline: abort
                        // it at the deadline and answer in software.
                        device_free = req.deadline;
                        inflight.push(req.deadline);
                        breaker.on_success();
                        (
                            Disposition::DeadlineMissed,
                            Backend::Software,
                            req.deadline + software_cycles,
                            attempts,
                        )
                    }
                    None => {
                        device_free = t;
                        inflight.push(t);
                        breaker.on_failure(t);
                        let disposition = if deadline_stop {
                            Disposition::DeadlineMissed
                        } else {
                            Disposition::Degraded
                        };
                        (disposition, Backend::Software, t + software_cycles, attempts)
                    }
                }
            }
        };

        match disposition {
            Disposition::Shed(ShedReason::QueueFull) => shed_queue_full += 1,
            Disposition::Shed(ShedReason::BreakerOpen) => shed_breaker += 1,
            _ => {}
        }
        if backend == Backend::Software {
            fallback.absorb(&software);
        }
        if let Some(sink) = sink.as_deref_mut() {
            sink.record(TraceEvent::ServeRequest {
                cycle: req.arrival,
                end_cycle: finish,
                tenant: req.tenant as u16,
                query: req.query as u16,
                disposition: disposition.code(),
            });
        }
        outcomes.push(RequestOutcome {
            tenant: req.tenant,
            seq: req.seq,
            query: req.query,
            arrival: req.arrival,
            finish,
            disposition,
            backend,
            attempts,
        });
    }

    // Aggregation: one pass over the outcomes feeds the per-tenant
    // counters, the latency vectors (pre-sized from the per-tenant
    // request counts), and a locally batched latency histogram merged
    // into the registry once — no per-outcome registry locking, no
    // per-tenant re-scans.
    let mut tenant_counts = vec![0usize; tenants.len()];
    for req in &requests {
        tenant_counts[req.tenant] += 1;
    }
    let mut t_shed = vec![0u64; tenants.len()];
    let mut t_completed = vec![0u64; tenants.len()];
    let mut t_degraded = vec![0u64; tenants.len()];
    let mut t_missed = vec![0u64; tenants.len()];
    let mut t_latencies: Vec<Vec<u64>> =
        tenant_counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    let mut latency_hist = registry.map(|_| Histogram::new(&DEFAULT_BOUNDS));
    for o in &outcomes {
        let latency = o.finish - o.arrival;
        t_latencies[o.tenant].push(latency);
        match o.disposition {
            Disposition::Completed => t_completed[o.tenant] += 1,
            Disposition::Shed(_) => t_shed[o.tenant] += 1,
            Disposition::Degraded => t_degraded[o.tenant] += 1,
            Disposition::DeadlineMissed => t_missed[o.tenant] += 1,
        }
        if let Some(h) = latency_hist.as_mut() {
            h.observe(latency as f64);
        }
    }

    let shed = shed_queue_full + shed_breaker;
    let completed: u64 = t_completed.iter().sum();
    let degraded: u64 = t_degraded.iter().sum();
    let deadline_missed: u64 = t_missed.iter().sum();
    let offered = outcomes.len() as u64;
    let admitted = offered - shed;

    let tenant_reports = tenants
        .iter()
        .enumerate()
        .map(|(idx, spec)| {
            let latencies = &mut t_latencies[idx];
            latencies.sort_unstable();
            TenantReport {
                name: spec.name.clone(),
                offered: latencies.len() as u64,
                admitted: latencies.len() as u64 - t_shed[idx],
                shed: t_shed[idx],
                completed: t_completed[idx],
                degraded: t_degraded[idx],
                deadline_missed: t_missed[idx],
                p50_latency_cycles: percentile(latencies, 50.0),
                p99_latency_cycles: percentile(latencies, 99.0),
            }
        })
        .collect();

    if let Some(reg) = registry {
        reg.inc("serve.offered", offered);
        reg.inc("serve.admitted", admitted);
        reg.inc("serve.shed", shed);
        reg.inc("serve.shed.queue_full", shed_queue_full);
        reg.inc("serve.shed.breaker", shed_breaker);
        reg.inc("serve.completed", completed);
        reg.inc("serve.degraded", degraded);
        reg.inc("serve.deadline_missed", deadline_missed);
        reg.inc("serve.retries", retries);
        reg.inc("serve.fallback.runs", fallback.runs);
        reg.inc("serve.breaker.opens", breaker.opens());
        reg.inc("serve.cost.attempts", cost_attempts);
        reg.inc("serve.cost.unique_classes", cost_unique_classes);
        if let Some(h) = &latency_hist {
            reg.merge_histogram("serve.latency.cycles", h);
        }
    }

    ServeReport {
        offered,
        admitted,
        shed,
        shed_queue_full,
        shed_breaker,
        completed,
        degraded,
        deadline_missed,
        retries,
        breaker_opens: breaker.opens(),
        cost_attempts,
        cost_unique_classes,
        fallback,
        tenants: tenant_reports,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 100);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
