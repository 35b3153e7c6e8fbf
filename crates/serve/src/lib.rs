//! # `q100-serve`: a deterministic query-serving layer for the Q100
//!
//! The paper evaluates one query at a time; a production deployment
//! would face a *stream* of queries from many tenants, and needs the
//! robustness machinery that sits above the simulator. This crate
//! provides it, entirely on a **virtual clock** (simulated cycles — no
//! wall time, no `Instant`), so an entire chaos run is byte-identical
//! at any `--jobs` count:
//!
//! * [`TenantSpec`] + [`generate_requests`] — a seeded multi-tenant
//!   arrival stream ([`q100_xrand`]-driven, per-tenant rates, deadlines
//!   and query mixes);
//! * [`Q100Device`] — a Q100 design with one cost entry
//!   ([`Q100Device::probe_cost`] canonicalizes a fault scenario,
//!   [`Q100Device::cost`] resolves it through a single-flight
//!   [`ServiceCostCache`](q100_core::ServiceCostCache)), its own bounded
//!   [`PlanCache`](q100_core::PlanCache), and fault-free baselines
//!   costed through the same entry;
//! * [`ServePolicy`] + [`CircuitBreaker`] — admission control / load
//!   shedding at a configurable queue depth, per-query deadlines in
//!   simulated cycles, bounded retry with exponential backoff against
//!   injected [`FaultScenario`](q100_core::FaultScenario)s, and a
//!   breaker that opens after consecutive device failures and
//!   half-opens after a cooldown;
//! * [`run_service`] — the deterministic serving loop. Queries that are
//!   shed, time out, or prove unschedulable on the degraded device
//!   **fall back to the software baseline**
//!   ([`q100_dbms::SoftwareCost`]) — the service never drops a request
//!   silently, and [`ServeReport::check_invariants`] proves it:
//!   `offered == admitted + shed` and
//!   `admitted == completed + degraded + deadline_missed`.

mod device;
mod policy;
mod service;
mod tenant;

pub use device::{CostProbe, Q100Device, ServiceQuery};
pub use policy::{BreakerState, CircuitBreaker, ServePolicy};
pub use service::{
    run_service, run_service_on, Backend, Disposition, Parallelism, RequestOutcome, Serial,
    ServeReport, ShedReason, TenantReport,
};
pub use tenant::{generate_requests, Request, TenantSpec};

/// Folds `parts` into `seed` with the same stable FNV-style mix the
/// experiment sweeps use for per-point seeds: the result depends only
/// on the values, never on worker interleaving or iteration order.
#[must_use]
pub fn mix_seed(seed: u64, parts: &[u64]) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for &v in parts {
        h ^= v.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = h.wrapping_mul(0x100_0000_01b3).rotate_left(17);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_is_stable_and_sensitive() {
        assert_eq!(mix_seed(42, &[1, 2, 3]), mix_seed(42, &[1, 2, 3]));
        assert_ne!(mix_seed(42, &[1, 2, 3]), mix_seed(42, &[1, 3, 2]));
        assert_ne!(mix_seed(42, &[1]), mix_seed(43, &[1]));
    }
}
