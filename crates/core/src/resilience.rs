//! Fault injection and graceful degradation.
//!
//! Q100's scheduler already knows how to slice a query graph across
//! *fewer* tiles than it wants (Section 3.4) — exactly the mechanism a
//! real DPU would use to keep serving queries when tiles are binned
//! out, a NoC link degrades, or a memory channel is throttled. This
//! module layers deterministic fault injection on top of that:
//!
//! 1. [`FaultScenario::generate`] draws a fault set from a
//!    [`q100_xrand`] seed — byte-reproducible at any `--jobs` count,
//!    because each sweep point derives its own seed from stable point
//!    identity (never a shared mutable RNG).
//! 2. [`FaultScenario::apply`] turns a healthy [`SimConfig`] into a
//!    degraded one: killed instances leave the [`TileMix`], the
//!    remaining derates become a [`Derate`] attached to the config.
//! 3. The degraded configuration runs like any other: the shared
//!    [`PlanCache`] keys on the mix clamped to the query's per-kind
//!    demand, so a kill below demand reschedules, and the timing
//!    simulation runs with the derating factors active in the quantum
//!    loop. Infeasible degraded mixes surface as
//!    [`CoreError::Unschedulable`](crate::CoreError::Unschedulable) —
//!    never a panic — so sweeps report the failure and keep going.
//! 4. [`ScenarioClassifier`] collapses scenarios the simulator cannot
//!    tell apart into one [`CostKey`], so a serving layer simulates each
//!    distinct cost once ([`ServiceCostCache`]).
//!
//! An empty scenario applies to *no change at all* (`derate: None`),
//! so a fault-rate-0 run reproduces baseline cycle counts exactly.

use std::sync::Arc;

use q100_xrand::Rng;

use crate::cache::BoundedCache;
use crate::config::{SchedulerKind, SimConfig, TileMix};
use crate::error::Result;
use crate::exec::{gbps_to_bytes_per_cycle, GraphProfile, PlanCache, StagePlan};
use crate::isa::QueryGraph;
use crate::tiles::TileKind;

/// Maximum temporal-instruction slots considered for transient stalls
/// when generating a scenario (stalls drawn for slots beyond the actual
/// schedule length simply never fire).
pub const MAX_STALL_SLOTS: usize = 8;

/// One injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// One instance of `kind` is binned out of the mix entirely.
    TileKilled {
        /// The tile kind losing an instance.
        kind: TileKind,
    },
    /// Every instance of `kind` runs at a derated clock: per-quantum
    /// record throughput is multiplied by `factor` (in `(0, 1]`).
    TileDerated {
        /// The derated tile kind (shared clock domain).
        kind: TileKind,
        /// Throughput multiplier in `(0, 1]`.
        factor: f64,
    },
    /// Every NoC link's provisioned bandwidth cap is multiplied by
    /// `factor`. Under ideal (uncapped) bandwidth this fault has no
    /// effect — the model derates provisioned links only.
    NocDegraded {
        /// Bandwidth multiplier in `(0, 1]`.
        factor: f64,
    },
    /// The memory channels are throttled: provisioned read/write
    /// bandwidth caps are multiplied by the respective factors.
    MemThrottled {
        /// Read-bandwidth multiplier in `(0, 1]`.
        read_factor: f64,
        /// Write-bandwidth multiplier in `(0, 1]`.
        write_factor: f64,
    },
    /// A transient stall: temporal instruction `slot` pays `cycles`
    /// extra cycles (e.g. an ECC scrub or a tile-local retry storm).
    TinstStall {
        /// Temporal-instruction index within the schedule.
        slot: u32,
        /// Extra cycles charged to that stage.
        cycles: u64,
    },
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::TileKilled { kind } => write!(f, "kill {}", kind.spec().name),
            Fault::TileDerated { kind, factor } => {
                write!(f, "derate {} x{factor:.2}", kind.spec().name)
            }
            Fault::NocDegraded { factor } => write!(f, "noc x{factor:.2}"),
            Fault::MemThrottled { read_factor, write_factor } => {
                write!(f, "mem r x{read_factor:.2} / w x{write_factor:.2}")
            }
            Fault::TinstStall { slot, cycles } => write!(f, "stall tinst {slot} +{cycles}cyc"),
        }
    }
}

/// Derating factors the timing simulator applies inside its quantum
/// loop. Produced by [`FaultScenario::derate`]; attached to a
/// simulation via [`SimConfig::derate`].
///
/// All factors live in `(0, 1]`; a factor of exactly `1.0` is a no-op
/// (multiplication by `1.0` is exact in IEEE 754, so even an attached
/// all-ones `Derate` cannot perturb cycle counts).
#[derive(Debug, Clone, PartialEq)]
pub struct Derate {
    /// Per-tile-kind throughput multiplier, in [`TileKind`] order.
    pub tile_factor: [f64; TileKind::COUNT],
    /// Multiplier on the provisioned per-NoC-link bandwidth cap.
    pub noc_factor: f64,
    /// Multiplier on the provisioned memory read bandwidth cap.
    pub mem_read_factor: f64,
    /// Multiplier on the provisioned memory write bandwidth cap.
    pub mem_write_factor: f64,
    /// Extra stall cycles charged to each temporal instruction, indexed
    /// by stage; stages beyond the vector's length stall zero cycles.
    pub tinst_stall_cycles: Vec<u64>,
}

impl Derate {
    /// The identity derate: every factor `1.0`, no stalls.
    #[must_use]
    pub fn none() -> Self {
        Derate {
            tile_factor: [1.0; TileKind::COUNT],
            noc_factor: 1.0,
            mem_read_factor: 1.0,
            mem_write_factor: 1.0,
            tinst_stall_cycles: Vec::new(),
        }
    }

    /// Whether this derate changes nothing.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.tile_factor.iter().all(|&f| f == 1.0)
            && self.noc_factor == 1.0
            && self.mem_read_factor == 1.0
            && self.mem_write_factor == 1.0
            && self.tinst_stall_cycles.iter().all(|&c| c == 0)
    }

    /// The stall cycles charged to stage `stage` (0 beyond the vector).
    #[must_use]
    pub fn stall_cycles(&self, stage: usize) -> u64 {
        self.tinst_stall_cycles.get(stage).copied().unwrap_or(0)
    }

    /// Validates all factors are finite and in `(0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::BadConfig`] naming the bad factor.
    pub fn validate(&self) -> Result<()> {
        let named = self.tile_factor.iter().copied().map(|f| ("tile", f)).chain([
            ("noc", self.noc_factor),
            ("mem read", self.mem_read_factor),
            ("mem write", self.mem_write_factor),
        ]);
        for (what, f) in named {
            if !f.is_finite() || f <= 0.0 || f > 1.0 {
                return Err(crate::CoreError::BadConfig(format!(
                    "{what} derate factor {f} must be in (0, 1]"
                )));
            }
        }
        Ok(())
    }
}

impl Default for Derate {
    fn default() -> Self {
        Derate::none()
    }
}

/// A deterministic set of injected faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultScenario {
    /// The injected faults, in generation order.
    pub faults: Vec<Fault>,
}

impl FaultScenario {
    /// Draws a scenario from `seed` at the given per-category fault
    /// probability `rate` (clamped to `[0, 1]`), against a healthy
    /// `mix`:
    ///
    /// * each tile *instance* is killed with probability `rate / 2`;
    /// * each tile *kind* still present is frequency-derated (factor
    ///   0.50–0.95) with probability `rate`;
    /// * the NoC (factor 0.40–0.90) and the memory channels (factors
    ///   0.40–0.90) are each degraded with probability `rate`;
    /// * each of the first [`MAX_STALL_SLOTS`] temporal instructions
    ///   stalls 64–2047 extra cycles with probability `rate`.
    ///
    /// The draw order is fixed, so the same `(seed, rate, mix)` always
    /// yields the same scenario; `rate == 0.0` yields an empty one.
    #[must_use]
    pub fn generate(seed: u64, rate: f64, mix: &TileMix) -> Self {
        let mut scenario = FaultScenario::default();
        scenario.generate_into(seed, rate, mix);
        scenario
    }

    /// [`FaultScenario::generate`] into a reused scenario: clears the
    /// fault list and redraws it with the exact same draw sequence, so
    /// hot loops (one scenario per request attempt) keep one buffer
    /// alive instead of allocating per attempt.
    pub fn generate_into(&mut self, seed: u64, rate: f64, mix: &TileMix) {
        let rate = rate.clamp(0.0, 1.0);
        let mut rng = Rng::seed_from_u64(seed);
        let faults = &mut self.faults;
        faults.clear();
        for kind in TileKind::ALL {
            for _ in 0..mix.count(kind) {
                if rng.gen_bool(rate / 2.0) {
                    faults.push(Fault::TileKilled { kind });
                }
            }
        }
        for kind in TileKind::ALL {
            if mix.count(kind) > 0 && rng.gen_bool(rate) {
                let factor = 0.50 + f64::from(rng.gen_range(0u32..46)) / 100.0;
                faults.push(Fault::TileDerated { kind, factor });
            }
        }
        if rng.gen_bool(rate) {
            let factor = 0.40 + f64::from(rng.gen_range(0u32..51)) / 100.0;
            faults.push(Fault::NocDegraded { factor });
        }
        if rng.gen_bool(rate) {
            let read_factor = 0.40 + f64::from(rng.gen_range(0u32..51)) / 100.0;
            let write_factor = 0.40 + f64::from(rng.gen_range(0u32..51)) / 100.0;
            faults.push(Fault::MemThrottled { read_factor, write_factor });
        }
        for slot in 0..MAX_STALL_SLOTS {
            if rng.gen_bool(rate) {
                let cycles = rng.gen_range(64u64..2048);
                faults.push(Fault::TinstStall { slot: slot as u32, cycles });
            }
        }
    }

    /// Whether no fault was injected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The mix left after removing killed instances (counts saturate at
    /// zero; a kind driven to zero makes graphs that need it
    /// [`crate::CoreError::Unschedulable`], which callers must handle).
    #[must_use]
    pub fn degraded_mix(&self, base: &TileMix) -> TileMix {
        let mut counts = *base.counts();
        for fault in &self.faults {
            if let Fault::TileKilled { kind } = fault {
                let c = &mut counts[*kind as usize];
                *c = c.saturating_sub(1);
            }
        }
        TileMix::new(counts)
    }

    /// The derating factors of this scenario, or `None` when no
    /// derating fault (tile/NoC/memory derate or stall) was injected —
    /// kills alone degrade the mix but keep the survivors at full
    /// speed, and `None` preserves the exact fault-free timing path.
    #[must_use]
    pub fn derate(&self) -> Option<Derate> {
        let mut d = Derate::none();
        let mut any = false;
        for fault in &self.faults {
            match *fault {
                Fault::TileKilled { .. } => {}
                Fault::TileDerated { kind, factor } => {
                    d.tile_factor[kind as usize] *= factor;
                    any = true;
                }
                Fault::NocDegraded { factor } => {
                    d.noc_factor *= factor;
                    any = true;
                }
                Fault::MemThrottled { read_factor, write_factor } => {
                    d.mem_read_factor *= read_factor;
                    d.mem_write_factor *= write_factor;
                    any = true;
                }
                Fault::TinstStall { slot, cycles } => {
                    let slot = slot as usize;
                    if d.tinst_stall_cycles.len() <= slot {
                        d.tinst_stall_cycles.resize(slot + 1, 0);
                    }
                    d.tinst_stall_cycles[slot] += cycles;
                    any = true;
                }
            }
        }
        any.then_some(d)
    }

    /// The degraded configuration: `base` minus killed instances, with
    /// this scenario's [`Derate`] attached. An empty scenario returns a
    /// configuration equal to `base`.
    #[must_use]
    pub fn apply(&self, base: &SimConfig) -> SimConfig {
        let mut cfg = base.clone();
        cfg.mix = self.degraded_mix(&base.mix);
        cfg.derate = self.derate();
        cfg
    }
}

impl std::fmt::Display for FaultScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.faults.is_empty() {
            return f.write_str("no faults");
        }
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

/// The bit pattern of `1.0f64` — the "no derating" factor encoding in a
/// [`CostKey`].
fn one_bits() -> u64 {
    1.0f64.to_bits()
}

/// The cost-relevant identity of a derated simulation: the canonical
/// tile mix plus the derate factors *as the timing simulator would
/// actually feel them*, encoded as `f64` bit patterns so the key is
/// `Eq + Hash` without tolerating NaNs.
///
/// Two [`FaultScenario`]s mapping to the same `CostKey` (plus the same
/// stall set, see [`ScenarioClass`]) are guaranteed to simulate to the
/// same cycle count, so service layers can memoize cycles per key
/// instead of per scenario. Produced by [`ScenarioClassifier::classify`];
/// the base configuration with [`CostKey::mix`] and [`CostKey::derate`]
/// swapped in runs it on the canonical mix's plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostKey {
    /// The canonical tile mix: kills folded in, then clamped to the
    /// query's per-kind node demand, undemanded kinds at 0 (capacity
    /// beyond demand never changes a schedule, see
    /// [`ScenarioClassifier`]).
    pub mix: TileMix,
    /// Per-kind throughput factor bits; `1.0` for kinds the query does
    /// not use (their factor is never read by the quantum loop).
    pub tile_bits: [u64; TileKind::COUNT],
    /// NoC bandwidth factor bits; `1.0` when the cap stays slack.
    pub noc_bits: u64,
    /// Memory read bandwidth factor bits; `1.0` when slack.
    pub read_bits: u64,
    /// Memory write bandwidth factor bits; `1.0` when slack.
    pub write_bits: u64,
}

impl CostKey {
    /// The all-healthy key for `mix`: every factor exactly `1.0`.
    #[must_use]
    pub fn healthy(mix: TileMix) -> Self {
        CostKey {
            mix,
            tile_bits: [one_bits(); TileKind::COUNT],
            noc_bits: one_bits(),
            read_bits: one_bits(),
            write_bits: one_bits(),
        }
    }

    /// Whether any factor differs from `1.0`.
    #[must_use]
    pub fn is_derated(&self) -> bool {
        let one = one_bits();
        self.tile_bits.iter().any(|&b| b != one)
            || self.noc_bits != one
            || self.read_bits != one
            || self.write_bits != one
    }

    /// The [`Derate`] this key encodes — `None` when every factor is
    /// `1.0`, which keeps the exact (quantum-jump-eligible) fault-free
    /// timing path. Stall cycles are deliberately absent: they are
    /// charged arithmetically by the caller (see
    /// [`ScenarioClass::stall_extra`]), never re-simulated.
    #[must_use]
    pub fn derate(&self) -> Option<Derate> {
        if !self.is_derated() {
            return None;
        }
        let mut d = Derate::none();
        for (slot, &bits) in d.tile_factor.iter_mut().zip(&self.tile_bits) {
            *slot = f64::from_bits(bits);
        }
        d.noc_factor = f64::from_bits(self.noc_bits);
        d.mem_read_factor = f64::from_bits(self.read_bits);
        d.mem_write_factor = f64::from_bits(self.write_bits);
        Some(d)
    }
}

/// The canonical equivalence class of a [`FaultScenario`] against one
/// (design, query): the simulator-visible derate signature. Scenarios
/// with different seeds but identical signatures compare (and hash)
/// equal; any kill, derate, or stall the simulator could feel produces
/// a distinct class.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScenarioClass {
    /// The simulation-relevant key (mix + factors).
    pub key: CostKey,
    /// Per-stage stall cycles, truncated to the plan's stage count with
    /// trailing zeros trimmed (stalls beyond the schedule never fire).
    pub stalls: Vec<u64>,
    /// Whether the canonical mix can still host the query. Infeasible
    /// classes map to [`ServiceCost::Failed`] without simulating.
    pub feasible: bool,
}

impl ScenarioClass {
    /// Total extra cycles the stall set charges — stage stalls are
    /// exactly additive on the simulated total (each stage's cycle
    /// count is an independent `u64` sum), so callers add this to the
    /// stall-free cost instead of re-simulating per stall pattern.
    #[must_use]
    pub fn stall_extra(&self) -> u64 {
        self.stalls.iter().sum()
    }
}

/// The memoized cost of serving one query under one [`CostKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceCost {
    /// Device cycles of the (stall-free) simulation.
    Cycles(u64),
    /// The class cannot produce an answer (unschedulable canonical mix
    /// or a simulation error) — the caller's signal to fall back.
    Failed,
}

/// Relative slack margin when proving a derated bandwidth cap
/// invisible: the cap must clear the worst-case per-cycle demand by
/// this factor, absorbing the float roundings between the threshold
/// computation and the quantum loop's own arithmetic.
const CAP_SLACK_MARGIN: f64 = 1.0 + 1e-9;

/// Canonicalizes [`FaultScenario`]s into [`ScenarioClass`]es for one
/// query on one device configuration.
///
/// The classifier exploits four exactness properties of the timing
/// model, each keeping the class→cycles mapping *bit-identical* to a
/// fresh simulation of [`FaultScenario::apply`]'s configuration:
///
/// 1. **Stall exclusion** — per-stage stall cycles are added to the
///    total after the stage drains, with no feedback into flow rates,
///    so `cost(scenario) = cost(class sans stalls) + Σ stalls`.
/// 2. **Tile-factor masking** — the quantum loop reads
///    `tile_factor[kind]` only for kinds present in the plan; factors
///    on unused kinds are canonicalized to `1.0`.
/// 3. **Cap-slack masking** — a derated NoC/memory cap that still
///    clears the plan's worst-case per-cycle demand
///    ([`StagePlan::cap_thresholds`], with a relative margin of
///    `1e-9` for float rounding) can
///    never clamp any advance: every `min` against it is an identity
///    for the derated and the healthy cap alike, so the factor
///    canonicalizes to `1.0`. Ideal (uncapped) designs canonicalize
///    every such factor away.
/// 4. **Kill clamping** — schedulers only evaluate `used < count`
///    predicates with `used` bounded by the query's per-kind node
///    count, so capacity beyond that demand never alters a schedule;
///    the canonical mix is `min(base − kills, demand)` per kind
///    ([`TileMix::clamped_to`], the clamp the plan cache keys on too),
///    which is 0 for undemanded kinds.
///
/// The classifier holds no state beyond the query's demand and the
/// design's caps: each `classify` asks the caller's [`PlanCache`] for
/// the canonical mix's plan, whose stage count and cap thresholds the
/// class depends on. The cache is single-flight, so its counters stay
/// independent of the worker count.
#[derive(Debug)]
pub struct ScenarioClassifier {
    demand: [usize; TileKind::COUNT],
    base_mix: TileMix,
    noc_bpc: Option<f64>,
    read_bpc: Option<f64>,
    write_bpc: Option<f64>,
}

impl ScenarioClassifier {
    /// Builds a classifier for `graph` served on `base` (only the mix
    /// and bandwidth caps are read; derates on `base` are ignored —
    /// the device baseline is assumed healthy).
    #[must_use]
    pub fn new(graph: &QueryGraph, base: &SimConfig) -> Self {
        ScenarioClassifier {
            demand: graph.kind_histogram(),
            base_mix: base.mix,
            noc_bpc: base.bandwidth.noc_gbps.map(gbps_to_bytes_per_cycle),
            read_bpc: base.bandwidth.mem_read_gbps.map(gbps_to_bytes_per_cycle),
            write_bpc: base.bandwidth.mem_write_gbps.map(gbps_to_bytes_per_cycle),
        }
    }

    /// The canonical mix `scenario`'s kills leave for this query.
    fn canonical_mix(&self, scenario: &FaultScenario) -> TileMix {
        scenario.degraded_mix(&self.base_mix).clamped_to(&self.demand)
    }

    /// A derated cap factor as the quantum loop would feel it: `1.0`
    /// when the design has no cap at all, or when the derated cap still
    /// clears the plan's worst-case per-cycle demand with margin.
    fn canonical_factor(base_bpc: Option<f64>, factor: f64, threshold: f64) -> f64 {
        match base_bpc {
            None => 1.0,
            Some(bpc) if bpc * factor >= threshold * CAP_SLACK_MARGIN => 1.0,
            Some(_) => factor,
        }
    }

    /// Canonicalizes `scenario` into its [`ScenarioClass`] for this
    /// query, returned with the canonical mix's plan from `plans` (one
    /// counted lookup under `tag` and `scheduler`) — the plan that
    /// simulates the class. A scheduling error there marks the class
    /// infeasible and is returned in the plan's place.
    pub fn classify(
        &self,
        scenario: &FaultScenario,
        graph: &QueryGraph,
        profile: &GraphProfile,
        scheduler: SchedulerKind,
        plans: &PlanCache,
        tag: u64,
    ) -> (ScenarioClass, Result<Arc<StagePlan>>) {
        let mix = self.canonical_mix(scenario);
        let plan = match plans.get_or_compile(tag, scheduler, graph, &mix, profile) {
            Ok(plan) => plan,
            Err(e) => {
                // Every scenario whose kills reduce this query to the
                // same infeasible canonical mix collapses into one
                // failed class.
                let class = ScenarioClass {
                    key: CostKey::healthy(mix),
                    stalls: Vec::new(),
                    feasible: false,
                };
                return (class, Err(e));
            }
        };
        let mut key = CostKey::healthy(mix);
        let mut stalls = Vec::new();
        if let Some(d) = scenario.derate() {
            let (noc_w_max, read_w_max, write_w_max) = plan.cap_thresholds();
            for ((bits, &factor), &demand) in
                key.tile_bits.iter_mut().zip(&d.tile_factor).zip(&self.demand)
            {
                if demand > 0 {
                    *bits = factor.to_bits();
                }
            }
            key.noc_bits = Self::canonical_factor(self.noc_bpc, d.noc_factor, noc_w_max).to_bits();
            key.read_bits =
                Self::canonical_factor(self.read_bpc, d.mem_read_factor, read_w_max).to_bits();
            key.write_bits =
                Self::canonical_factor(self.write_bpc, d.mem_write_factor, write_w_max).to_bits();
            stalls.extend(d.tinst_stall_cycles.iter().take(plan.stages()));
            while stalls.last() == Some(&0) {
                stalls.pop();
            }
        }
        (ScenarioClass { key, stalls, feasible: true }, Ok(plan))
    }
}

/// A thread-safe, bounded memo of [`ServiceCost`]s keyed by *query tag
/// × [`CostKey`]* — the serving layer's twin of [`PlanCache`] (see
/// [`BoundedCache`]). Each cost is one single-flight
/// [`BoundedCache::get_or_insert_with`], so racing callers simulate a
/// fresh key once.
pub type ServiceCostCache = BoundedCache<(u64, CostKey), ServiceCost>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{FunctionalRun, MemoryCatalog, Observe, SimOutcome, SimScratch, Simulator};
    use crate::isa::CmpOp;
    use q100_columnar::{Column, Table, Value};
    use q100_trace::{RingRecorder, TraceEvent};
    use std::collections::HashMap;

    fn catalog() -> MemoryCatalog {
        let ids: Vec<i64> = (0..4096).collect();
        let vals: Vec<i64> = (0..4096).map(|i| (i * 7) % 100).collect();
        let t =
            Table::new(vec![Column::from_ints("id", ids), Column::from_ints("v", vals)]).unwrap();
        MemoryCatalog::new(vec![("t".into(), t)])
    }

    fn graph() -> crate::isa::QueryGraph {
        let mut b = QueryGraph::builder("rq");
        let id = b.col_select_base("t", "id");
        let v = b.col_select_base("t", "v");
        let pred = b.bool_gen_const(v, CmpOp::Gt, Value::Int(50));
        let fid = b.col_filter(id, pred);
        let fv = b.col_filter(v, pred);
        let _tab = b.stitch(&[fid, fv]);
        b.finish().unwrap()
    }

    #[test]
    fn zero_rate_generates_nothing_and_changes_nothing() {
        let base = SimConfig::pareto();
        let s = FaultScenario::generate(42, 0.0, &base.mix);
        assert!(s.is_empty());
        assert_eq!(s.apply(&base), base);
        assert!(s.derate().is_none());
    }

    #[test]
    fn generation_is_deterministic_in_seed_rate_and_mix() {
        let mix = TileMix::high_perf();
        let a = FaultScenario::generate(7, 0.3, &mix);
        let b = FaultScenario::generate(7, 0.3, &mix);
        assert_eq!(a, b);
        let c = FaultScenario::generate(8, 0.3, &mix);
        assert_ne!(a, c, "different seeds should differ at a 0.3 rate (66 draws)");
    }

    #[test]
    fn kills_never_underflow_and_derates_validate() {
        let mix = TileMix::low_power();
        for seed in 0..32 {
            let s = FaultScenario::generate(seed, 0.9, &mix);
            let degraded = s.degraded_mix(&mix);
            assert!(degraded.total() <= mix.total());
            if let Some(d) = s.derate() {
                d.validate().unwrap();
                assert!(!d.is_noop());
            }
        }
    }

    /// Runs `cfg` the way sweeps do: the plan from `plans` (keyed on
    /// the demand-clamped mix), then the timing kernel on that plan.
    fn run_cached(
        g: &QueryGraph,
        functional: &FunctionalRun,
        cfg: &SimConfig,
        plans: &PlanCache,
        sink: Option<&mut dyn q100_trace::TraceSink>,
    ) -> Result<SimOutcome> {
        let plan = plans.get_or_compile(0, cfg.scheduler, g, &cfg.mix, &functional.profile)?;
        let obs = Observe { sink, blame: None };
        Simulator::new(cfg).run_observed(&plan, functional, g, &mut SimScratch::new(), obs)
    }

    #[test]
    fn resilient_run_without_faults_matches_baseline_exactly() {
        let cat = catalog();
        let g = graph();
        let base = SimConfig::pareto();
        let baseline = Simulator::new(&base).run(&g, &cat).unwrap();

        let functional = crate::exec::execute(&g, &cat).unwrap();
        let plans = PlanCache::new();
        let scenario = FaultScenario::generate(42, 0.0, &base.mix);
        let cfg = scenario.apply(&base);
        let run = run_cached(&g, &functional, &cfg, &plans, None).unwrap();
        assert_eq!(run.cycles, baseline.cycles);
        assert_eq!(cfg.mix, base.mix, "no kill, no reschedule");
    }

    #[test]
    fn derated_run_is_slower_and_emits_degraded_quanta() {
        let cat = catalog();
        let g = graph();
        let base = SimConfig::pareto();
        let functional = crate::exec::execute(&g, &cat).unwrap();
        let plans = PlanCache::new();
        let baseline = Simulator::new(&base).run_profiled(&g, &functional).unwrap();

        // Hand-build a scenario: derate every tile kind and stall the
        // first stage.
        let mut faults = vec![Fault::TinstStall { slot: 0, cycles: 500 }];
        for kind in TileKind::ALL {
            faults.push(Fault::TileDerated { kind, factor: 0.5 });
        }
        let scenario = FaultScenario { faults };
        let cfg = scenario.apply(&base);
        let mut rec = RingRecorder::new();
        let run = run_cached(&g, &functional, &cfg, &plans, Some(&mut rec)).unwrap();
        assert!(
            run.cycles > baseline.cycles,
            "derated {} vs baseline {}",
            run.cycles,
            baseline.cycles
        );
        let fresh = Simulator::new(&cfg).run_profiled(&g, &functional).unwrap();
        assert_eq!(run.timing, fresh.timing, "the cached plan times like a fresh schedule");
        assert!(rec.events().iter().any(|e| matches!(e, TraceEvent::DegradedQuantum { .. })));
    }

    #[test]
    fn killed_required_kind_reports_unschedulable() {
        let cat = catalog();
        let g = graph();
        // LowPower has exactly one of each swept tile; kill enough
        // ColFilters to run out.
        let base = SimConfig::new(TileMix::uniform(1));
        let functional = crate::exec::execute(&g, &cat).unwrap();
        let plans = PlanCache::new();
        let scenario =
            FaultScenario { faults: vec![Fault::TileKilled { kind: TileKind::ColFilter }] };
        let cfg = scenario.apply(&base);
        let err = run_cached(&g, &functional, &cfg, &plans, None).unwrap_err();
        assert!(matches!(err, crate::CoreError::Unschedulable { .. }), "got {err}");
        assert!(plans.is_empty());
        // A fresh, uncached run types the failure the same way.
        let err = Simulator::new(&cfg).run_profiled(&g, &functional).unwrap_err();
        assert!(matches!(err, crate::CoreError::Unschedulable { .. }), "got {err}");
    }

    #[test]
    fn rescheduled_run_uses_degraded_mix_and_distinct_cache_entry() {
        let cat = catalog();
        let g = graph();
        let base = SimConfig::new(TileMix::uniform(2));
        let functional = crate::exec::execute(&g, &cat).unwrap();
        let plans = PlanCache::new();
        // Warm the cache with the healthy mix.
        plans
            .get_or_compile(0, SchedulerKind::DataAware, &g, &base.mix, &functional.profile)
            .unwrap();
        let scenario =
            FaultScenario { faults: vec![Fault::TileKilled { kind: TileKind::ColSelect }] };
        let cfg = scenario.apply(&base);
        assert_ne!(cfg.mix, base.mix, "a kill below demand reschedules");
        assert_eq!(cfg.mix.count(TileKind::ColSelect), 1);
        let run = run_cached(&g, &functional, &cfg, &plans, None).unwrap();
        let fresh = Simulator::new(&cfg).run_profiled(&g, &functional).unwrap();
        assert_eq!(run.timing, fresh.timing);
        assert_eq!(plans.len(), 2, "degraded mix must get its own cache entry");
    }

    /// Classifier + caches bundled for the canonicalization tests.
    struct Bench {
        g: crate::isa::QueryGraph,
        functional: FunctionalRun,
        base: SimConfig,
        plans: PlanCache,
        classifier: ScenarioClassifier,
    }

    impl Bench {
        fn new(base: SimConfig) -> Self {
            let g = graph();
            let functional = crate::exec::execute(&g, &catalog()).unwrap();
            let classifier = ScenarioClassifier::new(&g, &base);
            Bench { g, functional, base, plans: PlanCache::new(), classifier }
        }

        fn classify_with_plan(
            &self,
            scenario: &FaultScenario,
        ) -> (ScenarioClass, Result<Arc<StagePlan>>) {
            let profile = &self.functional.profile;
            let scheduler = self.base.scheduler;
            self.classifier.classify(scenario, &self.g, profile, scheduler, &self.plans, 0)
        }

        fn classify(&self, scenario: &FaultScenario) -> ScenarioClass {
            self.classify_with_plan(scenario).0
        }
    }

    #[test]
    fn infeasible_classes_leave_no_plan_behind() {
        // Killing the only ColFilter leaves no mix the query can run on.
        // The plan cache keeps no failure, so classifying the scenario
        // again schedules again, fails again, and adds nothing.
        let b = Bench::new(SimConfig::new(TileMix::uniform(1)));
        assert!(b.classify(&FaultScenario::default()).feasible);
        let plans = b.plans.len();
        let kill = FaultScenario { faults: vec![Fault::TileKilled { kind: TileKind::ColFilter }] };
        let first = b.classify(&kill);
        assert!(!first.feasible);
        assert_eq!(b.plans.len(), plans);
        assert_eq!(b.classify(&kill), first);
        assert_eq!(b.plans.len(), plans, "an infeasible mix must not occupy the plan cache");
    }

    #[test]
    fn invisible_faults_collapse_onto_the_healthy_class() {
        // The test graph demands ColSelect/BoolGen/ColFilter/Stitch
        // only; faults on tiles the query never touches cannot change
        // its timing, so they must canonicalize away.
        let b = Bench::new(SimConfig::pareto());
        let healthy = b.classify(&FaultScenario::default());
        assert!(healthy.feasible);
        assert!(healthy.stalls.is_empty());

        let invisible = FaultScenario {
            faults: vec![
                Fault::TileKilled { kind: TileKind::Sorter },
                Fault::TileKilled { kind: TileKind::Joiner },
                Fault::TileDerated { kind: TileKind::Sorter, factor: 0.5 },
                Fault::TileDerated { kind: TileKind::Partitioner, factor: 0.6 },
            ],
        };
        assert_eq!(b.classify(&invisible), healthy);

        // A stall-only scenario keeps the healthy cost key (one cached
        // simulation serves both) and carries the stalls separately.
        let stall_only = FaultScenario { faults: vec![Fault::TinstStall { slot: 0, cycles: 97 }] };
        let class = b.classify(&stall_only);
        assert_eq!(class.key, healthy.key);
        assert_eq!(class.stall_extra(), 97);
    }

    #[test]
    fn different_seeds_with_equal_signatures_collapse() {
        // Generated scenarios are seed-unique as fault lists, but many
        // share a derate signature; the classifier must collapse them.
        let b = Bench::new(SimConfig::pareto());
        let mut by_class: HashMap<ScenarioClass, FaultScenario> = HashMap::new();
        let mut collapsed = 0u32;
        for seed in 0..200u64 {
            let s = FaultScenario::generate(seed, 0.1, &b.base.mix);
            let class = b.classify(&s);
            if let Some(prev) = by_class.get(&class) {
                if *prev != s {
                    collapsed += 1;
                }
            } else {
                by_class.insert(class, s);
            }
        }
        assert!(
            collapsed > 0,
            "expected distinct scenarios sharing a class among 200 seeds \
             ({} classes seen)",
            by_class.len()
        );
    }

    #[test]
    fn visible_differences_produce_distinct_classes() {
        let b = Bench::new(SimConfig::new(TileMix::uniform(2)));
        let derated = FaultScenario {
            faults: vec![Fault::TileDerated { kind: TileKind::ColFilter, factor: 0.5 }],
        };
        let a = b.classify(&derated);
        assert!(a.feasible);

        // A different factor on a demanded tile is a different class.
        let mut other = derated.clone();
        other.faults[0] = Fault::TileDerated { kind: TileKind::ColFilter, factor: 0.51 };
        assert_ne!(b.classify(&other).key, a.key);

        // A kill that bites into the demanded capacity changes the mix.
        let mut killed = derated.clone();
        killed.faults.push(Fault::TileKilled { kind: TileKind::ColFilter });
        let k = b.classify(&killed);
        assert_ne!(k.key.mix, a.key.mix);

        // A stall on a live stage changes the class but not the cost key.
        let mut stalled = derated.clone();
        stalled.faults.push(Fault::TinstStall { slot: 0, cycles: 64 });
        let s = b.classify(&stalled);
        assert_eq!(s.key, a.key);
        assert_ne!(s, a);
    }

    #[test]
    fn cached_class_cost_reproduces_fresh_estimates() {
        // Property: for any generated scenario, simulating its canonical
        // class on the plan `classify` returns (plus the stall carry)
        // gives exactly the cycles of a fresh, uncached run of the whole
        // degraded configuration — scheduled on the unclamped degraded
        // mix — on a capped and an uncapped design, across feasible and
        // infeasible draws.
        for base in [SimConfig::new(TileMix::uniform(2)), SimConfig::pareto()] {
            let b = Bench::new(base);
            for seed in 0..48u64 {
                let scenario = FaultScenario::generate(seed, 0.35, &b.base.mix);
                let fresh =
                    Simulator::new(&scenario.apply(&b.base)).run_profiled(&b.g, &b.functional);
                let (class, plan) = b.classify_with_plan(&scenario);
                assert_eq!(class.feasible, plan.is_ok(), "seed {seed}");
                if let Ok(plan) = plan {
                    let cfg = SimConfig {
                        mix: class.key.mix,
                        derate: class.key.derate(),
                        ..b.base.clone()
                    };
                    let cycles = Simulator::new(&cfg)
                        .run_planned(&plan, &b.functional, &b.g, &mut SimScratch::new())
                        .unwrap()
                        .cycles
                        + class.stall_extra();
                    assert_eq!(
                        fresh.as_ref().unwrap().cycles,
                        cycles,
                        "seed {seed}: cached class cost diverged from a fresh run"
                    );
                } else {
                    assert!(fresh.is_err(), "seed {seed}: infeasible class but fresh run ran");
                }
            }
        }
    }
}
