//! # `q100-core`: the Q100 database processing unit
//!
//! A full reimplementation of the Q100 DPU from *"Q100: The Architecture
//! and Design of a Database Processing Unit"* (Wu, Lottarini, Paine, Kim,
//! Ross — ASPLOS 2014):
//!
//! * the eleven-operator spatial-instruction [ISA](crate::isa) over
//!   streams of columns and tables,
//! * the [tile](crate::tiles) micro-models with the paper's 32 nm
//!   physical characterization (Table 1),
//! * a [functional + timing simulator](crate::exec) with NoC link and
//!   memory bandwidth constraints (Section 3.3),
//! * the three [scheduling algorithms](crate::sched) that slice query
//!   graphs into temporal instructions (Section 3.4),
//! * the [area/power/energy model](crate::power) (Tables 1 and 3).
//!
//! See [`Simulator`] for the one-call entry point and the crate-level
//! example there.

pub mod cache;
pub mod config;
pub mod error;
pub mod exec;
pub mod isa;
pub mod power;
pub mod resilience;
pub mod sched;
pub mod tiles;

pub use cache::BoundedCache;
pub use config::{Bandwidth, SchedulerKind, SimConfig, TileMix};
pub use error::{CoreError, Result};
pub use exec::report::render_report;
pub use exec::{
    execute, execute_lean, jump_enabled, set_jump_enabled, simulate_plan, BlameRecorder, BwStats,
    Catalog, ConnMatrix, Data, FunctionalRun, GraphProfile, MemoryCatalog, Observe, PlanCache,
    SimOutcome, SimScratch, Simulator, StagePlan, TimingResult, ENDPOINTS, MEMORY_ENDPOINT,
};
pub use isa::{AggOp, AluOp, CmpOp, GraphBuilder, NodeId, PortRef, QueryGraph, SpatialOp};
pub use power::DesignBudget;
pub use resilience::{
    CostKey, Derate, Fault, FaultScenario, ScenarioClass, ScenarioClassifier, ServiceCost,
    ServiceCostCache,
};
pub use sched::{check_feasible, schedule, CacheStats, Schedule, ScheduleCache, Tinst};
pub use tiles::{TileKind, TileSpec, FREQUENCY_MHZ, SORTER_BATCH};

/// Structured tracing and metrics (re-export of [`q100_trace`]): the
/// timing simulator emits [`trace::TraceEvent`]s into any
/// [`trace::TraceSink`] attached through [`Observe`], and the
/// events export to Chrome `trace_event` JSON via
/// [`trace::chrome_trace_json`].
pub use q100_trace as trace;
