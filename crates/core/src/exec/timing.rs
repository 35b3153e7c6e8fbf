//! The Q100 timing model.
//!
//! The paper's simulator is cycle-level; ours is a *fluid-flow
//! discrete-time* model that drains the exact per-edge volumes recorded
//! by the functional layer through a constrained dataflow network, in
//! fixed cycle quanta. Within one temporal instruction, producers and
//! consumers stream concurrently (pipeline parallelism); between
//! temporal instructions there is a strict barrier and intermediates
//! round-trip through memory. Three resource constraints shape the
//! flow:
//!
//! * **tile throughput** — every tile streams at one record per cycle
//!   (Table 1 widths); the sorter is a blocking 1024-record batch unit;
//! * **NoC links** — each on-chip producer→consumer edge is capped at
//!   the per-link bandwidth (6.3 GB/s in the provisioned designs);
//! * **memory bandwidth** — all memory reads share the aggregate read
//!   cap, all writes the write cap, with a 160 ns startup latency per
//!   temporal instruction.
//!
//! Each quantum also samples per-link and memory bandwidth, producing
//! the peak-bandwidth heat maps (Figures 10–12) and memory profiles
//! (Figures 14–15) of the paper.
//!
//! The network *topology* is compiled once per (query, schedule) into a
//! [`StagePlan`] (see [`crate::exec::plan`]); the simulation itself runs
//! off that immutable plan plus a caller-owned [`SimScratch`], via
//! [`simulate_plan`], with optional trace and blame observers
//! ([`Observe`]).
//!
//! The quantum loop carries an *analytic event-horizon solver*: after
//! every quantum that made progress it solves, in closed form, for how
//! many further quanta the binding-constraint set provably persists —
//! until a stream drains, a stage finishes filling or spilling, a queue
//! saturates, a memory budget phase shifts, or any clamp rebinds — and
//! advances that many quanta in one fused update that is bit-identical
//! to stepping (see [`jump_horizon`] for the segment math). A segment it
//! cannot certify still skips the solver's per-quantum work when both
//! memory budgets are pinned: the rest of the stage replays through the
//! stepping kernel with the budgets dropped. The solver handles
//! bandwidth caps, fault derating, and attached blame recorders; only a
//! trace sink forces pure stepping (jumped quanta emit no per-quantum
//! events).

use q100_trace::{BlameCause, TraceEvent, TraceSink};

use crate::config::SimConfig;
use crate::error::{CoreError, Result};
use crate::exec::blame::BlameRecorder;
use crate::exec::plan::{PlanInput, PlanNode, PlanSource, SimScratch, StagePlan, StageTopo};
use crate::isa::graph::SpatialOp;
use crate::resilience::Derate;
use crate::tiles::{memory_latency_cycles, TileKind, FREQUENCY_MHZ, SORTER_BATCH};

/// Endpoints of a communication link: the eleven tile kinds plus memory
/// (the paper's heat maps "include memory as a 'tile'").
pub const ENDPOINTS: usize = TileKind::COUNT + 1;

/// Index of the memory endpoint in connection matrices.
pub const MEMORY_ENDPOINT: usize = TileKind::COUNT;

/// Display name of an endpoint index.
#[must_use]
pub fn endpoint_name(idx: usize) -> &'static str {
    if idx == MEMORY_ENDPOINT {
        "Memory"
    } else {
        TileKind::ALL[idx].spec().name
    }
}

/// A source→destination matrix over tile kinds and memory.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnMatrix {
    cells: Vec<f64>,
}

impl ConnMatrix {
    /// An all-zero matrix.
    #[must_use]
    pub fn zero() -> Self {
        ConnMatrix { cells: vec![0.0; ENDPOINTS * ENDPOINTS] }
    }

    /// The value at (source, destination).
    #[must_use]
    pub fn get(&self, src: usize, dst: usize) -> f64 {
        self.cells[src * ENDPOINTS + dst]
    }

    /// Adds `v` at (source, destination).
    pub fn add(&mut self, src: usize, dst: usize, v: f64) {
        self.cells[src * ENDPOINTS + dst] += v;
    }

    /// Sets (source, destination) to the max of itself and `v`.
    pub fn max_in(&mut self, src: usize, dst: usize, v: f64) {
        let cell = &mut self.cells[src * ENDPOINTS + dst];
        if v > *cell {
            *cell = v;
        }
    }

    /// Merges another matrix cell-wise with `+`.
    pub fn merge_add(&mut self, other: &ConnMatrix) {
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a += b;
        }
    }

    /// Merges another matrix cell-wise with `max`.
    pub fn merge_max(&mut self, other: &ConnMatrix) {
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a = a.max(*b);
        }
    }

    /// Sum of all cells.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.cells.iter().sum()
    }
}

impl Default for ConnMatrix {
    fn default() -> Self {
        ConnMatrix::zero()
    }
}

/// Hi/lo/average bandwidth statistics over a run, in GB/s.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BwStats {
    /// Peak quantum bandwidth.
    pub hi_gbps: f64,
    /// Minimum nonzero quantum bandwidth.
    pub lo_gbps: f64,
    /// Average over the whole runtime (total bytes / total time).
    pub avg_gbps: f64,
}

/// The timing layer's result for a whole query.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingResult {
    /// End-to-end cycle count at 315 MHz.
    pub cycles: u64,
    /// Cycle count of each temporal instruction.
    pub per_tinst_cycles: Vec<u64>,
    /// Busy (actively streaming) cycles summed per tile kind.
    pub busy_cycles: [f64; TileKind::COUNT],
    /// Number of times each connection type was used across the query.
    pub connections: ConnMatrix,
    /// Peak observed bandwidth per connection type, GB/s.
    pub peak_gbps: ConnMatrix,
    /// Memory read bandwidth statistics.
    pub mem_read: BwStats,
    /// Memory write bandwidth statistics.
    pub mem_write: BwStats,
    /// Bytes spilled to memory between temporal instructions
    /// (write + re-read), excluding base-table input and final output.
    pub spill_bytes: u64,
    /// Base-table bytes read from memory.
    pub input_bytes: u64,
    /// Final result bytes written to memory.
    pub output_bytes: u64,
}

impl TimingResult {
    /// Wall-clock runtime in milliseconds at the Q100's 315 MHz clock.
    #[must_use]
    pub fn runtime_ms(&self) -> f64 {
        self.cycles as f64 / (FREQUENCY_MHZ * 1e3)
    }
}

/// Converts bytes-per-cycle into GB/s at the Q100 clock.
#[must_use]
pub fn bytes_per_cycle_to_gbps(bpc: f64) -> f64 {
    bpc * FREQUENCY_MHZ * 1e6 / 1e9
}

/// Converts a GB/s cap into bytes per cycle.
#[must_use]
pub fn gbps_to_bytes_per_cycle(gbps: f64) -> f64 {
    gbps * 1e9 / (FREQUENCY_MHZ * 1e6)
}

/// The kill switch for the quantum-jump fast path, process-wide.
/// Defaults to enabled; `--no-jump` flips it to force pure stepping on
/// every simulation path — including the derated runs `run_resilient`
/// simulates in a scratch of its own. A single run is forced to step
/// by attaching a trace sink ([`Observe::sink`]). The jump is
/// bit-identical by construction, so this only trades wall-clock time;
/// CI byte-compares both settings.
static JUMP_ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Enables or disables the quantum-jump fast path process-wide.
pub fn set_jump_enabled(enabled: bool) {
    JUMP_ENABLED.store(enabled, std::sync::atomic::Ordering::Relaxed);
}

/// Whether the quantum-jump fast path is enabled process-wide.
#[must_use]
pub fn jump_enabled() -> bool {
    JUMP_ENABLED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Per-edge backpressure window: a producer may run at most this many
/// records ahead of its slowest in-stage consumer (the tiles' stream
/// queues).
const QUEUE_RECORDS: f64 = 1024.0;

/// How a tile consumes its multiple inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ConsumeMode {
    /// All inputs advance in lockstep (filter, ALU, aggregator, ...).
    Lockstep,
    /// Inputs are consumed one after another (append; the joiner builds
    /// from the primary-key table first, then streams the foreign-key
    /// side).
    Sequential,
}

pub(crate) fn consume_mode(op: &SpatialOp) -> ConsumeMode {
    match op {
        SpatialOp::Joiner { .. } | SpatialOp::Append => ConsumeMode::Sequential,
        _ => ConsumeMode::Lockstep,
    }
}

/// Optional observers of one simulation. The default observes nothing
/// and takes the exact untraced, unattributed path: the per-quantum hot
/// loop only pays untaken branches.
#[derive(Default)]
pub struct Observe<'a> {
    /// Receives structured [`TraceEvent`]s: temporal-instruction
    /// boundaries, per-quantum tile occupancy and memory bandwidth
    /// samples, stage stream-buffer fill/spill volumes, and per-link
    /// peak-bandwidth updates. A sink forces pure stepping, since jumped
    /// quanta emit no per-quantum events.
    pub sink: Option<&'a mut (dyn TraceSink + 'a)>,
    /// Classifies every node's cycles into the exhaustive
    /// [`BlameCause`] taxonomy (see [`crate::exec::blame`]). The
    /// quantum-jump fast path stays armed and folds exactly the
    /// segments it folds without a recorder; folded quanta carry their
    /// blame along, so the ledger and the cycle counts are
    /// bit-identical to pure stepping.
    pub blame: Option<&'a mut BlameRecorder>,
}

/// The per-run constants every stage of one simulation shares.
struct StageCtx<'a> {
    plan: &'a StagePlan,
    /// Derated NoC per-link cap, bytes per cycle (`None` = ideal).
    noc_bpc: Option<f64>,
    /// Dedicated point-to-point links, exempt from the per-link cap.
    p2p: [[bool; TileKind::COUNT]; TileKind::COUNT],
    /// Derated aggregate memory read cap, bytes per cycle.
    read_bpc: Option<f64>,
    /// Derated aggregate memory write cap, bytes per cycle.
    write_bpc: Option<f64>,
    derate: Option<&'a Derate>,
}

impl<'a> StageCtx<'a> {
    fn new(plan: &'a StagePlan, config: &'a SimConfig) -> Self {
        // Resilience derating (fault injection): provisioned bandwidth
        // caps shrink by the respective factors, tiles stream slower
        // inside the quantum loop, and stages pay transient stall
        // cycles. `None` (the fault-free default) takes the exact
        // pre-resilience code path.
        let derate = config.derate.as_ref();
        let derated = |gbps: Option<f64>, factor: fn(&Derate) -> f64| {
            gbps.map(|g| gbps_to_bytes_per_cycle(g) * derate.map_or(1.0, factor))
        };
        let mut p2p = [[false; TileKind::COUNT]; TileKind::COUNT];
        for &(src, dst) in &config.p2p_links {
            p2p[src as usize][dst as usize] = true;
        }
        StageCtx {
            plan,
            noc_bpc: derated(config.bandwidth.noc_gbps, |d| d.noc_factor),
            p2p,
            read_bpc: derated(config.bandwidth.mem_read_gbps, |d| d.mem_read_factor),
            write_bpc: derated(config.bandwidth.mem_write_gbps, |d| d.mem_write_factor),
            derate,
        }
    }
}

/// Simulates a compiled plan under `config`, reusing `scratch` for all
/// mutable state (the allocation-free sweep hot path), and reports to
/// the observers in `obs`.
///
/// # Errors
///
/// Returns [`CoreError::BadConfig`] if the simulation fails to make
/// progress (which would indicate an internal modelling bug) or the
/// configuration is invalid.
pub fn simulate_plan(
    plan: &StagePlan,
    config: &SimConfig,
    scratch: &mut SimScratch,
    mut obs: Observe<'_>,
) -> Result<TimingResult> {
    config.validate()?;
    let ctx = StageCtx::new(plan, config);
    let derate = ctx.derate;

    scratch.begin_run(plan);
    if let Some(b) = obs.blame.as_deref_mut() {
        b.begin_run(plan);
    }
    let mut result = TimingResult {
        cycles: 0,
        per_tinst_cycles: Vec::with_capacity(plan.stages.len()),
        busy_cycles: [0.0; TileKind::COUNT],
        connections: plan.connections.clone(),
        peak_gbps: ConnMatrix::zero(),
        mem_read: BwStats::default(),
        mem_write: BwStats::default(),
        spill_bytes: plan.spill_bytes,
        input_bytes: plan.input_bytes,
        output_bytes: plan.output_bytes,
    };
    let mut read_samples = TraceAccum::default();
    let mut write_samples = TraceAccum::default();

    for (stage_idx, topo) in plan.stages.iter().enumerate() {
        let stage_start = result.cycles;
        let peak_before = if let Some(s) = obs.sink.as_deref_mut() {
            s.record(TraceEvent::TinstBegin {
                stage: stage_idx as u32,
                cycle: stage_start,
                nodes: topo.nodes.len() as u32,
            });
            s.record(TraceEvent::StageMem {
                stage: stage_idx as u32,
                cycle: stage_start,
                fill_bytes: topo.fill_bytes,
                spill_bytes: topo.spill_bytes,
            });
            Some(result.peak_gbps.clone())
        } else {
            None
        };
        let stage_cycles = run_stage(
            &ctx,
            stage_idx,
            scratch,
            &mut result,
            &mut read_samples,
            &mut write_samples,
            &mut obs,
        )?;
        // Transient per-tinst stalls (resilience layer) are charged like
        // an extended memory startup latency.
        let stall = derate.map_or(0, |d| d.stall_cycles(stage_idx));
        let cycles = stage_cycles + memory_latency_cycles() + stall;
        result.per_tinst_cycles.push(cycles);
        result.cycles += cycles;
        if let Some(b) = obs.blame.as_deref_mut() {
            b.end_stage(stage_idx, cycles, memory_latency_cycles(), stall);
        }
        if let Some(s) = obs.sink.as_deref_mut() {
            let end = result.cycles;
            if let Some(before) = peak_before {
                for src in 0..ENDPOINTS {
                    for dst in 0..ENDPOINTS {
                        let now = result.peak_gbps.get(src, dst);
                        if now > before.get(src, dst) {
                            s.record(TraceEvent::LinkPeak {
                                stage: stage_idx as u32,
                                cycle: end,
                                src: src as u16,
                                dst: dst as u16,
                                gbps: now,
                            });
                        }
                    }
                }
            }
            s.record(TraceEvent::TinstEnd { stage: stage_idx as u32, cycle: end });
        }
    }

    result.mem_read = read_samples.stats(result.cycles);
    result.mem_write = write_samples.stats(result.cycles);
    Ok(result)
}

/// Accumulates per-quantum bandwidth samples.
#[derive(Debug, Default)]
struct TraceAccum {
    total_bytes: f64,
    hi_bpc: f64,
    lo_bpc: f64,
    any: bool,
}

impl TraceAccum {
    fn sample(&mut self, bytes: f64, dt: f64) {
        self.total_bytes += bytes;
        if bytes > 0.0 {
            let bpc = bytes / dt;
            self.hi_bpc = self.hi_bpc.max(bpc);
            self.lo_bpc = if self.any { self.lo_bpc.min(bpc) } else { bpc };
            self.any = true;
        }
    }

    fn stats(&self, total_cycles: u64) -> BwStats {
        BwStats {
            hi_gbps: bytes_per_cycle_to_gbps(self.hi_bpc),
            lo_gbps: bytes_per_cycle_to_gbps(self.lo_bpc),
            avg_gbps: if total_cycles == 0 {
                0.0
            } else {
                bytes_per_cycle_to_gbps(self.total_bytes / total_cycles as f64)
            },
        }
    }
}

/// Runs temporal instruction `stage_idx` of the plan to completion;
/// returns its cycle count (excluding the memory startup latency).
fn run_stage(
    ctx: &StageCtx<'_>,
    stage_idx: usize,
    scratch: &mut SimScratch,
    result: &mut TimingResult,
    read_samples: &mut TraceAccum,
    write_samples: &mut TraceAccum,
    obs: &mut Observe<'_>,
) -> Result<u64> {
    let StageCtx { plan, noc_bpc, ref p2p, read_bpc, write_bpc, derate } = *ctx;
    let topo: &StageTopo = &plan.stages[stage_idx];
    let Observe { sink, blame } = obs;
    let base_cycle = result.cycles;
    let stage_idx = stage_idx as u32;
    // Quantum: fine enough to resolve bandwidth peaks, coarse enough to
    // finish large volumes in a bounded number of steps (precomputed at
    // plan compile time from the stage's largest stream).
    let dt = topo.dt;
    let streams = topo.streams;
    // The event-horizon solver handles bandwidth caps, derates and
    // blame recorders (their per-quantum effects are constant within a
    // closed-form segment, or replayed); only a trace sink forces pure
    // stepping, since jumped quanta emit no per-quantum events.
    let jump_ok = jump_enabled() && sink.is_none();
    if let Some(b) = blame.as_deref_mut() {
        b.begin_stage(stage_idx as usize);
    }

    {
        // Per-(stage, run) reset, hoisted per-node/per-stream rates, the
        // unfinished-stream counts, and the availability cache seeded
        // from the empty progress vector.
        let SimScratch {
            done,
            allowed,
            adv0,
            noc_in,
            noc_out,
            out_capped,
            node_open,
            retired,
            open_streams,
            peak_adv,
            ..
        } = &mut *scratch;
        done[..streams].fill(0.0);
        peak_adv[..streams].fill(0.0);
        *open_streams = 0;
        for (idx, node) in topo.nodes.iter().enumerate() {
            let dst = node.kind as usize;
            adv0[idx] = dt * derate.map_or(1.0, |d| d.tile_factor[dst]);
            let open = node.inputs.iter().filter(|i| i.records > 0.0).count()
                + node.outputs.iter().filter(|o| o.records > 0.0).count();
            node_open[idx] = open as u32;
            *open_streams += open;
            retired[idx] = false;
            for (port, output) in node.outputs.iter().enumerate() {
                allowed[output.sid] = out_available(node, port, done);
            }
            for input in &node.inputs {
                let mut cap = f64::INFINITY;
                if let PlanSource::InStage { src_kind, .. } = input.source {
                    if let Some(bpc) = noc_bpc {
                        if input.width > 0.0 && !p2p[src_kind as usize][dst] {
                            cap = bpc * dt / input.width;
                        }
                    }
                }
                noc_in[input.sid] = cap;
            }
            for output in &node.outputs {
                let mut capped = false;
                if let Some(bpc) = noc_bpc {
                    let any_capped = output
                        .consumers
                        .iter()
                        .any(|&(c, _)| !p2p[dst][topo.nodes[c].kind as usize]);
                    if any_capped && output.width > 0.0 {
                        noc_out[output.sid] = bpc * dt / output.width;
                        capped = true;
                    }
                }
                out_capped[output.sid] = capped;
            }
        }
    }

    let mut cycles = 0.0_f64;
    let mut stalls = 0u32;
    let mut busy_scratch = [0u16; TileKind::COUNT];
    // Deterministic solver-attempt throttle: after a quantum where the
    // horizon certifies nothing (or the fold declines), skip the next
    // `jump_backoff` attempts and double the window, resetting on any
    // successful fold. Phases that never certify (derated drains under
    // unpinned budgets) then pay the horizon on ~1/64th of their
    // quanta instead of every one. Folds are bit-exact, so *which*
    // quanta get attempted cannot change results — the throttle is
    // per-stage local state, identical at any `--jobs`.
    let mut jump_cooldown = 0u64;
    let mut jump_backoff = 1u64;
    const JUMP_BACKOFF_CAP: u64 = 64;

    loop {
        let unfinished = scratch.open_streams > 0;
        debug_assert_eq!(unfinished, stage_unfinished(topo, &scratch.done));
        if !unfinished {
            break;
        }
        let busy = if sink.is_some() {
            busy_scratch = [0; TileKind::COUNT];
            Some(&mut busy_scratch)
        } else {
            None
        };
        if let Some(b) = blame.as_deref_mut() {
            b.begin_quantum();
        }
        for d in scratch.deltas[..streams].iter_mut() {
            *d = 0.0;
        }
        let stepped = step(
            topo,
            dt,
            read_bpc,
            write_bpc,
            scratch,
            result,
            read_samples,
            write_samples,
            busy,
            blame.as_deref_mut(),
        );
        scratch.stepped_quanta += 1;
        if let Some(s) = sink.as_deref_mut() {
            let cycle = base_cycle + cycles as u64;
            if derate.is_some() {
                s.record(TraceEvent::DegradedQuantum { stage: stage_idx, cycle, dt: dt as u32 });
            }
            for (kind, &busy) in busy_scratch.iter().enumerate() {
                if busy > 0 {
                    s.record(TraceEvent::TileBusy {
                        tile: kind as u16,
                        cycle,
                        dt: dt as u32,
                        busy,
                    });
                }
            }
            if stepped.read_bytes > 0.0 || stepped.write_bytes > 0.0 {
                s.record(TraceEvent::MemSample {
                    cycle,
                    dt: dt as u32,
                    read_bytes: stepped.read_bytes,
                    write_bytes: stepped.write_bytes,
                });
            }
            // Blame counter tracks: per-quantum blamed cycles per
            // cause, visible in chrome://tracing when both a sink and
            // a recorder are attached.
            if let Some(b) = blame.as_deref() {
                for (cause, &v) in b.quantum_causes().iter().enumerate() {
                    if v > 0.0 {
                        s.record(TraceEvent::BlameSample {
                            stage: stage_idx,
                            cycle,
                            dt: dt as u32,
                            cause: cause as u16,
                            cycles: v,
                        });
                    }
                }
            }
        }
        let progress = stepped.moved;
        cycles += dt;
        if progress <= f64::EPSILON {
            stalls += 1;
            if stalls > 8 {
                return Err(CoreError::BadConfig(
                    "timing simulation deadlocked (internal model error)".into(),
                ));
            }
        } else {
            stalls = 0;
            if jump_ok {
                if jump_cooldown > 0 {
                    jump_cooldown -= 1;
                } else {
                    let q = match jump_horizon(topo, scratch, dt, read_bpc, write_bpc, &stepped) {
                        Some(fold) => fold_jump(
                            topo,
                            scratch,
                            fold,
                            dt,
                            (read_bpc, write_bpc),
                            &stepped,
                            result,
                            read_samples,
                            write_samples,
                            blame.as_deref_mut(),
                        ),
                        None => 0,
                    };
                    if q >= 1 {
                        cycles += q as f64 * dt;
                        jump_backoff = 1;
                    } else {
                        jump_cooldown = jump_backoff;
                        jump_backoff = (jump_backoff * 2).min(JUMP_BACKOFF_CAP);
                    }
                }
            }
        }
    }
    convert_link_peaks(topo, dt, &scratch.peak_adv, &mut result.peak_gbps);
    Ok(cycles.round() as u64)
}

/// Folds the stage's per-stream largest single-quantum advances into
/// the peak link bandwidth cells, once per stage. Exact: `fl(r·w)`,
/// `/dt` and the GB/s conversion are monotone in `r`, so converting the
/// largest advance gives the largest of the per-quantum conversions.
fn convert_link_peaks(topo: &StageTopo, dt: f64, peak_adv: &[f64], peak_gbps: &mut ConnMatrix) {
    let gbps = |records: f64, width: f64| bytes_per_cycle_to_gbps(records * width / dt);
    for node in &topo.nodes {
        let dst = node.kind as usize;
        for input in &node.inputs {
            let peak = peak_adv[input.sid];
            if peak > 0.0 {
                let src = match input.source {
                    PlanSource::Memory => MEMORY_ENDPOINT,
                    PlanSource::InStage { src_kind, .. } => src_kind as usize,
                };
                peak_gbps.max_in(src, dst, gbps(peak, input.width));
            }
        }
        for output in &node.outputs {
            let peak = peak_adv[output.sid];
            if peak <= 0.0 {
                continue;
            }
            let v = gbps(peak, output.width);
            if output.to_memory {
                peak_gbps.max_in(dst, MEMORY_ENDPOINT, v);
            }
            // One link per consumer; each sees the full stream.
            for &(c, _) in &output.consumers {
                peak_gbps.max_in(dst, topo.nodes[c].kind as usize, v);
            }
        }
    }
}

/// Advances one stream's progress counter by `k` quanta of `d` records,
/// bit-identical to `k` sequential `done += d` additions. Streams are
/// independent (each stream id receives exactly one addition per
/// quantum), so per-stream folding preserves the stepped accumulation
/// order. Integral counters far below 2^53 fold with one exact
/// multiply; anything else replays the additions (`k` is bounded by the
/// quantum sizing to ~8192, so the replay stays far cheaper than
/// re-running the constraint passes).
fn fold_stream(done: &mut f64, d: f64, k: u64) {
    if d == 0.0 {
        return;
    }
    if d.fract() == 0.0 && done.fract() == 0.0 {
        *done += k as f64 * d;
    } else {
        for _ in 0..k {
            *done += d;
        }
    }
}

/// The two fold shapes [`jump_horizon`] chooses between for the segment
/// after a stepped quantum.
#[derive(Debug, Clone, Copy)]
enum Fold {
    /// Every node is certified constant for `k` quanta: the stepped
    /// quantum repeats `k` times in closed form.
    Closed(u64),
    /// Both memory budgets are pinned: up to this many quanta run
    /// through [`step`] with them dropped.
    Replay(u64),
}

/// Advances the stage by the segment [`jump_horizon`] certified,
/// bit-identical to stepping it; returns the number of quanta folded.
///
/// * [`Fold::Closed`] repeats the stepped quantum's per-stream deltas
///   `k` times: [`fold_stream`] folds integral counters with one exact
///   multiply and replays the additions otherwise, the byte totals are
///   re-added once per quantum, busy cycles are charged `k·dt` per
///   moving node, and the blame recorder re-adds each node's captured
///   per-cause amounts ([`BlameRecorder::fold_quantum`]). Per-stream
///   peak advances are maxima, so repeats leave them unchanged.
///   Afterwards the nodes' cached availability is refreshed. The
///   horizon's completion monitor keeps every stream short of its
///   total, so no fold quantum finishes one.
/// * [`Fold::Replay`] runs [`step`] itself with both budgets passed as
///   `None`. The pin guarantees demand stays below each budget, where
///   the shared factor recomputes to exactly 1.0 — which is also what
///   a missing budget yields — so every replayed quantum *is* the
///   stepped one, blame hooks included, and any replay length is
///   exact. It stops after its length, when the stage finishes, or
///   after a quantum that stalls, leaving the stepping loop to count
///   (and report) a deadlock.
///
/// The fold never starts a quantum of a finished stage, so it records
/// nothing stepping would not.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn fold_jump(
    topo: &StageTopo,
    scratch: &mut SimScratch,
    fold: Fold,
    dt: f64,
    (read_bpc, write_bpc): (Option<f64>, Option<f64>),
    stepped: &StepStats,
    result: &mut TimingResult,
    read_samples: &mut TraceAccum,
    write_samples: &mut TraceAccum,
    mut blame: Option<&mut BlameRecorder>,
) -> u64 {
    let folded = match fold {
        Fold::Closed(k) => {
            let kf = k as f64;
            for node in &topo.nodes {
                let mut m = 0.0_f64;
                for input in &node.inputs {
                    let d = scratch.deltas[input.sid];
                    fold_stream(&mut scratch.done[input.sid], d, k);
                    debug_assert!(d == 0.0 || scratch.done[input.sid] < input.records);
                    m += d;
                }
                for output in &node.outputs {
                    let d = scratch.deltas[output.sid];
                    fold_stream(&mut scratch.done[output.sid], d, k);
                    debug_assert!(d == 0.0 || scratch.done[output.sid] < output.records);
                    m += d;
                }
                if m > 0.0 {
                    result.busy_cycles[node.kind as usize] += kf * dt;
                }
            }
            refresh_constant_allowed(topo, scratch);
            if stepped.read_bytes > 0.0 {
                for _ in 0..k {
                    read_samples.total_bytes += stepped.read_bytes;
                }
            }
            if stepped.write_bytes > 0.0 {
                for _ in 0..k {
                    write_samples.total_bytes += stepped.write_bytes;
                }
            }
            if let Some(b) = blame {
                b.fold_quantum(k);
            }
            k
        }
        Fold::Replay(len) => {
            let retired_before = scratch.retired_node_quanta;
            let mut folded = 0_u64;
            // The blame recorder's per-quantum captures are read only
            // after a stepped quantum, which resets them first.
            while folded < len && scratch.open_streams > 0 {
                let s = step(
                    topo,
                    dt,
                    None,
                    None,
                    scratch,
                    result,
                    read_samples,
                    write_samples,
                    None,
                    blame.as_deref_mut(),
                );
                debug_assert!(
                    factor(s.read_demand, read_bpc.map(|b| b * dt)) == 1.0
                        && factor(s.write_demand, write_bpc.map(|b| b * dt)) == 1.0,
                    "a replayed quantum's memory demand exceeded a pinned budget"
                );
                folded += 1;
                // The stepping loop's stall test: it counts (and
                // reports) a deadlock.
                if s.moved <= f64::EPSILON {
                    break;
                }
            }
            let retired = scratch.retired_node_quanta - retired_before;
            scratch.replayed_node_quanta += folded * topo.nodes.len() as u64 - retired;
            folded
        }
    };
    if folded > 0 {
        scratch.jumped_quanta += folded;
        scratch.jumps += 1;
    }
    folded
}

/// Re-caches every unretired node's availability after a closed-form
/// fold: their inputs moved without a pass 2 to refresh `allowed`,
/// which the next pass 1 reads. Retired nodes' availability cannot
/// change.
fn refresh_constant_allowed(topo: &StageTopo, scratch: &mut SimScratch) {
    let SimScratch { done, allowed, retired, .. } = scratch;
    for (idx, node) in topo.nodes.iter().enumerate() {
        if !retired[idx] {
            for (port, output) in node.outputs.iter().enumerate() {
                allowed[output.sid] = out_available(node, port, done);
            }
        }
    }
}

/// Upper bound on quanta folded per jump: keeps one fold from
/// monopolizing the stepping loop's bookkeeping; the next stepped
/// quantum simply re-certifies.
const JUMP_CAP: u64 = 1 << 20;

/// Immutable view of the per-quantum state the horizon monitors read.
struct HorizonView<'a> {
    done: &'a [f64],
    delta: &'a [f64],
    allowed: &'a [f64],
    adv0: &'a [f64],
    noc_out: &'a [f64],
    out_capped: &'a [bool],
    desired: &'a [f64],
    dt: f64,
    margin: f64,
    write_factor: f64,
}

/// The analytic event-horizon solver: which [`Fold`] the segment after
/// the quantum just stepped takes (`None` = don't jump), computed in
/// closed form from that quantum.
///
/// The per-quantum step is piecewise-affine in the progress vector:
/// every `min`/`max` clamp in [`desired_advance`] / [`apply_advance`] /
/// [`memory_demand`] is a kink, and between kinks every quantum repeats
/// the same per-stream additions exactly. The segment folds in closed
/// form when every node of the stage is **constant**: every clamp
/// operand it recomputes is either *exactly constant* (bit-identical
/// recomputation — NoC caps, derated tile rates, budget factors over
/// constant demand) or *drifts affinely while staying strictly clear of
/// the binding level* (so the `min` result is unchanged), and every
/// moving output port advances by exact integer arithmetic. The
/// monitors below bound the quanta until an operand could cross, with a
/// safety margin `M = 2·dt + 2` records so boundary roundoff can never
/// flip a comparison inside the horizon; the horizon is the smallest
/// node bound.
///
/// A node is not constant when an output port binds its apply or demand
/// cap without advancing exactly in step with its availability, or
/// moves with non-integral progress (the stepped apply computes
/// `produced = fl(fl(done + cap) − done)`, which varies by ULPs as
/// `done` grows), or when a monitor cannot certify it for one quantum.
/// The segment is then **replayed** through [`step`] whenever both
/// shared memory budgets are *pinned* ([`budgets_pinned`]), and the
/// jump is refused otherwise. The pin makes any replay length exact;
/// the replay ends where the smallest bound of the certified nodes
/// does (the rest of the stage, up to [`JUMP_CAP`], when none
/// certifies), so that the closed form can take over again once the
/// other nodes settle.
///
/// Monitors:
///
/// 1. **completion** — an advancing stream must stay `M` short of its
///    total, so `remaining`-clamps, finished-flags, memory-demand
///    gates, and blame phase flags cannot trip;
/// 2. **producer gap** — an in-stage consumer's availability window
///    (`done_src − done_in`) must stay clear of the margin unless it is
///    exactly constant;
/// 3. **sorter batch** — a filling sorter must not cross its next
///    1024-record batch boundary (availability is a step function);
/// 4. **apply / demand target** — `produced = min(allowed, done + c,
///    records) − done` must keep the same branch for every cap `c` the
///    step consults: the apply-side streaming cap (`adv0`, scaled by
///    the write-budget factor on memory-bound ports) and the
///    demand-side cap (`dt`, [`memory_demand`]'s write estimate).
///    Either `allowed` stays ≥ 1 record clear above `done + c`, or it
///    is binding and drifts at exactly the output's rate;
/// 5. **desired backpressure** — the `out_cap/ratio` terms (buffer
///    slack over the effective streaming base — `min(dt, noc_out)` on
///    NoC-capped ports — and consumer queue headroom) must stay
///    strictly above the node's pass-1 desired advance `A` (plus one
///    record), or be exactly constant/synchronous.
///
/// `A` is the stepped quantum's final pass-1 `desired` (not the applied
/// delta): under a read-budget factor the applied advance is smaller
/// than what the desired-side clamps compete against, and any drifting
/// operand must stay above the *final min value* for that min to keep
/// recomputing to the same result.
///
/// Nothing here reads the observers: a blame recorder folds along
/// (re-adding its captured amounts, or re-recording under replay), so
/// attaching one never changes which segments fold.
#[inline(never)]
fn jump_horizon(
    topo: &StageTopo,
    scratch: &SimScratch,
    dt: f64,
    read_bpc: Option<f64>,
    write_bpc: Option<f64>,
    stepped: &StepStats,
) -> Option<Fold> {
    let SimScratch { done, deltas, allowed, adv0, noc_out, out_capped, desired, .. } = scratch;
    let delta = &deltas[..];
    // Classification: a node whose unfinished output port binds its
    // apply or demand cap without advancing exactly in step with its
    // availability, or moves with non-integral progress, cannot repeat
    // a constant delta.
    let not_constant = |idx: usize, node: &PlanNode| {
        node.outputs.iter().enumerate().any(|(port, output)| {
            let sid = output.sid;
            if done[sid] >= output.records {
                return false;
            }
            let apply_cap =
                if output.to_memory { adv0[idx] * stepped.write_factor } else { adv0[idx] };
            let caps = [Some(apply_cap), output.to_memory.then_some(dt)];
            let binding =
                caps.into_iter().flatten().any(|cap| allowed[sid] - done[sid] - cap < 1.0);
            let mut sink_k = f64::INFINITY;
            let (da, exact) = allowed_drift(node, port, done, delta, &mut sink_k);
            let synchronous = da - delta[sid] == 0.0 && exact;
            let fractional =
                delta[sid] != 0.0 && !(done[sid].fract() == 0.0 && delta[sid].fract() == 0.0);
            (binding && !synchronous) || fractional
        })
    };

    let view = HorizonView {
        done,
        delta,
        allowed,
        adv0,
        noc_out,
        out_capped,
        desired,
        dt,
        margin: 2.0 * dt + 2.0,
        write_factor: stepped.write_factor,
    };
    let mut k = f64::INFINITY;
    let mut closed = true;
    for (idx, node) in topo.nodes.iter().enumerate() {
        let b = if not_constant(idx, node) { 0.0 } else { node_bound(topo, idx, &view) };
        if b < 1.0 {
            closed = false;
        } else {
            k = k.min(b);
        }
    }
    // `as` saturates, so an unbounded `k` replays up to the cap.
    let len = (k as u64).min(JUMP_CAP);
    if closed {
        // Unbounded means no stream advances — refuse defensively.
        return k.is_finite().then_some(Fold::Closed(len));
    }
    budgets_pinned(topo, done, dt, read_bpc, write_bpc).then_some(Fold::Replay(len))
}

/// Whether both shared memory budgets are *pinned* for the rest of the
/// stage: ceilings over every unfinished memory-touching stream moving
/// a full quantum stay a record below each budget, so each budget
/// factor recomputes to exactly 1.0. The ceilings are monotone
/// decreasing as streams finish, so a pin certified here holds until
/// the stage ends.
fn budgets_pinned(
    topo: &StageTopo,
    done: &[f64],
    dt: f64,
    read_bpc: Option<f64>,
    write_bpc: Option<f64>,
) -> bool {
    if read_bpc.is_none() && write_bpc.is_none() {
        return true;
    }
    let mut read_ceiling = 0.0_f64;
    let mut write_ceiling = 0.0_f64;
    for node in &topo.nodes {
        for input in &node.inputs {
            if matches!(input.source, PlanSource::Memory) && done[input.sid] < input.records {
                read_ceiling += dt * input.width;
            }
        }
        for output in &node.outputs {
            if output.to_memory && done[output.sid] < output.records {
                write_ceiling += dt * output.width;
            }
        }
    }
    let pinned = |bpc: Option<f64>, ceiling: f64| bpc.is_none_or(|b| ceiling + 1.0 <= b * dt);
    pinned(write_bpc, write_ceiling) && pinned(read_bpc, read_ceiling)
}

/// The horizon bound for one node: how many quanta monitors (1)–(5)
/// certify its recomputation stays bit-identical (see
/// [`jump_horizon`]); `< 1.0` means it cannot be certified at all.
#[inline(never)]
fn node_bound(topo: &StageTopo, idx: usize, v: &HorizonView) -> f64 {
    let node = &topo.nodes[idx];
    let (done, delta, allowed) = (v.done, v.delta, v.allowed);
    let (dt, margin) = (v.dt, v.margin);
    let mut k = f64::INFINITY;

    // (1) completion.
    for input in &node.inputs {
        let d = delta[input.sid];
        if d > 0.0 {
            k = k.min(((input.records - done[input.sid] - margin) / d).floor());
        }
    }
    for output in &node.outputs {
        let d = delta[output.sid];
        if d > 0.0 {
            k = k.min(((output.records - done[output.sid] - margin) / d).floor());
        }
    }

    // (3) sorter batch boundary.
    if node.is_sorter {
        if let Some(input0) = node.inputs.first() {
            let d0 = done[input0.sid];
            let dl = delta[input0.sid];
            if d0 < input0.records && dl > 0.0 {
                let batch = SORTER_BATCH as f64;
                let next = (d0 / batch).floor() * batch + batch;
                k = k.min(((next - 1.0 - d0) / dl).floor());
            }
        }
    }
    if k < 1.0 {
        return 0.0;
    }

    // (2) producer gap, on the inputs the consume mode actually reads
    // this quantum (lockstep: all unfinished; sequential: the active
    // slot — (1) keeps it active across the horizon).
    let gap_bound = |input: &PlanInput, k: f64| -> f64 {
        let PlanSource::InStage { src_sid, .. } = input.source else {
            return k;
        };
        let drift = delta[src_sid] - delta[input.sid];
        if drift == 0.0 {
            // Constant gap: the same clamp value recomputes.
            return k;
        }
        let gap = done[src_sid] - done[input.sid];
        if gap <= margin {
            return 0.0;
        }
        if drift < 0.0 {
            return k.min(((gap - margin) / -drift).floor());
        }
        // Widening gap already clear of the margin: stays clear.
        k
    };
    match node.mode {
        ConsumeMode::Lockstep => {
            for input in &node.inputs {
                if done[input.sid] < input.records {
                    k = gap_bound(input, k);
                }
            }
        }
        ConsumeMode::Sequential => {
            if let Some(input) = node.inputs.iter().find(|i| done[i.sid] < i.records) {
                k = gap_bound(input, k);
            }
        }
    }
    if k < 1.0 {
        return 0.0;
    }

    // (4) apply / demand caps and (5) desired-side caps. The streaming
    // base of the buffer-slack term is `min(dt, noc_out)` on NoC-capped
    // ports (the two clamp operands share the `+slack` addend, so their
    // min reduces to the min of the bases).
    let a = v.desired[idx].max(0.0);
    for (port, output) in node.outputs.iter().enumerate() {
        let sid = output.sid;
        let d_out = delta[sid];
        let (da, exact) = allowed_drift(node, port, done, delta, &mut k);
        if k < 1.0 {
            return 0.0;
        }
        let d = da - d_out;

        if done[sid] < output.records {
            let apply_cap =
                if output.to_memory { v.adv0[idx] * v.write_factor } else { v.adv0[idx] };
            let caps = [Some(apply_cap), output.to_memory.then_some(dt)];
            for cap in caps.into_iter().flatten() {
                let slack_b = allowed[sid] - done[sid] - cap;
                if slack_b >= 1.0 && d < -1e-9 {
                    k = k.min(((slack_b - 1.0) / -d).floor());
                }
                // Binding caps were resolved by the classification
                // (synchronous, or the segment is not constant).
            }
        }

        if output.records <= 0.0 || output.ratio <= 0.0 {
            continue;
        }
        let eff = if v.out_capped[sid] { dt.min(v.noc_out[sid]) } else { dt };
        let slack_a = allowed[sid] - done[sid];
        let t_a = (eff + slack_a.max(0.0)) / output.ratio;
        let clear = a + 1.0;
        if t_a <= clear {
            if !(d == 0.0 && exact) {
                return 0.0;
            }
        } else if slack_a > 0.0 && d < -1e-9 {
            k = k.min(((t_a - clear) / (-d / output.ratio)).floor());
        }

        for &(_, cons_sid) in &output.consumers {
            let dh = delta[cons_sid] - d_out;
            if dh == 0.0 {
                // Constant headroom recomputes identically.
                continue;
            }
            let h = done[cons_sid] + QUEUE_RECORDS - done[sid];
            if h > 0.0 {
                let t_h = (h + dt) / output.ratio;
                if t_h <= a + 1.0 {
                    return 0.0;
                }
                if dh < 0.0 {
                    k = k.min(((t_h - a - 1.0) / (-dh / output.ratio)).floor());
                    // Also stay on this side of the max(0) kink.
                    k = k.min(((h - 1.0) / -dh).floor());
                }
            } else if dh > 0.0 {
                // Saturated queue (cap = dt): keep it saturated.
                k = k.min((-h / dh).floor());
            }
        }
        if k < 1.0 {
            return 0.0;
        }
    }
    k.max(0.0)
}

/// Per-quantum drift of one output port's availability
/// ([`out_available`]) under the current rates, and whether that drift
/// is *exact* (an integer, so "binding and perfectly synchronous" can
/// be trusted). For the sequential-append form (`in_done.min(records)`)
/// the affine region is additionally enforced through `k`.
fn allowed_drift(
    node: &PlanNode,
    port: usize,
    done: &[f64],
    delta: &[f64],
    k: &mut f64,
) -> (f64, bool) {
    let output = &node.outputs[port];
    if node.in_total <= 0.0 || node.is_sorter {
        // Constant `records`, or a batch plateau ((3) pins the horizon
        // inside one batch).
        return (0.0, true);
    }
    match node.mode {
        ConsumeMode::Lockstep => {
            let i0 = &node.inputs[0];
            let d0 = delta[i0.sid];
            if done[i0.sid] >= i0.records || i0.records <= 0.0 || d0 == 0.0 {
                (0.0, true)
            } else {
                // min(frac, 1) stays on the linear branch: (1) keeps
                // done0 a margin below records0.
                (output.records * d0 / i0.records_max1, false)
            }
        }
        ConsumeMode::Sequential => {
            if node.inputs.len() == 2 && output.width > 0.0 && node.kind == TileKind::Joiner {
                let i1 = &node.inputs[1];
                let d1 = delta[i1.sid];
                if done[i1.sid] >= i1.records || i1.records <= 0.0 || d1 == 0.0 {
                    (0.0, true)
                } else {
                    (output.records * d1 / i1.records_max1, false)
                }
            } else {
                let in_done: f64 = node.inputs.iter().map(|i| done[i.sid]).sum();
                if in_done >= output.records {
                    return (0.0, true);
                }
                let drift: f64 = node.inputs.iter().map(|i| delta[i.sid]).sum();
                if drift > 0.0 {
                    // Stay where min(in_done, records) picks in_done.
                    *k = k.min(((output.records - 1.0 - in_done) / drift).floor());
                }
                // The availability sum only advances bit-exactly when
                // every operand is an integer (f64 adds of integers
                // below 2^53 are exact); fractional progress makes the
                // sum's first differences wobble at ulp scale, which
                // a replay absorbs but a closed-form fold must not
                // claim.
                let exact = drift == 0.0
                    || node
                        .inputs
                        .iter()
                        .all(|i| done[i.sid].fract() == 0.0 && delta[i.sid].fract() == 0.0);
                (drift, exact)
            }
        }
    }
}

/// What one quantum moved: total records, the memory bytes it
/// transferred (also sampled into the bandwidth accumulators), the
/// shared write-budget factor it applied — [`jump_horizon`] needs the
/// factor's value to monitor the scaled apply cap, and [`fold_jump`]
/// repeats the byte counts — and its pass-1 memory demand (zero when
/// no budget applies, outside debug builds).
#[derive(Debug, Clone, Copy)]
struct StepStats {
    moved: f64,
    read_bytes: f64,
    write_bytes: f64,
    write_factor: f64,
    read_demand: f64,
    write_demand: f64,
}

/// Output records currently allowed on `port`, given input progress and
/// the operator's streaming semantics.
fn out_available(node: &PlanNode, port: usize, done: &[f64]) -> f64 {
    let out = &node.outputs[port];
    if node.in_total <= 0.0 {
        return out.records;
    }
    if node.is_sorter {
        // A batch becomes available only once fully loaded.
        let done0 = done[node.inputs[0].sid];
        let total = node.inputs[0].records;
        if done0 >= total {
            return out.records;
        }
        let batches = (done0 / SORTER_BATCH as f64).floor();
        return (batches * SORTER_BATCH as f64).min(out.records);
    }
    match node.mode {
        ConsumeMode::Lockstep => {
            let i0 = &node.inputs[0];
            let frac = done[i0.sid] / i0.records_max1;
            out.records * frac.min(1.0)
        }
        ConsumeMode::Sequential => {
            // Joiner: output flows while the second input streams.
            // Append: output equals total consumed.
            if node.inputs.len() == 2 && out.width > 0.0 {
                match node.kind {
                    TileKind::Joiner => {
                        let i1 = &node.inputs[1];
                        let frac = done[i1.sid] / i1.records_max1;
                        out.records * frac.min(1.0)
                    }
                    _ => in_done(node, done).min(out.records),
                }
            } else {
                in_done(node, done).min(out.records)
            }
        }
    }
}

fn in_done(node: &PlanNode, done: &[f64]) -> f64 {
    node.inputs.iter().map(|i| done[i.sid]).sum()
}

/// Advances the fluid network by `dt` cycles; returns what moved. When
/// `busy` is supplied (tracing), it is filled with the number of busy
/// instructions per tile kind this quantum. The only per-quantum
/// kernel: the stepping loop and [`fold_jump`]'s replay both run it.
///
/// Memory demand only feeds the budget factors, and a missing budget's
/// factor is exactly 1.0 whatever the demand, so with both budgets
/// `None` the demand is skipped — except in debug builds, where the
/// replay fold checks it against the budgets it dropped.
#[allow(clippy::too_many_arguments)]
fn step(
    topo: &StageTopo,
    dt: f64,
    read_bpc: Option<f64>,
    write_bpc: Option<f64>,
    scratch: &mut SimScratch,
    result: &mut TimingResult,
    read_samples: &mut TraceAccum,
    write_samples: &mut TraceAccum,
    mut busy: Option<&mut [u16; TileKind::COUNT]>,
    mut blame: Option<&mut BlameRecorder>,
) -> StepStats {
    let n = topo.nodes.len();
    // Pass 1: per-node desired input advance (records over this quantum)
    // ignoring the shared memory budget, plus the memory demand it
    // implies. Retired nodes want nothing and demand nothing.
    let need_demand = read_bpc.is_some() || write_bpc.is_some() || cfg!(debug_assertions);
    let mut read_demand = 0.0_f64;
    let mut write_demand = 0.0_f64;
    for idx in 0..n {
        if scratch.retired[idx] {
            scratch.retired_node_quanta += 1;
            continue;
        }
        let d = pass1(topo, idx, dt, scratch, blame.as_deref_mut());
        if need_demand {
            let (r, w) = memory_demand(&topo.nodes[idx], d, dt, &scratch.done, &scratch.allowed);
            read_demand += r;
            write_demand += w;
        }
    }
    let read_factor = factor(read_demand, read_bpc.map(|b| b * dt));
    let write_factor = factor(write_demand, write_bpc.map(|b| b * dt));

    // Pass 2: apply, scaling nodes that touch memory by the shared
    // budget factors. Nodes with zero input advance still run so that
    // outputs can drain (e.g. a sorter emitting a completed batch); a
    // retired node's pass 2 is exactly an idle quantum.
    let mut moved = 0.0_f64;
    let mut read_bytes = 0.0_f64;
    let mut write_bytes = 0.0_f64;
    for idx in 0..n {
        if scratch.retired[idx] {
            if let Some(b) = blame.as_deref_mut() {
                b.quantum_idle(idx, dt);
            }
            continue;
        }
        let (r, w, m) = pass2(
            topo,
            idx,
            dt,
            read_factor,
            write_factor,
            scratch,
            result,
            busy.as_deref_mut(),
            blame.as_deref_mut(),
        );
        read_bytes += r;
        write_bytes += w;
        moved += m;
    }
    read_samples.sample(read_bytes, dt);
    write_samples.sample(write_bytes, dt);
    StepStats { moved, read_bytes, write_bytes, write_factor, read_demand, write_demand }
}

/// Pass 1 of one quantum for node `idx`: its [`desired_advance`]
/// against the pre-advance progress vector, stored in `desired`, with
/// the binding clamp handed to the blame recorder.
///
/// A node whose streams are all done retires here: with its inputs
/// frozen its `desired` and `allowed` are now constant, so both passes
/// are skipped for the rest of the stage.
fn pass1(
    topo: &StageTopo,
    idx: usize,
    dt: f64,
    scratch: &mut SimScratch,
    blame: Option<&mut BlameRecorder>,
) -> f64 {
    let node = &topo.nodes[idx];
    let SimScratch {
        done,
        desired,
        allowed,
        adv0,
        noc_in,
        noc_out,
        out_capped,
        node_open,
        retired,
        ..
    } = scratch;
    let d = if let Some(b) = blame {
        let mut track = Tracked { cause: BlameCause::InputStarvation };
        let d = desired_advance(
            node, adv0[idx], dt, done, allowed, noc_in, noc_out, out_capped, &mut track,
        );
        b.set_pass_cause(idx, track.cause);
        d
    } else {
        desired_advance(
            node,
            adv0[idx],
            dt,
            done,
            allowed,
            noc_in,
            noc_out,
            out_capped,
            &mut NoTrack,
        )
    };
    desired[idx] = d;
    retired[idx] = node_open[idx] == 0;
    d
}

/// Pass 2 of one quantum for node `idx`: scales its desired advance by
/// the shared read-budget factor when it reads memory, applies it
/// ([`apply_advance`]), and books busy cycles and blame. Returns
/// `(read_bytes, write_bytes, records_moved)`.
#[allow(clippy::too_many_arguments)]
fn pass2(
    topo: &StageTopo,
    idx: usize,
    dt: f64,
    read_factor: f64,
    write_factor: f64,
    scratch: &mut SimScratch,
    result: &mut TimingResult,
    busy: Option<&mut [u16; TileKind::COUNT]>,
    blame: Option<&mut BlameRecorder>,
) -> (f64, f64, f64) {
    let node = &topo.nodes[idx];
    let SimScratch {
        done, desired, allowed, deltas, adv0, peak_adv, node_open, open_streams, ..
    } = scratch;
    let desired = desired[idx].max(0.0);
    let mut adv = desired;
    // Scaling by exactly 1.0 is a bitwise identity: skip the scan.
    if read_factor != 1.0
        && node
            .inputs
            .iter()
            .any(|i| matches!(i.source, PlanSource::Memory) && done[i.sid] < i.records)
    {
        adv *= read_factor;
    }
    // Pre-advance state the blame classifier needs (consuming vs
    // draining vs finished), captured only when recording.
    let pre_state = blame.is_some().then(|| {
        (
            node.inputs.iter().any(|i| done[i.sid] < i.records),
            node.outputs.iter().all(|o| done[o.sid] >= o.records),
        )
    });
    let mut closed = 0_u32;
    let (r, w, m, produced_max) = apply_advance(
        node,
        adv,
        adv0[idx],
        write_factor,
        done,
        allowed,
        deltas,
        peak_adv,
        &mut closed,
    );
    node_open[idx] -= closed;
    *open_streams -= closed as usize;
    if m > 0.0 {
        result.busy_cycles[node.kind as usize] += dt;
        if let Some(b) = busy {
            b[node.kind as usize] += 1;
        }
    }
    if let Some(b) = blame {
        let (inputs_unfinished, outputs_done_pre) = pre_state.unwrap_or((false, true));
        if inputs_unfinished {
            b.quantum_streaming(idx, dt, adv0[idx], desired, adv);
        } else if outputs_done_pre {
            b.quantum_idle(idx, dt);
        } else {
            let finishing = node.outputs.iter().all(|o| done[o.sid] >= o.records);
            let write_capped = write_factor < 1.0 && node.outputs.iter().any(|o| o.to_memory);
            let throttle = write_capped.then_some(write_factor);
            b.quantum_drain(idx, dt, adv0[idx], produced_max, throttle, finishing);
        }
    }
    (r, w, m)
}

/// Whether any stream of the stage still has records to move.
fn stage_unfinished(topo: &StageTopo, done: &[f64]) -> bool {
    topo.nodes.iter().any(|n| {
        n.inputs.iter().any(|i| done[i.sid] < i.records)
            || n.outputs.iter().any(|o| done[o.sid] < o.records)
    })
}

fn factor(demand: f64, budget: Option<f64>) -> f64 {
    match budget {
        Some(b) if demand > b => b / demand,
        _ => 1.0,
    }
}

/// Attribution hook for the clamps inside [`desired_advance`]: records
/// which limit was the binding one. Monomorphized so the disabled case
/// ([`NoTrack`]) compiles back to the plain `min` chain — the untraced
/// hot path keeps its exact float semantics and codegen.
trait CauseTrack {
    /// `cur.min(cap)`, remembering `cause` in `slot` when `cap` is the
    /// new strict minimum.
    fn min_cause(&mut self, cur: f64, cap: f64, cause: BlameCause, slot: &mut BlameCause) -> f64;
    /// `*adv = adv.min(cap)`, recording `cause` when `cap` strictly
    /// binds. Ties keep the earlier cause (`min` is insensitive to the
    /// order of equal operands, so attribution never changes a value).
    fn clamp(&mut self, adv: &mut f64, cap: f64, cause: BlameCause);
}

/// The disabled tracker: pure `min`s, no attribution.
struct NoTrack;

impl CauseTrack for NoTrack {
    #[inline(always)]
    fn min_cause(&mut self, cur: f64, cap: f64, _: BlameCause, _: &mut BlameCause) -> f64 {
        cur.min(cap)
    }

    #[inline(always)]
    fn clamp(&mut self, adv: &mut f64, cap: f64, _: BlameCause) {
        *adv = adv.min(cap);
    }
}

/// The recording tracker: keeps the cause of the binding clamp.
struct Tracked {
    cause: BlameCause,
}

impl CauseTrack for Tracked {
    #[inline(always)]
    fn min_cause(&mut self, cur: f64, cap: f64, cause: BlameCause, slot: &mut BlameCause) -> f64 {
        if cap < cur {
            *slot = cause;
            cap
        } else {
            cur
        }
    }

    #[inline(always)]
    fn clamp(&mut self, adv: &mut f64, cap: f64, cause: BlameCause) {
        if cap < *adv {
            *adv = cap;
            self.cause = cause;
        }
    }
}

/// How many input records a node wants to (and may) consume this
/// quantum, considering tile throughput, upstream availability, NoC
/// caps, and downstream backpressure — everything except the shared
/// memory budget. Reads each output port's availability from
/// `allowed`, which [`apply_advance`] cached after the node's own last
/// input advance: [`out_available`] reads only the node's own inputs,
/// and nothing else moves them.
///
/// `track` attributes the binding clamp (blame accounting); pass
/// [`NoTrack`] for the plain computation. Every clamp below is a `min`
/// in both modes, so the returned advance is bit-identical regardless
/// of tracker.
#[allow(clippy::too_many_arguments)]
fn desired_advance<T: CauseTrack>(
    node: &PlanNode,
    adv0: f64,
    dt: f64,
    done: &[f64],
    allowed: &[f64],
    noc_in: &[f64],
    noc_out: &[f64],
    out_capped: &[bool],
    track: &mut T,
) -> f64 {
    // Tile throughput: one record per cycle on the consuming stream,
    // scaled down when the tile kind is frequency-derated (resilience).
    let mut adv: f64 = adv0;

    // Clamp an input stream: the tail of the stream itself (finishing —
    // `Drained`), the producer's published progress (`InputStarvation`),
    // and the per-link NoC cap (`+inf` when uncapped, so the min is the
    // identity).
    match node.mode {
        ConsumeMode::Lockstep => {
            for input in &node.inputs {
                // All lockstep inputs advance together, so the slowest
                // governs (except already-exhausted zero-record inputs).
                if input.records > 0.0 {
                    track.clamp(&mut adv, input.records - done[input.sid], BlameCause::Drained);
                    if let PlanSource::InStage { src_sid, .. } = input.source {
                        track.clamp(
                            &mut adv,
                            done[src_sid] - done[input.sid],
                            BlameCause::InputStarvation,
                        );
                        track.clamp(&mut adv, noc_in[input.sid], BlameCause::NocBandwidth);
                    }
                }
            }
            if node.inputs.is_empty() {
                adv = 0.0;
            }
        }
        ConsumeMode::Sequential => {
            let active = node.inputs.iter().find(|i| done[i.sid] < i.records);
            match active {
                None => adv = 0.0,
                Some(input) => {
                    track.clamp(&mut adv, input.records - done[input.sid], BlameCause::Drained);
                    if let PlanSource::InStage { src_sid, .. } = input.source {
                        track.clamp(
                            &mut adv,
                            done[src_sid] - done[input.sid],
                            BlameCause::InputStarvation,
                        );
                        track.clamp(&mut adv, noc_in[input.sid], BlameCause::NocBandwidth);
                    }
                }
            }
        }
    }
    adv = adv.max(0.0);

    // Backpressure and NoC caps on outputs: translate output limits back
    // into input records via the port's output/input ratio.
    for (port, output) in node.outputs.iter().enumerate() {
        let avail = allowed[output.sid];
        debug_assert_eq!(avail.to_bits(), out_available(node, port, done).to_bits());
        if output.records <= 0.0 {
            continue;
        }
        if output.ratio <= 0.0 {
            continue;
        }
        // Output streaming rate is itself bounded by one record/cycle.
        let mut out_cap = dt + (avail - done[output.sid]).max(0.0);
        let mut oc = BlameCause::OutputBackpressure;
        if out_capped[output.sid] {
            out_cap = track.min_cause(
                out_cap,
                noc_out[output.sid] + (avail - done[output.sid]).max(0.0),
                BlameCause::NocBandwidth,
                &mut oc,
            );
        }
        for &(_, cons_sid) in &output.consumers {
            let headroom = done[cons_sid] + QUEUE_RECORDS - done[output.sid];
            out_cap = track.min_cause(
                out_cap,
                headroom.max(0.0) + dt,
                BlameCause::OutputBackpressure,
                &mut oc,
            );
        }
        track.clamp(&mut adv, out_cap / output.ratio, oc);
    }
    adv.max(0.0)
}

/// Memory bytes (read, write) that consuming `adv` input records implies
/// for this node. Write demand also covers output-only drains (e.g. a
/// sorter emitting a completed batch while its input is exhausted).
fn memory_demand(node: &PlanNode, adv: f64, dt: f64, done: &[f64], allowed: &[f64]) -> (f64, f64) {
    let mut read = 0.0;
    match node.mode {
        ConsumeMode::Lockstep => {
            for input in &node.inputs {
                if matches!(input.source, PlanSource::Memory) && done[input.sid] < input.records {
                    read += adv.min(input.records - done[input.sid]) * input.width;
                }
            }
        }
        ConsumeMode::Sequential => {
            if let Some(input) = node.inputs.iter().find(|i| done[i.sid] < i.records) {
                if matches!(input.source, PlanSource::Memory) {
                    read += adv.min(input.records - done[input.sid]) * input.width;
                }
            }
        }
    }
    let mut write = 0.0;
    for output in &node.outputs {
        if output.to_memory {
            let target = allowed[output.sid].min(done[output.sid] + dt).min(output.records);
            write += (target - done[output.sid]).max(0.0) * output.width;
        }
    }
    (read, write)
}

/// Advances one input stream by up to `adv` records (shared by both
/// consume modes of [`apply_advance`]).
#[allow(clippy::too_many_arguments)]
fn advance_input(
    input: &PlanInput,
    adv: f64,
    done: &mut [f64],
    deltas: &mut [f64],
    peak_adv: &mut [f64],
    read_bytes: &mut f64,
    moved: &mut f64,
    closed: &mut u32,
) {
    let sid = input.sid;
    let step_records = adv.min(input.records - done[sid]);
    if step_records <= 0.0 {
        return;
    }
    if matches!(input.source, PlanSource::Memory) {
        *read_bytes += step_records * input.width;
    }
    if step_records > peak_adv[sid] {
        peak_adv[sid] = step_records;
    }
    done[sid] += step_records;
    deltas[sid] += step_records;
    *moved += step_records;
    *closed += u32::from(done[sid] >= input.records);
}

/// Applies an input advance of `adv` records to `node`, updating
/// progress, per-stream deltas and per-stream peak advances, and
/// counting the streams that reach their totals in `closed`. Returns
/// `(read_bytes, write_bytes, records_moved, produced_max)` — the last
/// being the largest per-port output advance this quantum, which blame
/// accounting reads as the node's drain-phase activity.
#[allow(clippy::too_many_arguments)]
fn apply_advance(
    node: &PlanNode,
    adv: f64,
    out_dt: f64,
    write_factor: f64,
    done: &mut [f64],
    allowed: &mut [f64],
    deltas: &mut [f64],
    peak_adv: &mut [f64],
    closed: &mut u32,
) -> (f64, f64, f64, f64) {
    let mut read_bytes = 0.0;
    let mut write_bytes = 0.0;
    let mut moved = 0.0;
    let mut produced_max = 0.0_f64;

    // Advance inputs.
    match node.mode {
        ConsumeMode::Lockstep => {
            for input in &node.inputs {
                if input.records <= 0.0 || adv <= 0.0 {
                    continue;
                }
                advance_input(
                    input,
                    adv,
                    done,
                    deltas,
                    peak_adv,
                    &mut read_bytes,
                    &mut moved,
                    closed,
                );
            }
        }
        ConsumeMode::Sequential => {
            if adv > 0.0 {
                if let Some(input) = node.inputs.iter().find(|i| done[i.sid] < i.records) {
                    advance_input(
                        input,
                        adv,
                        done,
                        deltas,
                        peak_adv,
                        &mut read_bytes,
                        &mut moved,
                        closed,
                    );
                }
            }
        }
    }

    // Advance outputs to their currently allowed level (bounded by one
    // record per cycle of streaming — `out_dt`, pre-scaled for
    // frequency-derated tiles — and by the shared write budget for
    // memory-bound ports). Availability is recomputed after this node's
    // own input advance and re-cached for the jump monitors and the
    // node's next pass 1.
    for (port, output) in node.outputs.iter().enumerate() {
        let sid = output.sid;
        let avail = out_available(node, port, done);
        allowed[sid] = avail;
        let stream_cap = if output.to_memory { out_dt * write_factor } else { out_dt };
        let target = avail.min(done[sid] + stream_cap).min(output.records);
        let produced = (target - done[sid]).max(0.0);
        produced_max = produced_max.max(produced);
        if produced <= 0.0 {
            continue;
        }
        if output.to_memory {
            write_bytes += produced * output.width;
        }
        if produced > peak_adv[sid] {
            peak_adv[sid] = produced;
        }
        done[sid] += produced;
        deltas[sid] += produced;
        moved += produced;
        *closed += u32::from(done[sid] >= output.records);
    }
    (read_bytes, write_bytes, moved, produced_max)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Bandwidth, SimConfig, TileMix};
    use crate::exec::data::MemoryCatalog;
    use crate::exec::functional::execute;
    use crate::isa::graph::QueryGraph;
    use crate::isa::ops::CmpOp;
    use crate::sched::schedule_naive;
    use q100_columnar::{Column, Table, Value};
    use std::sync::Arc;

    fn pipeline_fixture(rows: i64) -> (QueryGraph, MemoryCatalog) {
        let t = Table::new(vec![Column::from_ints("x", (0..rows).collect::<Vec<_>>())]).unwrap();
        let cat = MemoryCatalog::new(vec![("t".into(), t)]);
        let mut b = QueryGraph::builder("pipe");
        let x = b.col_select_base("t", "x");
        let c = b.bool_gen_const(x, CmpOp::Lt, Value::Int(rows / 2));
        let _f = b.col_filter(x, c);
        (b.finish().unwrap(), cat)
    }

    fn simulate(
        graph: &QueryGraph,
        schedule: &crate::sched::Schedule,
        profile: &crate::exec::GraphProfile,
        config: &SimConfig,
    ) -> Result<TimingResult> {
        let plan = StagePlan::compile(graph, Arc::new(schedule.clone()), profile)?;
        simulate_plan(&plan, config, &mut SimScratch::new(), Observe::default())
    }

    fn time_with(config: &SimConfig, graph: &QueryGraph, cat: &MemoryCatalog) -> TimingResult {
        let run = execute(graph, cat).unwrap();
        let schedule = schedule_naive(graph, &config.mix);
        simulate(graph, &schedule, &run.profile, config).unwrap()
    }

    #[test]
    fn pipeline_time_tracks_volume() {
        let cfg = SimConfig::new(TileMix::uniform(8));
        let (g1, c1) = pipeline_fixture(10_000);
        let (g2, c2) = pipeline_fixture(100_000);
        let t1 = time_with(&cfg, &g1, &c1);
        let t2 = time_with(&cfg, &g2, &c2);
        assert!(t2.cycles > t1.cycles * 5, "10x volume ≈ 10x time: {} vs {}", t1.cycles, t2.cycles);
        // A 1-rec/cycle pipeline over 10k records takes ~10k cycles.
        assert!(t1.cycles >= 10_000 && t1.cycles < 25_000, "{}", t1.cycles);
    }

    #[test]
    fn constrained_memory_slows_execution() {
        let (g, cat) = pipeline_fixture(50_000);
        let ideal = time_with(&SimConfig::new(TileMix::uniform(8)), &g, &cat);
        let starved_cfg = SimConfig::new(TileMix::uniform(8)).with_bandwidth(Bandwidth {
            noc_gbps: None,
            mem_read_gbps: Some(0.5),
            mem_write_gbps: None,
        });
        let starved = time_with(&starved_cfg, &g, &cat);
        assert!(
            starved.cycles > ideal.cycles,
            "memory cap must slow the query: {} vs {}",
            starved.cycles,
            ideal.cycles
        );
        assert!(
            starved.mem_read.hi_gbps <= 0.6,
            "read cap respected: {}",
            starved.mem_read.hi_gbps
        );
    }

    #[test]
    fn noc_cap_limits_link_peaks() {
        let (g, cat) = pipeline_fixture(50_000);
        let capped_cfg = SimConfig::new(TileMix::uniform(8)).with_bandwidth(Bandwidth {
            noc_gbps: Some(1.0),
            mem_read_gbps: None,
            mem_write_gbps: None,
        });
        let capped = time_with(&capped_cfg, &g, &cat);
        let ideal = time_with(&SimConfig::new(TileMix::uniform(8)), &g, &cat);
        assert!(capped.cycles > ideal.cycles);
        // No tile-to-tile link may exceed the cap (memory links excluded).
        for src in 0..TileKind::COUNT {
            for dst in 0..TileKind::COUNT {
                assert!(
                    capped.peak_gbps.get(src, dst) <= 1.01,
                    "link {src}->{dst} exceeded cap: {}",
                    capped.peak_gbps.get(src, dst)
                );
            }
        }
    }

    #[test]
    fn connection_matrix_reflects_structure() {
        let (g, cat) = pipeline_fixture(1_000);
        let t = time_with(&SimConfig::new(TileMix::uniform(8)), &g, &cat);
        let cs = TileKind::ColSelect as usize;
        let bg = TileKind::BoolGen as usize;
        let cf = TileKind::ColFilter as usize;
        assert_eq!(t.connections.get(MEMORY_ENDPOINT, cs), 1.0);
        assert_eq!(t.connections.get(cs, bg), 1.0);
        assert_eq!(t.connections.get(cs, cf), 1.0);
        assert_eq!(t.connections.get(bg, cf), 1.0);
        assert_eq!(t.connections.get(cf, MEMORY_ENDPOINT), 1.0);
    }

    #[test]
    fn multi_stage_pays_spills_and_latency() {
        let (g, cat) = pipeline_fixture(20_000);
        // Constrain so the 3-node pipeline splits across stages.
        let mix = TileMix::uniform(1).with_count(TileKind::BoolGen, 1);
        let one_stage_cfg = SimConfig::new(TileMix::uniform(8));
        let run = execute(&g, &cat).unwrap();
        let tight = {
            let mut m = mix;
            m = m.with_count(TileKind::ColSelect, 1);
            m
        };
        // Force boolgen+filter into a later stage by removing parallel slots:
        // build a schedule manually with 2 stages.
        let manual = crate::sched::Schedule::from_stages(vec![0, 1, 1]);
        manual.validate(&g, &tight).unwrap();
        let split = simulate(&g, &manual, &run.profile, &SimConfig::new(tight)).unwrap();
        let whole = time_with(&one_stage_cfg, &g, &cat);
        assert!(split.spill_bytes > 0);
        assert_eq!(whole.spill_bytes, 0);
        assert!(split.cycles > whole.cycles);
        assert_eq!(split.per_tinst_cycles.len(), 2);
    }

    #[test]
    fn sorter_blocks_by_batch() {
        // A sort of 4096 records can't overlap output with input within
        // a batch; runtime must exceed the pure streaming time.
        let rows: Vec<i64> = (0..4096).rev().collect();
        let t = Table::new(vec![Column::from_ints("k", rows)]).unwrap();
        let cat = MemoryCatalog::new(vec![("t".into(), t)]);
        let mut b = QueryGraph::builder("s");
        let k = b.col_select_base("t", "k");
        let tab = b.stitch(&[k]);
        let _s = b.sort(tab, "k");
        let g = b.finish().unwrap();
        let cfg = SimConfig::new(TileMix::uniform(8));
        let run = execute(&g, &cat).unwrap();
        let schedule = schedule_naive(&g, &cfg.mix);
        let res = simulate(&g, &schedule, &run.profile, &cfg).unwrap();
        // Streaming lower bound is ~4096 cycles; batching adds at least
        // most of one batch of skew.
        assert!(res.cycles > 4096 + 900, "sorter batching visible: {}", res.cycles);
        assert!(res.busy_cycles[TileKind::Sorter as usize] > 0.0);
    }

    #[test]
    fn energy_inputs_populated() {
        let (g, cat) = pipeline_fixture(10_000);
        let t = time_with(&SimConfig::new(TileMix::uniform(8)), &g, &cat);
        assert!(t.busy_cycles[TileKind::ColSelect as usize] > 0.0);
        assert!(t.input_bytes > 0);
        assert!(t.output_bytes > 0);
        assert!(t.mem_read.avg_gbps > 0.0);
        assert!(t.mem_read.hi_gbps >= t.mem_read.avg_gbps);
        assert!(t.runtime_ms() > 0.0);
    }

    #[test]
    fn gbps_conversions_roundtrip() {
        let bpc = gbps_to_bytes_per_cycle(6.3);
        assert!((bytes_per_cycle_to_gbps(bpc) - 6.3).abs() < 1e-9);
        assert!((bpc - 20.0).abs() < 0.1, "6.3 GB/s ≈ 20 B/cycle at 315 MHz");
    }
}
