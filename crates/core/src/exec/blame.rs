//! Stall-blame accounting for the timing simulator.
//!
//! A [`BlameRecorder`] rides along a plan-driven simulation (attached
//! through [`Observe`](crate::exec::timing::Observe))
//! and classifies, per plan node, every cycle of the query's runtime
//! into *active* streaming or one of the exhaustive
//! [`BlameCause`] buckets defined in `q100-trace`. Two bookkeeping
//! granularities compose into an exact ledger:
//!
//! * **per quantum**, for nodes inside the running stage, the quantum's
//!   `dt` cycles split as
//!   `dt = applied + (dt − adv0) + (adv0 − desired) + (desired − applied)`
//!   — active streaming, fault derating, the binding clamp tracked by
//!   [`desired_advance`](crate::exec::timing), and the shared memory
//!   read budget, respectively;
//! * **per stage**, every node also accrues the *other* stages' spans:
//!   [`BlameCause::TileWait`] while its own stage has not started
//!   (tile-mix serialization) and [`BlameCause::Drained`] once it is
//!   over, plus the stage's memory startup latency and fault stalls.
//!
//! The resulting invariant — for every node, `active + Σ blamed` equals
//! the query's total cycles — is checked by
//! [`BlameReport::check_invariant`] and a property test over random
//! graphs × random mixes.
//!
//! Like trace sinks, recording is strictly opt-in: every hot-path hook
//! sits behind an `Option` that costs an untaken branch when disabled.
//! The quantum-jump fast path stays armed while recording, and takes
//! the same decisions as without a recorder: every hook also captures
//! the quantum's per-(node, cause) amounts, and a closed-form fold of
//! `k` quanta re-adds those amounts `k` times (the crate-private
//! `BlameRecorder::fold_quantum`) while a replay fold reruns the
//! hooks through the stepping kernel — bit-identical to stepping,
//! because each ledger slot receives at most one addition per quantum
//! and slots accumulate independently.

use q100_trace::{BlameCause, BlameReport, NodeBlame};

use crate::config::TileMix;
use crate::exec::plan::StagePlan;
use crate::exec::timing::TimingResult;

/// Accumulates per-node blame ledgers over one simulation run.
///
/// Reusable: [`simulate_plan`](crate::exec::timing::simulate_plan)
/// resets it at the start of every run, so one recorder can serve many
/// sequential simulations (mirroring [`SimScratch`](crate::exec::plan::SimScratch)).
#[derive(Debug, Default)]
pub struct BlameRecorder {
    /// One ledger per plan node, stage-major.
    nodes: Vec<NodeBlame>,
    /// Start index of each stage's nodes in `nodes`.
    stage_base: Vec<usize>,
    /// `stage_base` entry of the stage currently being stepped.
    cur_base: usize,
    /// Node count of the stage currently being stepped.
    cur_len: usize,
    /// Pass-1 binding clamp per in-stage node (index within the stage).
    pass_causes: Vec<BlameCause>,
    /// Blamed cycles per cause accumulated during the current quantum,
    /// for trace-sample emission.
    quantum_causes: [f64; BlameCause::COUNT],
    /// Per-(in-stage node, cause) blamed cycles of the current quantum —
    /// the amounts [`BlameRecorder::fold_quantum`] re-adds when the
    /// event-horizon solver folds a closed-form segment.
    quantum_node: Vec<[f64; BlameCause::COUNT]>,
    /// Per-in-stage-node active cycles of the current quantum.
    quantum_active: Vec<f64>,
}

impl BlameRecorder {
    /// A fresh recorder; ledgers are built per run.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the ledger skeleton for `plan` and zeroes every bucket.
    pub(crate) fn begin_run(&mut self, plan: &StagePlan) {
        self.nodes.clear();
        self.stage_base.clear();
        self.cur_base = 0;
        for (stage, topo) in plan.stages.iter().enumerate() {
            self.stage_base.push(self.nodes.len());
            for pn in &topo.nodes {
                self.nodes.push(NodeBlame {
                    node: pn.node as u32,
                    kind: pn.kind as u16,
                    stage: stage as u32,
                    active_cycles: 0.0,
                    blamed: [0.0; BlameCause::COUNT],
                    deps: pn.inputs.iter().filter_map(|i| i.producer.map(|d| d as u32)).collect(),
                });
            }
        }
        self.pass_causes.resize(plan.max_nodes, BlameCause::InputStarvation);
        self.quantum_node.resize(plan.max_nodes, [0.0; BlameCause::COUNT]);
        self.quantum_active.resize(plan.max_nodes, 0.0);
    }

    /// Selects the stage whose quanta subsequent hooks attribute.
    pub(crate) fn begin_stage(&mut self, stage: usize) {
        self.cur_base = self.stage_base.get(stage).copied().unwrap_or(0);
        let next = self.stage_base.get(stage + 1).copied().unwrap_or(self.nodes.len());
        self.cur_len = next - self.cur_base;
    }

    /// Zeroes the per-quantum aggregates (trace emission and jump
    /// folding).
    pub(crate) fn begin_quantum(&mut self) {
        self.quantum_causes = [0.0; BlameCause::COUNT];
        for slots in &mut self.quantum_node[..self.cur_len] {
            *slots = [0.0; BlameCause::COUNT];
        }
        for active in &mut self.quantum_active[..self.cur_len] {
            *active = 0.0;
        }
    }

    /// Blamed cycles per cause recorded during the current quantum.
    pub(crate) fn quantum_causes(&self) -> &[f64; BlameCause::COUNT] {
        &self.quantum_causes
    }

    /// Stores the binding clamp pass 1 tracked for in-stage node `idx`.
    pub(crate) fn set_pass_cause(&mut self, idx: usize, cause: BlameCause) {
        self.pass_causes[idx] = cause;
    }

    fn add(&mut self, idx: usize, cause: BlameCause, cycles: f64) {
        if cycles > 0.0 {
            self.nodes[self.cur_base + idx].blamed[cause.index()] += cycles;
            self.quantum_causes[cause.index()] += cycles;
            self.quantum_node[idx][cause.index()] += cycles;
        }
    }

    /// Re-adds every in-stage node's amounts from the current quantum
    /// `k` more times — the blame half of a closed-form fold. Exact
    /// because within a certified segment every quantum records the
    /// same amounts for a node (the horizon monitors pin the phase
    /// flags, pass causes, and clamp values), each hook touches each
    /// (node, cause) slot at most once per quantum, and slots accumulate
    /// independently — so `k` re-additions of the captured amount
    /// reproduce `k` stepped quanta bit-identically.
    pub(crate) fn fold_quantum(&mut self, k: u64) {
        for idx in 0..self.cur_len {
            let ledger = &mut self.nodes[self.cur_base + idx];
            let active = self.quantum_active[idx];
            if active != 0.0 {
                for _ in 0..k {
                    ledger.active_cycles += active;
                }
            }
            for (cell, &amt) in ledger.blamed.iter_mut().zip(&self.quantum_node[idx]) {
                if amt > 0.0 {
                    for _ in 0..k {
                        *cell += amt;
                    }
                }
            }
        }
    }

    /// One quantum of a node still consuming inputs: `applied` input
    /// records advanced out of the `adv0`-derated, `desired`-clamped
    /// ideal of `dt`. The shortfall splits exactly:
    /// derate → [`BlameCause::FaultDerate`], clamp → the pass-1 tracked
    /// cause, memory scaling → [`BlameCause::MemReadBandwidth`].
    pub(crate) fn quantum_streaming(
        &mut self,
        idx: usize,
        dt: f64,
        adv0: f64,
        desired: f64,
        applied: f64,
    ) {
        let node = &mut self.nodes[self.cur_base + idx];
        node.active_cycles += applied;
        self.quantum_active[idx] += applied;
        let cause = self.pass_causes[idx];
        self.add(idx, BlameCause::FaultDerate, dt - adv0);
        self.add(idx, cause, adv0 - desired);
        self.add(idx, BlameCause::MemReadBandwidth, desired - applied);
    }

    /// One quantum of a node whose inputs are exhausted but whose
    /// outputs still stream (`produced` records this quantum, out of an
    /// ideal `adv0`). Shortfall goes to the shared write budget when a
    /// memory-bound port was throttled (`write_throttle` carries that
    /// quantum's budget factor), otherwise to [`BlameCause::Drained`]
    /// (outputs finished) or [`BlameCause::OutputBackpressure`].
    pub(crate) fn quantum_drain(
        &mut self,
        idx: usize,
        dt: f64,
        adv0: f64,
        produced: f64,
        write_throttle: Option<f64>,
        finishing: bool,
    ) {
        let active = produced.min(adv0).max(0.0);
        self.nodes[self.cur_base + idx].active_cycles += active;
        self.quantum_active[idx] += active;
        self.add(idx, BlameCause::FaultDerate, dt - adv0);
        let mut residual = (adv0 - active).max(0.0);
        if let Some(write_factor) = write_throttle {
            let throttled = (adv0 * (1.0 - write_factor)).min(residual);
            self.add(idx, BlameCause::MemWriteBandwidth, throttled);
            residual -= throttled;
        }
        let tail = if finishing { BlameCause::Drained } else { BlameCause::OutputBackpressure };
        self.add(idx, tail, residual);
    }

    /// One quantum of a node that had already finished all of its work
    /// while the stage kept running.
    pub(crate) fn quantum_idle(&mut self, idx: usize, dt: f64) {
        self.add(idx, BlameCause::Drained, dt);
    }

    /// Closes one temporal instruction of `total` cycles (streaming +
    /// memory startup `latency` + fault `stall`): in-stage nodes absorb
    /// the latency and stall, nodes of earlier stages drain, nodes of
    /// later stages wait for tiles.
    pub(crate) fn end_stage(&mut self, stage: usize, total: u64, latency: u64, stall: u64) {
        let stage = stage as u32;
        for node in &mut self.nodes {
            if node.stage == stage {
                node.blamed[BlameCause::MemStartup.index()] += latency as f64;
                node.blamed[BlameCause::FaultDerate.index()] += stall as f64;
            } else if node.stage < stage {
                node.blamed[BlameCause::Drained.index()] += total as f64;
            } else {
                node.blamed[BlameCause::TileWait.index()] += total as f64;
            }
        }
    }

    /// Packages the accumulated ledgers into a [`BlameReport`] for the
    /// run that produced `timing` under tile mix `mix`.
    #[must_use]
    pub fn report(&self, timing: &TimingResult, mix: &TileMix) -> BlameReport {
        BlameReport {
            cycles: timing.cycles,
            per_stage_cycles: timing.per_tinst_cycles.clone(),
            tile_counts: mix.counts().to_vec(),
            nodes: self.nodes.clone(),
        }
    }
}
