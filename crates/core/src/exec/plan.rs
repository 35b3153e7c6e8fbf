//! Compiled stage plans: the immutable half of a timing simulation.
//!
//! The fluid-flow simulator in [`crate::exec::timing`] drains a
//! constrained dataflow network per temporal instruction. Everything
//! about that network's *shape* — node topology, consumer lists, record
//! counts, stream widths, consume modes, per-stage quanta, spill
//! volumes, the connection census — depends only on the `(graph,
//! schedule, profile)` triple, never on the swept [`SimConfig`]
//! (bandwidth caps, derates, p2p links). A [`StagePlan`] captures all
//! of it once, in O(V+E) from a single adjacency pass, so a
//! 150-configuration sweep resolves the topology once per (query,
//! schedule) and every simulation only carries tiny mutable progress
//! state in a reusable [`SimScratch`].
//!
//! Every stream (each node input and each output port) gets a dense
//! stage-local *stream id*; per-run progress is then a flat `f64`
//! vector indexed by stream id instead of nested `SimNode` structs,
//! which is what lets the hot quantum loop run allocation-free.
//!
//! [`SimConfig`]: crate::config::SimConfig

use std::sync::Arc;

use crate::cache::BoundedCache;
use crate::config::{SchedulerKind, TileMix};
use crate::error::{CoreError, Result};
use crate::exec::functional::GraphProfile;
use crate::exec::timing::{consume_mode, ConnMatrix, ConsumeMode, MEMORY_ENDPOINT};
use crate::isa::graph::{NodeId, PortRef, QueryGraph, SpatialOp};
use crate::sched::{self, Schedule};
use crate::tiles::TileKind;

/// Where an input stream comes from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PlanSource {
    /// Streamed from a producer in the same temporal instruction:
    /// `src_sid` is the producer port's stream id, `src_kind` its tile
    /// kind (for NoC/peak lookups).
    InStage { src_sid: usize, src_kind: TileKind },
    /// Streamed from memory (base table, or an intermediate spilled by
    /// an earlier temporal instruction).
    Memory,
}

/// One input stream of a plan node.
#[derive(Debug, Clone)]
pub(crate) struct PlanInput {
    pub(crate) source: PlanSource,
    pub(crate) records: f64,
    pub(crate) width: f64,
    /// `records.max(1.0)`, hoisted for the streaming-fraction formulas.
    pub(crate) records_max1: f64,
    /// Stage-local stream id of this input's progress counter.
    pub(crate) sid: usize,
    /// Graph node id of the producer, whether in-stage or spilled by an
    /// earlier stage (`None` for base-table reads) — the plan-DAG edge
    /// blame analysis walks.
    pub(crate) producer: Option<NodeId>,
}

/// One output port of a plan node.
#[derive(Debug, Clone)]
pub(crate) struct PlanOutput {
    pub(crate) records: f64,
    pub(crate) width: f64,
    /// `(node index in stage, consumer input stream id)` of each
    /// in-stage consumer, in graph edge order.
    pub(crate) consumers: Vec<(usize, usize)>,
    /// Whether this port also streams to memory (spill or final result).
    pub(crate) to_memory: bool,
    /// `records / in_total`, or `0.0` when either is zero — the
    /// output-records-per-input-record ratio backpressure translates
    /// through.
    pub(crate) ratio: f64,
    /// Stage-local stream id of this port's progress counter.
    pub(crate) sid: usize,
}

/// One node of a compiled stage.
#[derive(Debug, Clone)]
pub(crate) struct PlanNode {
    /// Graph node id this plan node was compiled from.
    pub(crate) node: NodeId,
    pub(crate) kind: TileKind,
    pub(crate) mode: ConsumeMode,
    pub(crate) inputs: Vec<PlanInput>,
    pub(crate) outputs: Vec<PlanOutput>,
    pub(crate) is_sorter: bool,
    /// Sum of input records (the denominator of output ratios).
    pub(crate) in_total: f64,
}

/// One compiled temporal instruction.
#[derive(Debug, Clone)]
pub(crate) struct StageTopo {
    pub(crate) nodes: Vec<PlanNode>,
    /// The stage's cycle quantum.
    pub(crate) dt: f64,
    /// Number of stream ids (inputs + output ports) in this stage.
    pub(crate) streams: usize,
    /// Bytes filled from memory (base tables + re-read spills).
    pub(crate) fill_bytes: u64,
    /// Bytes spilled back to memory (cross-stage outputs + results).
    pub(crate) spill_bytes: u64,
}

/// A compiled, immutable per-(query, schedule) simulation artifact.
///
/// Built once by [`StagePlan::compile`] and shared (e.g. behind an
/// `Arc` in [`PlanCache`]) across every configuration of
/// a sweep; see the module docs for what it captures.
#[derive(Debug, Clone)]
pub struct StagePlan {
    /// The schedule this plan was compiled from, shared with every
    /// [`SimOutcome`](crate::exec::SimOutcome) the plan produces.
    pub(crate) schedule: Arc<Schedule>,
    pub(crate) stages: Vec<StageTopo>,
    /// Connection census over all stages (Figures 7–9).
    pub(crate) connections: ConnMatrix,
    pub(crate) spill_bytes: u64,
    pub(crate) input_bytes: u64,
    pub(crate) output_bytes: u64,
    /// Max `streams` over stages — the scratch vectors' working size.
    pub(crate) max_streams: usize,
    /// Max node count over stages.
    pub(crate) max_nodes: usize,
    /// `(noc_w_max, read_w_max, write_w_max)`, see
    /// [`StagePlan::cap_thresholds`].
    pub(crate) cap_thresholds: (f64, f64, f64),
}

impl StagePlan {
    /// Compiles the fluid-network topology of every temporal
    /// instruction of `schedule`, in O(V+E).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Internal`] if the schedule contains an
    /// empty temporal instruction or names a same-stage producer absent
    /// from its stage's node list — invariants
    /// [`Schedule::validate`] guarantees, surfaced as typed errors so
    /// resilient sweeps can report a scheduling bug and keep running.
    pub fn compile(
        graph: &QueryGraph,
        schedule: Arc<Schedule>,
        profile: &GraphProfile,
    ) -> Result<StagePlan> {
        // One adjacency pass replaces the per-port `graph.edges()`
        // scans: consumers of (producer, port) in edge order.
        let mut adj: Vec<Vec<(PortRef, NodeId)>> = vec![Vec::new(); graph.len()];
        for (p, c) in graph.edges() {
            adj[p.node].push((p, c));
        }
        // Stage-local position of each node, valid only while its stage
        // is being compiled.
        let mut pos: Vec<usize> = vec![usize::MAX; graph.len()];

        let mut stages = Vec::with_capacity(schedule.stages());
        let mut connections = ConnMatrix::zero();
        let mut max_streams = 0usize;
        let mut max_nodes = 0usize;
        let (mut noc_w, mut read_w, mut write_w) = (0.0_f64, 0.0_f64, 0.0_f64);

        for tinst in &schedule.tinsts {
            let Some(&first) = tinst.nodes.first() else {
                return Err(CoreError::Internal("empty temporal instruction in schedule".into()));
            };
            let stage = schedule.stage_of[first];
            for (i, &id) in tinst.nodes.iter().enumerate() {
                pos[id] = i;
            }

            // Stream ids are assigned node by node, inputs then output
            // ports; precomputing each node's base lets producer /
            // consumer stream ids resolve in one pass.
            let mut sid_base = Vec::with_capacity(tinst.nodes.len());
            let mut streams = 0usize;
            for &id in &tinst.nodes {
                sid_base.push(streams);
                let inst = graph.node(id);
                let extra =
                    usize::from(matches!(inst.op, SpatialOp::ColSelect { base: Some(_), .. }));
                streams += inst.inputs.len() + extra + inst.op.output_ports();
            }
            let input_sid = |node: usize, slot: usize| sid_base[node] + slot;
            let output_sid = |node: usize, id: NodeId, port: usize| {
                let inst = graph.node(id);
                let extra =
                    usize::from(matches!(inst.op, SpatialOp::ColSelect { base: Some(_), .. }));
                sid_base[node] + inst.inputs.len() + extra + port
            };

            let nodes: Vec<PlanNode> = tinst
                .nodes
                .iter()
                .enumerate()
                .map(|(i, &id)| -> Result<PlanNode> {
                    let inst = graph.node(id);
                    let prof = &profile.nodes[id];
                    let mut inputs: Vec<PlanInput> = inst
                        .inputs
                        .iter()
                        .enumerate()
                        .map(|(slot, p)| -> Result<PlanInput> {
                            let records = prof.in_records.get(slot).copied().unwrap_or(0) as f64;
                            let bytes = prof.in_bytes.get(slot).copied().unwrap_or(0) as f64;
                            let width = if records > 0.0 { bytes / records } else { 0.0 };
                            let source = if schedule.stage_of[p.node] == stage {
                                let src = pos[p.node];
                                if src == usize::MAX {
                                    return Err(CoreError::Internal(format!(
                                        "node {} scheduled in stage {stage} but absent from its tinst",
                                        p.node
                                    )));
                                }
                                PlanSource::InStage {
                                    src_sid: output_sid(src, p.node, p.port),
                                    src_kind: graph.node(p.node).op.tile_kind(),
                                }
                            } else {
                                PlanSource::Memory
                            };
                            Ok(PlanInput {
                                source,
                                records,
                                width,
                                records_max1: records.max(1.0),
                                sid: input_sid(i, slot),
                                producer: Some(p.node),
                            })
                        })
                        .collect::<Result<_>>()?;
                    // Base-table reads are a memory input not represented
                    // as a graph edge.
                    if let SpatialOp::ColSelect { base: Some(_), .. } = &inst.op {
                        let records = prof.out_records.first().copied().unwrap_or(0) as f64;
                        let bytes = prof.mem_read_bytes as f64;
                        let width = if records > 0.0 { bytes / records } else { 0.0 };
                        inputs.push(PlanInput {
                            source: PlanSource::Memory,
                            records,
                            width,
                            records_max1: records.max(1.0),
                            sid: input_sid(i, inst.inputs.len()),
                            producer: None,
                        });
                    }
                    let in_total: f64 = inputs.iter().map(|inp| inp.records).sum();
                    let outputs: Vec<PlanOutput> = (0..inst.op.output_ports())
                        .map(|port| {
                            let records = prof.out_records.get(port).copied().unwrap_or(0) as f64;
                            let bytes = prof.out_bytes.get(port).copied().unwrap_or(0) as f64;
                            let width = if records > 0.0 { bytes / records } else { 0.0 };
                            let port_edges =
                                adj[id].iter().filter(|(p, _)| p.port == port);
                            let consumers: Vec<(usize, usize)> = port_edges
                                .clone()
                                .filter(|(_, c)| schedule.stage_of[*c] == stage)
                                .filter_map(|&(p, c)| {
                                    let slot =
                                        graph.node(c).inputs.iter().position(|q| *q == p)?;
                                    let cn = pos[c];
                                    if cn == usize::MAX {
                                        return None;
                                    }
                                    Some((cn, input_sid(cn, slot)))
                                })
                                .collect();
                            let mut any_edge = false;
                            let cross_stage = port_edges.clone().any(|&(_, c)| {
                                any_edge = true;
                                schedule.stage_of[c] != stage
                            });
                            let to_memory = cross_stage || !any_edge;
                            PlanOutput {
                                records,
                                width,
                                consumers,
                                to_memory,
                                ratio: if in_total > 0.0 { records / in_total } else { 0.0 },
                                sid: output_sid(i, id, port),
                            }
                        })
                        .collect();
                    Ok(PlanNode {
                        node: id,
                        kind: inst.op.tile_kind(),
                        mode: consume_mode(&inst.op),
                        inputs,
                        outputs,
                        is_sorter: matches!(inst.op, SpatialOp::Sorter { .. }),
                        in_total,
                    })
                })
                .collect::<Result<_>>()?;

            for &id in &tinst.nodes {
                pos[id] = usize::MAX;
            }

            // Connection census, memory volumes, cap thresholds and the
            // quantum — all config-independent.
            let mut fill = 0.0_f64;
            let mut spill = 0.0_f64;
            let mut max_records = 0.0_f64;
            let (mut stage_read, mut stage_write) = (0.0_f64, 0.0_f64);
            for node in &nodes {
                let dst = node.kind as usize;
                for input in &node.inputs {
                    let src = match input.source {
                        PlanSource::InStage { src_kind, .. } => {
                            noc_w = noc_w.max(input.width);
                            src_kind as usize
                        }
                        PlanSource::Memory => {
                            fill += input.records * input.width;
                            stage_read += input.width;
                            MEMORY_ENDPOINT
                        }
                    };
                    connections.add(src, dst, 1.0);
                    max_records = max_records.max(input.records);
                }
                for output in &node.outputs {
                    if !output.consumers.is_empty() {
                        noc_w = noc_w.max(output.width);
                    }
                    if output.to_memory {
                        connections.add(dst, MEMORY_ENDPOINT, 1.0);
                        spill += output.records * output.width;
                        stage_write += output.width;
                    }
                    max_records = max_records.max(output.records);
                }
            }
            read_w = read_w.max(stage_read);
            write_w = write_w.max(stage_write);
            let dt = (max_records / 8192.0).ceil().max(64.0);
            max_streams = max_streams.max(streams);
            max_nodes = max_nodes.max(nodes.len());
            stages.push(StageTopo {
                nodes,
                dt,
                streams,
                fill_bytes: fill.round() as u64,
                spill_bytes: spill.round() as u64,
            });
        }

        let mut output_bytes = 0u64;
        for id in graph.sinks() {
            for port in 0..graph.node(id).op.output_ports() {
                output_bytes += profile.edge_bytes(id, port);
            }
        }

        Ok(StagePlan {
            stages,
            connections,
            spill_bytes: schedule.spill_bytes(graph, profile),
            input_bytes: profile.input_bytes(),
            output_bytes,
            max_streams,
            max_nodes,
            cap_thresholds: (noc_w, read_w, write_w),
            schedule,
        })
    }

    /// Number of compiled temporal instructions.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// The schedule this plan was compiled from.
    #[must_use]
    pub fn schedule(&self) -> &Arc<Schedule> {
        &self.schedule
    }

    /// The largest per-stream byte demand each provisioned bandwidth
    /// cap could ever have to carry per cycle, as
    /// `(noc_w_max, read_w_max, write_w_max)`:
    ///
    /// * `noc_w_max` — max byte width over every in-stage input stream
    ///   and every output port with an in-stage consumer (a NoC cap of
    ///   at least this many bytes/cycle can never clamp any stream's
    ///   advance below its nominal one-record-per-cycle rate);
    /// * `read_w_max` — max over stages of the summed byte widths of
    ///   memory-sourced inputs (the per-quantum read demand is bounded
    ///   by `dt ×` that sum);
    /// * `write_w_max` — max over stages of the summed byte widths of
    ///   to-memory outputs.
    ///
    /// Peer-to-peer links are ignored (treated as NoC-capped), which
    /// only ever *raises* the thresholds — sound for callers proving a
    /// derated cap invisible. Computed once by [`StagePlan::compile`];
    /// used by scenario canonicalization in [`crate::resilience`].
    #[must_use]
    pub fn cap_thresholds(&self) -> (f64, f64, f64) {
        self.cap_thresholds
    }
}

/// Caller-owned mutable state of a plan-driven simulation.
///
/// Holds every per-run vector the quantum loop touches — stream
/// progress, pass-1 scratch, quantum-jump delta buffers, and hoisted
/// per-node rates — sized once to the plan's maxima and reused across
/// simulations, so the hot path never allocates. One scratch serves any
/// number of sequential runs over any plans (it regrows to the largest
/// seen); sweeps keep one per worker.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Progress (records done) per stream id.
    pub(crate) done: Vec<f64>,
    /// Pass-1 desired advance per node.
    pub(crate) desired: Vec<f64>,
    /// `out_available` per output stream id. It reads only the node's
    /// own inputs, so the value cached after the node's last advance
    /// (seeded at stage start, refreshed after closed-form folds) is current when
    /// its next pass 1 reads it.
    pub(crate) allowed: Vec<f64>,
    /// Per-stream advance of the current quantum (the certified segment
    /// rates the event-horizon solver folds).
    pub(crate) deltas: Vec<f64>,
    /// Per-node derated quantum advance (`dt * tile_factor`).
    pub(crate) adv0: Vec<f64>,
    /// Per-input-stream NoC cap in records (`+inf` when uncapped).
    pub(crate) noc_in: Vec<f64>,
    /// Per-output-stream NoC base cap in records (valid when capped).
    pub(crate) noc_out: Vec<f64>,
    /// Whether each output stream has a NoC-capped consumer link.
    pub(crate) out_capped: Vec<bool>,
    /// Per-node count of its streams (inputs and output ports) still
    /// short of their record totals in the current stage.
    pub(crate) node_open: Vec<u32>,
    /// Per-node flag: every stream of the node is done and pass 1 has
    /// run once in that state, so both passes are no-ops for the rest
    /// of the stage. Reset per stage.
    pub(crate) retired: Vec<bool>,
    /// Unfinished streams of the current stage (the sum of
    /// `node_open`); the stage ends when it reaches zero.
    pub(crate) open_streams: usize,
    /// Per-stream largest single-quantum advance in the current stage,
    /// converted into `peak_gbps` once when the stage ends.
    pub(crate) peak_adv: Vec<f64>,
    /// Quanta skipped by the quantum-jump fast path in the last run.
    pub jumped_quanta: u64,
    /// Quanta executed step-by-step in the last run.
    pub stepped_quanta: u64,
    /// Number of fused jumps taken in the last run.
    pub jumps: u64,
    /// Unretired node-quanta run inside replay folds in the last run.
    pub replayed_node_quanta: u64,
    /// Node-quanta of retired nodes whose passes `step` skipped in the
    /// last run (inside replay folds too).
    pub retired_node_quanta: u64,
}

impl SimScratch {
    /// A fresh, empty scratch (vectors grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Resizes all vectors for `plan` and zeroes the run statistics.
    pub(crate) fn begin_run(&mut self, plan: &StagePlan) {
        let s = plan.max_streams;
        if self.done.len() < s {
            self.done.resize(s, 0.0);
            self.allowed.resize(s, 0.0);
            self.deltas.resize(s, 0.0);
            self.noc_in.resize(s, 0.0);
            self.noc_out.resize(s, 0.0);
            self.out_capped.resize(s, false);
            self.peak_adv.resize(s, 0.0);
        }
        if self.desired.len() < plan.max_nodes {
            self.desired.resize(plan.max_nodes, 0.0);
            self.adv0.resize(plan.max_nodes, 0.0);
            self.node_open.resize(plan.max_nodes, 0);
            self.retired.resize(plan.max_nodes, false);
        }
        self.jumped_quanta = 0;
        self.stepped_quanta = 0;
        self.jumps = 0;
        self.replayed_node_quanta = 0;
        self.retired_node_quanta = 0;
    }
}

/// The memo of schedules and compiled plans, keyed by *query tag ×
/// scheduler × demand-clamped tile mix* (see [`BoundedCache`]).
///
/// A [`StagePlan`] and the [`Schedule`] it was compiled from depend
/// only on the query graph, scheduler, volume profile, and the tile mix
/// up to each kind's node demand ([`QueryGraph::clamp_mix`]); callers
/// assign each distinct (graph, profile) pair a stable `tag`. On a miss,
/// [`PlanCache::get_or_compile`] schedules the clamped mix and compiles
/// the topology once; every later mix with the same clamp, and every
/// configuration of a bandwidth sweep, reuses the compiled artifact
/// (and its schedule, [`StagePlan::schedule`]). Compilation is
/// single-flight, so each key is scheduled exactly once regardless of
/// worker timing.
pub type PlanCache = BoundedCache<(u64, SchedulerKind, TileMix), Arc<StagePlan>>;

impl PlanCache {
    /// Returns the memoized plan for `(tag, kind, graph.clamp_mix(mix))`,
    /// scheduling the clamped mix and compiling on a miss — the same
    /// schedule `mix` itself would give, and legal on `mix`.
    ///
    /// `tag` must uniquely identify the (graph, profile) pair among all
    /// users of this cache; [`Schedule::validate`] still guards every
    /// execution downstream, so a tag collision fails loudly rather
    /// than silently mistiming a query.
    ///
    /// # Errors
    ///
    /// Propagates scheduler and compilation errors; failures are not
    /// cached.
    pub fn get_or_compile(
        &self,
        tag: u64,
        kind: SchedulerKind,
        graph: &QueryGraph,
        mix: &TileMix,
        profile: &GraphProfile,
    ) -> Result<Arc<StagePlan>> {
        let mix = graph.clamp_mix(mix);
        self.get_or_insert_with((tag, kind, mix), || {
            let schedule = sched::schedule(kind, graph, &mix, profile)?;
            StagePlan::compile(graph, Arc::new(schedule), profile).map(Arc::new)
        })
    }
}
