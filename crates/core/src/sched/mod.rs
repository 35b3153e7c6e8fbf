//! Query scheduling: mapping spatial instructions onto temporal
//! instructions (Section 3.4 of the paper).
//!
//! A Q100 configuration generally has fewer tiles than a query has
//! instructions, so the graph is sliced into a sequence of *temporal
//! instructions* executed back to back. An instruction may be scheduled
//! in a stage only if (1) a tile of its kind is still free in that stage
//! and (2) all of its producers are scheduled in the same or an earlier
//! stage. Data crossing a stage boundary spills to memory — written by
//! the producer's stage and re-read by each consumer stage.

mod data_aware;
mod exhaustive;
mod naive;

pub use data_aware::schedule_data_aware;
pub use exhaustive::schedule_semi_exhaustive;
pub use naive::schedule_naive;

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::cache::BoundedCache;
pub use crate::cache::CacheStats;
use crate::config::{SchedulerKind, TileMix};
use crate::error::{CoreError, Result};
use crate::exec::functional::GraphProfile;
use crate::isa::graph::{NodeId, QueryGraph};
use crate::tiles::TileKind;

/// One temporal instruction: the set of spatial instructions resident on
/// the array during one stage.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tinst {
    /// Scheduled node ids, in ascending order.
    pub nodes: Vec<NodeId>,
}

/// A complete schedule of a query graph onto a tile mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The temporal instructions in execution order.
    pub tinsts: Vec<Tinst>,
    /// `stage_of[node]` is the index of the tinst holding `node`.
    pub stage_of: Vec<usize>,
}

/// Hashes `stage_of` alone: the temporal instructions are a function of
/// it, so equal schedules still hash equal.
impl Hash for Schedule {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.stage_of.hash(state);
    }
}

impl Schedule {
    /// Assembles a schedule from a per-node stage assignment.
    #[must_use]
    pub fn from_stages(stage_of: Vec<usize>) -> Self {
        let stages = stage_of.iter().copied().max().map_or(0, |m| m + 1);
        let mut tinsts = vec![Tinst::default(); stages];
        for (node, &s) in stage_of.iter().enumerate() {
            tinsts[s].nodes.push(node);
        }
        Schedule { tinsts, stage_of }
    }

    /// Number of temporal instructions.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.tinsts.len()
    }

    /// Checks both scheduling constraints against `graph` and `mix`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unschedulable`] describing the first
    /// violated constraint.
    pub fn validate(&self, graph: &QueryGraph, mix: &TileMix) -> Result<()> {
        if self.stage_of.len() != graph.len() {
            return Err(CoreError::Unschedulable {
                kind: "any",
                reason: format!(
                    "schedule covers {} nodes, graph has {}",
                    self.stage_of.len(),
                    graph.len()
                ),
            });
        }
        for (producer_port, consumer) in graph.edges() {
            if self.stage_of[producer_port.node] > self.stage_of[consumer] {
                return Err(CoreError::Unschedulable {
                    kind: "dependency",
                    reason: format!(
                        "node {} (stage {}) consumes node {} scheduled later (stage {})",
                        consumer,
                        self.stage_of[consumer],
                        producer_port.node,
                        self.stage_of[producer_port.node]
                    ),
                });
            }
        }
        for (stage, tinst) in self.tinsts.iter().enumerate() {
            let mut used = [0u32; TileKind::COUNT];
            for &node in &tinst.nodes {
                let kind = graph.node(node).op.tile_kind();
                used[kind as usize] += 1;
                if used[kind as usize] > mix.count(kind) {
                    return Err(CoreError::Unschedulable {
                        kind: kind.spec().name,
                        reason: format!(
                            "stage {stage} uses {} {kind} tiles, mix has {}",
                            used[kind as usize],
                            mix.count(kind)
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Bytes spilled to memory by this schedule: every producer port
    /// with at least one cross-stage consumer writes its stream once,
    /// and each consumer stage that is not the producer's re-reads it
    /// once.
    #[must_use]
    pub fn spill_bytes(&self, graph: &QueryGraph, profile: &GraphProfile) -> u64 {
        // One edge pass groups the cross-stage consumer stages of each
        // producer port; sorting then deduplicates distinct stages, so
        // the whole computation is O(E log E) instead of a full edge
        // rescan per output port.
        let mut crossings: Vec<(NodeId, usize, usize)> = Vec::new();
        for (p, c) in graph.edges() {
            if self.stage_of[c] != self.stage_of[p.node] {
                crossings.push((p.node, p.port, self.stage_of[c]));
            }
        }
        crossings.sort_unstable();
        crossings.dedup();
        let mut total = 0u64;
        let mut i = 0;
        while i < crossings.len() {
            let (node, port, _) = crossings[i];
            let mut j = i;
            while j < crossings.len() && (crossings[j].0, crossings[j].1) == (node, port) {
                j += 1;
            }
            let bytes = profile.edge_bytes(node, port);
            if bytes > 0 {
                // One write by the producer stage, one read per distinct
                // consumer stage.
                total += bytes * (1 + (j - i) as u64);
            }
            i = j;
        }
        total
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Schedule({} stages: ", self.stages())?;
        for (i, t) in self.tinsts.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{}", t.nodes.len())?;
        }
        write!(f, ")")
    }
}

/// Verifies that every tile kind the graph uses exists in the mix (a
/// graph is schedulable iff each required kind has at least one tile,
/// since a stage can always hold a single instruction).
///
/// # Errors
///
/// Returns [`CoreError::Unschedulable`] naming the missing kind.
pub fn check_feasible(graph: &QueryGraph, mix: &TileMix) -> Result<()> {
    let hist = graph.kind_histogram();
    for kind in TileKind::ALL {
        if hist[kind as usize] > 0 && mix.count(kind) == 0 {
            return Err(CoreError::Unschedulable {
                kind: kind.spec().name,
                reason: "the mix provides zero tiles of a required kind".into(),
            });
        }
    }
    Ok(())
}

/// Runs the selected scheduling algorithm.
///
/// # Errors
///
/// Returns [`CoreError::Unschedulable`] when the graph cannot be placed
/// on the mix at all.
pub fn schedule(
    kind: SchedulerKind,
    graph: &QueryGraph,
    mix: &TileMix,
    profile: &GraphProfile,
) -> Result<Schedule> {
    check_feasible(graph, mix)?;
    let s = match kind {
        SchedulerKind::Naive => schedule_naive(graph, mix),
        SchedulerKind::DataAware => schedule_data_aware(graph, mix, profile),
        SchedulerKind::SemiExhaustive => schedule_semi_exhaustive(graph, mix, profile),
    };
    debug_assert!(s.validate(graph, mix).is_ok());
    Ok(s)
}

/// Shared greedy list-scheduling core used by the naive and data-aware
/// algorithms: repeatedly fills one stage with ready instructions, then
/// advances.
///
/// Readiness is tracked incrementally — per-node pending-producer
/// counters plus one ordered ready set per tile kind — so a placement
/// costs O(log V) instead of a full O(V) candidate rescan, and the whole
/// schedule is built in O((V + E) log V). Each ready set is keyed by
///
/// ```text
/// (resident volume into the current stage, heaviest out-edge, Reverse(id))
/// ```
///
/// whose set *maximum* is exactly the candidate the previous
/// rescan-and-argmax implementation picked: largest resident volume,
/// then heaviest outgoing edge, ties to the lowest node id. With
/// `profile` absent both scores are zero for every node and the pick
/// degenerates to lowest id, i.e. topological (naive) order.
///
/// A node's resident volume only changes when one of its producers is
/// placed, and every producer is placed before the node enters a ready
/// set, so keys never need re-ordering mid-stage; at a stage boundary
/// the residency of touched ready nodes resets to zero and only those
/// few keys are rebuilt.
pub(crate) fn list_schedule(
    graph: &QueryGraph,
    mix: &TileMix,
    profile: Option<&GraphProfile>,
) -> Schedule {
    use std::cmp::Reverse;
    use std::collections::BTreeSet;

    type Key = (u64, u64, Reverse<NodeId>);

    let n = graph.len();
    let mut stage_of = vec![usize::MAX; n];
    if n == 0 {
        return Schedule::from_stages(stage_of);
    }

    // Static per-node data: tile kind, consumer adjacency (with edge
    // volumes in data-aware mode), pending-producer counts, and the
    // heaviest outgoing edge (the secondary score).
    let mut kind_of: Vec<usize> = Vec::with_capacity(n);
    let mut pending: Vec<usize> = vec![0; n];
    let mut consumers: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); n];
    let mut best_out: Vec<u64> = vec![0; n];
    for (id, node) in graph.nodes().iter().enumerate() {
        kind_of.push(node.op.tile_kind() as usize);
        pending[id] = node.inputs.len();
        for p in &node.inputs {
            let bytes = profile.map_or(0, |pr| pr.edge_bytes(p.node, p.port));
            consumers[p.node].push((id, bytes));
            best_out[p.node] = best_out[p.node].max(bytes);
        }
    }

    let mut ready: Vec<BTreeSet<Key>> = vec![BTreeSet::new(); TileKind::COUNT];
    let mut resident: Vec<u64> = vec![0; n];
    let mut touched: Vec<NodeId> = Vec::new();
    for id in 0..n {
        if pending[id] == 0 {
            ready[kind_of[id]].insert((0, best_out[id], Reverse(id)));
        }
    }

    let capacity: Vec<u32> = TileKind::ALL.iter().map(|&k| mix.count(k)).collect();
    let mut placed = 0usize;
    let mut stage = 0usize;
    while placed < n {
        let mut used = [0u32; TileKind::COUNT];
        loop {
            // Best candidate across kinds with free capacity. Keys are
            // unique (ids differ), so `>` is a total order here.
            let mut best: Option<(Key, usize)> = None;
            for (k, set) in ready.iter().enumerate() {
                if used[k] >= capacity[k] {
                    continue;
                }
                if let Some(&key) = set.iter().next_back() {
                    if best.is_none_or(|(b, _)| key > b) {
                        best = Some((key, k));
                    }
                }
            }
            let Some((key, k)) = best else { break };
            let id = key.2 .0;
            ready[k].remove(&key);
            stage_of[id] = stage;
            used[k] += 1;
            placed += 1;
            for &(c, bytes) in &consumers[id] {
                pending[c] -= 1;
                // Every producer of `c` is placed before `c` becomes
                // ready, so `c` is never inside a ready set here and its
                // resident volume can grow without re-keying.
                if bytes > 0 {
                    if resident[c] == 0 {
                        touched.push(c);
                    }
                    resident[c] += bytes;
                }
                if pending[c] == 0 {
                    ready[kind_of[c]].insert((resident[c], best_out[c], Reverse(c)));
                }
            }
        }
        stage += 1;
        // Residency is relative to the current stage: nodes readied with
        // a same-stage producer drop back to score zero when it closes.
        for &t in &touched {
            if stage_of[t] == usize::MAX && pending[t] == 0 {
                let set = &mut ready[kind_of[t]];
                set.remove(&(resident[t], best_out[t], Reverse(t)));
                set.insert((0, best_out[t], Reverse(t)));
            }
            resident[t] = 0;
        }
        touched.clear();
        // A stage can never be empty: any unplaced node with all
        // producers placed fits in a fresh stage (capacity >= 1 per
        // check_feasible), and at least one such node always exists in a
        // DAG. Guard against infinite loops regardless.
        assert!(placed == n || stage <= n, "list scheduler failed to make progress");
    }
    Schedule::from_stages(stage_of)
}

/// A thread-safe memo of schedules keyed by *query tag × scheduler ×
/// demand-clamped tile mix* (see [`BoundedCache`]).
///
/// A schedule depends only on the query graph, the scheduling
/// algorithm, the tile mix, and the volume profile — and on the mix
/// only up to each kind's node demand ([`QueryGraph::clamp_mix`]).
/// For a prepared workload the graph and profile are fixed per query,
/// so bandwidth sweeps (which vary only NoC/memory caps) re-derive
/// identical schedules hundreds of times, and a tile-mix sweep's mixes
/// collapse onto the few clamps each query can tell apart. Callers
/// assign each distinct (graph, profile) pair a stable `tag` and the
/// cache returns the memoized [`Schedule`] on every revisit.
pub type ScheduleCache = BoundedCache<(u64, SchedulerKind, TileMix), Arc<Schedule>>;

impl ScheduleCache {
    /// Returns the memoized schedule for `(tag, kind, graph.clamp_mix(mix))`,
    /// running the scheduler on the clamped mix on a miss — the same
    /// schedule `mix` itself would give, and legal on `mix`.
    ///
    /// `tag` must uniquely identify the (graph, profile) pair among all
    /// users of this cache; [`Schedule::validate`] still guards every
    /// execution downstream, so a tag collision fails loudly rather
    /// than silently mistiming a query.
    ///
    /// # Errors
    ///
    /// Propagates scheduler errors; failures are not cached.
    pub fn get_or_schedule(
        &self,
        tag: u64,
        kind: SchedulerKind,
        graph: &QueryGraph,
        mix: &TileMix,
        profile: &GraphProfile,
    ) -> Result<Arc<Schedule>> {
        let mix = graph.clamp_mix(mix);
        self.get_or_insert_with((tag, kind, mix), || {
            schedule(kind, graph, &mix, profile).map(Arc::new)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::graph::QueryGraph;
    use crate::isa::ops::CmpOp;
    use q100_columnar::Value;

    pub(crate) fn chain_graph() -> QueryGraph {
        // colselect -> boolgen -> colfilter chain plus a second filter.
        let mut b = QueryGraph::builder("chain");
        let a = b.col_select_base("t", "x");
        let c = b.col_select_base("t", "y");
        let bg = b.bool_gen_const(a, CmpOp::Lt, Value::Int(5));
        let f1 = b.col_filter(a, bg);
        let f2 = b.col_filter(c, bg);
        let _s = b.stitch(&[f1, f2]);
        b.finish().unwrap()
    }

    #[test]
    fn from_stages_buckets_nodes() {
        let s = Schedule::from_stages(vec![0, 0, 1, 2, 1]);
        assert_eq!(s.stages(), 3);
        assert_eq!(s.tinsts[1].nodes, vec![2, 4]);
    }

    #[test]
    fn validate_catches_dependency_and_capacity_violations() {
        let g = chain_graph();
        let mix = TileMix::uniform(10);
        // boolgen (node 2) scheduled before its producer's stage.
        let bad = Schedule::from_stages(vec![1, 0, 0, 1, 1, 1]);
        assert!(bad.validate(&g, &mix).is_err());

        // Two ColSelects in one stage with a 1-ColSelect mix.
        let tight = TileMix::uniform(1);
        let packed = Schedule::from_stages(vec![0, 0, 0, 0, 1, 1]);
        assert!(packed.validate(&g, &tight).is_err());

        let ok = Schedule::from_stages(vec![0, 0, 0, 0, 0, 0]);
        assert!(ok.validate(&g, &mix).is_ok());
    }

    #[test]
    fn check_feasible_requires_each_used_kind() {
        let g = chain_graph();
        assert!(check_feasible(&g, &TileMix::uniform(1)).is_ok());
        let no_filters = TileMix::uniform(1).with_count(TileKind::ColFilter, 0);
        assert!(check_feasible(&g, &no_filters).is_err());
    }

    #[test]
    fn spill_counts_write_plus_reads() {
        let g = chain_graph();
        // Profile with 100 bytes out of every node.
        let mut profile = GraphProfile::default();
        for node in g.nodes() {
            profile.nodes.push(crate::exec::functional::NodeProfile {
                out_bytes: vec![100; node.op.output_ports()],
                out_records: vec![10; node.op.output_ports()],
                ..Default::default()
            });
        }
        // Everything in one stage: no spills.
        let s = Schedule::from_stages(vec![0; g.len()]);
        assert_eq!(s.spill_bytes(&g, &profile), 0);
        // Split after boolgen: edges a->f1 (cross), a->bg (same), bg->f1,
        // bg->f2 cross, c->f2 cross ... count: producer a port0 has
        // consumers in stage 1 => 100*(1+1); bg => 200; c => 200. f1,f2->stitch same stage.
        let s = Schedule::from_stages(vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(s.spill_bytes(&g, &profile), 600);
    }

    #[test]
    fn all_three_schedulers_produce_valid_schedules() {
        let g = chain_graph();
        let mix = TileMix::uniform(1);
        let profile = {
            let mut p = GraphProfile::default();
            for node in g.nodes() {
                p.nodes.push(crate::exec::functional::NodeProfile {
                    out_bytes: vec![64; node.op.output_ports()],
                    out_records: vec![8; node.op.output_ports()],
                    ..Default::default()
                });
            }
            p
        };
        for kind in [SchedulerKind::Naive, SchedulerKind::DataAware, SchedulerKind::SemiExhaustive]
        {
            let s = schedule(kind, &g, &mix, &profile).unwrap();
            s.validate(&g, &mix).unwrap();
            assert_eq!(s.stage_of.len(), g.len());
        }
    }

    #[test]
    fn schedule_fails_fast_on_missing_kind() {
        let g = chain_graph();
        let mix = TileMix::uniform(1).with_count(TileKind::Stitch, 0);
        let profile = GraphProfile { nodes: vec![Default::default(); g.len()] };
        assert!(schedule(SchedulerKind::Naive, &g, &mix, &profile).is_err());
    }

    #[test]
    fn schedule_cache_keys_on_the_demand_clamped_mix() {
        // Regression test for the resilience layer: rescheduling a query
        // on a *degraded* mix (same tag, same scheduler) must never be
        // answered with the full-mix schedule. A kill that takes a kind
        // below the graph's demand changes the clamped key, so it is a
        // distinct entry; surplus capacity beyond the demand is not.
        let g = chain_graph();
        let profile = GraphProfile { nodes: vec![Default::default(); g.len()] };
        let cache = ScheduleCache::new();
        let full = TileMix::uniform(2);
        let degraded = full.with_count(TileKind::ColFilter, 1);

        let s_full =
            cache.get_or_schedule(3, SchedulerKind::DataAware, &g, &full, &profile).unwrap();
        let s_degraded =
            cache.get_or_schedule(3, SchedulerKind::DataAware, &g, &degraded, &profile).unwrap();
        assert_eq!(cache.len(), 2, "degraded mix must occupy its own cache slot");
        assert!(
            !std::sync::Arc::ptr_eq(&s_full, &s_degraded),
            "degraded lookup must not alias the full-mix schedule"
        );
        // The degraded schedule respects the degraded capacity...
        s_degraded.validate(&g, &degraded).unwrap();
        // ...while the full-mix schedule packs both ColFilters into one
        // stage and would be illegal on the degraded machine.
        assert!(s_full.validate(&g, &degraded).is_err());

        // Extra tiles of any kind (used or not) clamp back onto the
        // full mix's key and reuse its schedule.
        let roomy = TileMix::uniform(9);
        let s_roomy =
            cache.get_or_schedule(3, SchedulerKind::DataAware, &g, &roomy, &profile).unwrap();
        assert!(std::sync::Arc::ptr_eq(&s_full, &s_roomy));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 });
    }
}
