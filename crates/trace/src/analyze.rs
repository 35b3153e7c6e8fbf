//! Bottleneck attribution: the blame data model and its analyses.
//!
//! The timing simulator (in `q100-core`) can classify, per plan node
//! and per quantum, every cycle of a query's runtime into either
//! *active* streaming or one of the exhaustive [`BlameCause`]s, and
//! accumulate the ledger into a [`BlameReport`]. This module owns the
//! report type (kept core-independent: tile kinds are endpoint indices,
//! dependencies are graph node ids) and the derived analyses:
//!
//! * [`critical_path`] — the heaviest chain through the compiled-plan
//!   DAG, weighted by per-node active cycles;
//! * [`kind_utilization`] / [`link_utilization`] /
//!   [`utilization_histogram`] — how busy each tile class, each
//!   same-stage producer→consumer link class, and the node population
//!   are over the whole runtime;
//! * [`what_ifs`] — analytical estimates of relaxing one resource
//!   (double a bandwidth cap, add one tile instance) computed directly
//!   from the blame ledger, with no re-simulation.
//!
//! The accounting invariant every report must satisfy (enforced by
//! [`BlameReport::check_invariant`] and a property test in core): for
//! every node, `active_cycles + Σ blamed == total query cycles`. Every
//! cycle of the run is attributed, for every node, exactly once.

use std::collections::HashMap;

use crate::metrics::Histogram;

/// Why a node failed to make ideal progress during some cycles.
///
/// The taxonomy is exhaustive: every non-active cycle of every node
/// lands in exactly one bucket (see DESIGN.md §11 for the attribution
/// rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum BlameCause {
    /// An in-stage producer had not yet made the records available.
    InputStarvation = 0,
    /// Downstream could not accept output: consumer queue full, or the
    /// port's own availability/streaming window was the binding clamp.
    OutputBackpressure = 1,
    /// A per-link NoC bandwidth cap was the binding clamp.
    NocBandwidth = 2,
    /// The shared memory *read* endpoint budget scaled the advance down.
    MemReadBandwidth = 3,
    /// The shared memory *write* endpoint budget throttled an output
    /// port that spills to memory.
    MemWriteBandwidth = 4,
    /// The fixed per-temporal-instruction memory startup latency.
    MemStartup = 5,
    /// Tile-mix serialization: the node's stage had not started yet
    /// because earlier temporal instructions still held the tiles.
    TileWait = 6,
    /// Fault-injection derating: frequency-derated tiles and transient
    /// per-stage stall cycles (resilience layer).
    FaultDerate = 7,
    /// The node had finished its own work (or was consuming the tail of
    /// a finishing stream) while the rest of the query kept running.
    Drained = 8,
}

impl BlameCause {
    /// Number of causes in the taxonomy.
    pub const COUNT: usize = 9;

    /// Every cause, in index order.
    pub const ALL: [BlameCause; BlameCause::COUNT] = [
        BlameCause::InputStarvation,
        BlameCause::OutputBackpressure,
        BlameCause::NocBandwidth,
        BlameCause::MemReadBandwidth,
        BlameCause::MemWriteBandwidth,
        BlameCause::MemStartup,
        BlameCause::TileWait,
        BlameCause::FaultDerate,
        BlameCause::Drained,
    ];

    /// Stable machine-readable name (used in `q100-blame-v1` JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BlameCause::InputStarvation => "input_starvation",
            BlameCause::OutputBackpressure => "output_backpressure",
            BlameCause::NocBandwidth => "noc_bandwidth",
            BlameCause::MemReadBandwidth => "mem_read_bandwidth",
            BlameCause::MemWriteBandwidth => "mem_write_bandwidth",
            BlameCause::MemStartup => "mem_startup",
            BlameCause::TileWait => "tile_wait",
            BlameCause::FaultDerate => "fault_derate",
            BlameCause::Drained => "drained",
        }
    }

    /// Index into per-cause arrays (the discriminant).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The full cycle ledger of one plan node over one simulated query.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeBlame {
    /// Graph node id.
    pub node: u32,
    /// Tile kind as an endpoint index (resolved to a name by the
    /// caller's endpoint table, as everywhere in this crate).
    pub kind: u16,
    /// Temporal instruction (stage) the node executed in.
    pub stage: u32,
    /// Cycles the node spent actively streaming records.
    pub active_cycles: f64,
    /// Cycles blamed on each [`BlameCause`], indexed by
    /// [`BlameCause::index`].
    pub blamed: [f64; BlameCause::COUNT],
    /// Graph node ids of this node's producers (the compiled-plan DAG
    /// edges; producers outside the plan, e.g. base tables, are
    /// omitted).
    pub deps: Vec<u32>,
}

impl NodeBlame {
    /// Total blamed (non-active) cycles.
    #[must_use]
    pub fn blamed_total(&self) -> f64 {
        self.blamed.iter().sum()
    }

    /// Active plus blamed cycles — must equal the query's total cycles.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.active_cycles + self.blamed_total()
    }
}

/// Per-query blame accounting: one ledger per plan node, plus the
/// run-level context the analyses need.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameReport {
    /// End-to-end simulated cycles of the query.
    pub cycles: u64,
    /// Cycles of each temporal instruction (including memory startup
    /// latency and fault stalls), summing to `cycles`.
    pub per_stage_cycles: Vec<u64>,
    /// Tile instances per kind in the simulated design (indexed by
    /// endpoint index; memory has no entry).
    pub tile_counts: Vec<u32>,
    /// One ledger per plan node, in stage-major plan order.
    pub nodes: Vec<NodeBlame>,
}

impl BlameReport {
    /// Sum of blamed cycles per cause over all nodes.
    #[must_use]
    pub fn cause_totals(&self) -> [f64; BlameCause::COUNT] {
        let mut totals = [0.0; BlameCause::COUNT];
        for node in &self.nodes {
            for (t, b) in totals.iter_mut().zip(&node.blamed) {
                *t += b;
            }
        }
        totals
    }

    /// Sum of active cycles over all nodes.
    #[must_use]
    pub fn active_total(&self) -> f64 {
        self.nodes.iter().map(|n| n.active_cycles).sum()
    }

    /// Causes sorted by total blamed cycles, descending (ties broken by
    /// cause index — deterministic).
    #[must_use]
    pub fn top_causes(&self) -> Vec<(BlameCause, f64)> {
        let totals = self.cause_totals();
        let mut out: Vec<(BlameCause, f64)> =
            BlameCause::ALL.iter().map(|&c| (c, totals[c.index()])).collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        out
    }

    /// Verifies the accounting invariant: for every node,
    /// `active + Σ blamed == cycles` (within floating-point accumulation
    /// tolerance) and no bucket is negative.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated node.
    pub fn check_invariant(&self) -> Result<(), String> {
        let total = self.cycles as f64;
        let tol = total.max(1.0) * 1e-6;
        for node in &self.nodes {
            if node.active_cycles < -1e-9 {
                return Err(format!("node {}: negative active cycles", node.node));
            }
            for (&b, cause) in node.blamed.iter().zip(BlameCause::ALL) {
                if b < -1e-9 {
                    return Err(format!("node {}: negative {} blame", node.node, cause.name()));
                }
            }
            let sum = node.total();
            if (sum - total).abs() > tol {
                return Err(format!(
                    "node {} (stage {}): active+blamed = {sum} != total cycles {total}",
                    node.node, node.stage
                ));
            }
        }
        let stage_sum: u64 = self.per_stage_cycles.iter().sum();
        if stage_sum != self.cycles {
            return Err(format!("stage cycles sum {stage_sum} != total {}", self.cycles));
        }
        Ok(())
    }
}

/// The heaviest dependency chain through the plan DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Graph node ids along the path, source first.
    pub nodes: Vec<u32>,
    /// Sum of active cycles along the path.
    pub cycles: f64,
    /// `cycles` as a fraction of the query's total cycles.
    pub fraction: f64,
}

/// Extracts the critical path: the longest path through the plan's
/// dependency DAG, weighted by each node's active cycles. Deterministic
/// — ties prefer the lowest graph node id.
#[must_use]
pub fn critical_path(report: &BlameReport) -> CriticalPath {
    let n = report.nodes.len();
    if n == 0 {
        return CriticalPath { nodes: Vec::new(), cycles: 0.0, fraction: 0.0 };
    }
    // Dense index over the (sparse) graph node ids present in the plan,
    // built once; should an id repeat, its first ledger wins.
    let mut dense: HashMap<u32, usize> = HashMap::with_capacity(n);
    for (i, nb) in report.nodes.iter().enumerate() {
        dense.entry(nb.node).or_insert(i);
    }
    let index_of = |id: u32| dense.get(&id).copied();
    let mut dist = vec![0.0_f64; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    // Kahn-style topological order, lowest node id first among the
    // ready set: each of the n placements rescans every node's
    // dependencies, O(n·(n + deps)).
    while order.len() < n {
        let mut next: Option<usize> = None;
        for (i, nb) in report.nodes.iter().enumerate() {
            if placed[i] {
                continue;
            }
            let ready = nb.deps.iter().all(|&d| index_of(d).is_none_or(|j| placed[j]));
            if ready && next.is_none_or(|b| nb.node < report.nodes[b].node) {
                next = Some(i);
            }
        }
        let Some(i) = next else {
            // A dependency cycle would be a compiler bug; bail with
            // whatever prefix we ordered rather than looping forever.
            break;
        };
        placed[i] = true;
        order.push(i);
    }
    for &i in &order {
        let nb = &report.nodes[i];
        let mut best: Option<usize> = None;
        for &d in &nb.deps {
            let Some(j) = index_of(d) else { continue };
            let better = match best {
                None => dist[j] > 0.0 || report.nodes[j].active_cycles >= 0.0,
                Some(b) => {
                    dist[j] > dist[b]
                        || (dist[j] == dist[b] && report.nodes[j].node < report.nodes[b].node)
                }
            };
            if better {
                best = Some(j);
            }
        }
        dist[i] = nb.active_cycles + best.map_or(0.0, |j| dist[j]);
        pred[i] = best;
    }
    let mut end = 0usize;
    for i in 1..n {
        if dist[i] > dist[end]
            || (dist[i] == dist[end] && report.nodes[i].node < report.nodes[end].node)
        {
            end = i;
        }
    }
    let mut chain = Vec::new();
    let mut cur = Some(end);
    while let Some(i) = cur {
        chain.push(report.nodes[i].node);
        cur = pred[i];
    }
    chain.reverse();
    let cycles = dist[end];
    let total = report.cycles as f64;
    CriticalPath {
        nodes: chain,
        cycles,
        fraction: if total > 0.0 { (cycles / total).min(1.0) } else { 0.0 },
    }
}

/// Aggregate utilization of one tile class over the whole runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct KindUtilization {
    /// Tile kind (endpoint index).
    pub kind: u16,
    /// Plan nodes of this kind.
    pub nodes: u32,
    /// Provisioned instances in the design.
    pub count: u32,
    /// Sum of active cycles over the class's nodes.
    pub busy_cycles: f64,
    /// Time-averaged busy fraction per provisioned instance:
    /// `busy / (cycles × count)`.
    pub utilization: f64,
}

/// Per-tile-class utilization, ascending by kind; classes with no plan
/// nodes are omitted.
#[must_use]
pub fn kind_utilization(report: &BlameReport) -> Vec<KindUtilization> {
    let total = report.cycles as f64;
    let kinds = report.tile_counts.len();
    let mut busy = vec![0.0_f64; kinds];
    let mut nodes = vec![0u32; kinds];
    for nb in &report.nodes {
        let k = nb.kind as usize;
        if k < kinds {
            busy[k] += nb.active_cycles;
            nodes[k] += 1;
        }
    }
    (0..kinds)
        .filter(|&k| nodes[k] > 0)
        .map(|k| {
            let count = report.tile_counts[k].max(1);
            KindUtilization {
                kind: k as u16,
                nodes: nodes[k],
                count: report.tile_counts[k],
                busy_cycles: busy[k],
                utilization: if total > 0.0 { busy[k] / (total * count as f64) } else { 0.0 },
            }
        })
        .collect()
}

/// Aggregate utilization of one same-stage producer→consumer link
/// class.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkUtilization {
    /// Producer tile kind (endpoint index).
    pub src: u16,
    /// Consumer tile kind (endpoint index).
    pub dst: u16,
    /// Number of same-stage edges of this class.
    pub edges: u32,
    /// Consumer active cycles summed over those edges (the cycles the
    /// link was actually streaming).
    pub busy_cycles: f64,
    /// `busy / (cycles × edges)`.
    pub utilization: f64,
}

/// Per-NoC-link-class utilization derived from consumer activity,
/// ascending by (src, dst). Cross-stage edges round-trip through memory
/// and are not NoC links, so they are excluded.
#[must_use]
pub fn link_utilization(report: &BlameReport) -> Vec<LinkUtilization> {
    use std::collections::BTreeMap;
    let total = report.cycles as f64;
    let mut links: BTreeMap<(u16, u16), (u32, f64)> = BTreeMap::new();
    for nb in &report.nodes {
        for &d in &nb.deps {
            let Some(p) = report.nodes.iter().find(|x| x.node == d) else { continue };
            if p.stage != nb.stage {
                continue;
            }
            let e = links.entry((p.kind, nb.kind)).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += nb.active_cycles;
        }
    }
    links
        .into_iter()
        .map(|((src, dst), (edges, busy))| LinkUtilization {
            src,
            dst,
            edges,
            busy_cycles: busy,
            utilization: if total > 0.0 && edges > 0 { busy / (total * edges as f64) } else { 0.0 },
        })
        .collect()
}

/// Bucket bounds for [`utilization_histogram`]: busy fractions.
pub const UTILIZATION_BOUNDS: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 0.9];

/// Histogram of per-node busy fractions (`active / cycles`) — a quick
/// view of how much of the plan idles.
#[must_use]
pub fn utilization_histogram(report: &BlameReport) -> Histogram {
    let mut h = Histogram::new(&UTILIZATION_BOUNDS);
    let total = report.cycles as f64;
    for nb in &report.nodes {
        h.observe(if total > 0.0 { nb.active_cycles / total } else { 0.0 });
    }
    h
}

/// One analytical resource-relaxation estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIf {
    /// Human-readable resource change, e.g. `+1 Joiner` or `2x NoC
    /// bandwidth`.
    pub label: String,
    /// Estimated cycles saved by the change.
    pub saved_cycles: f64,
    /// Estimated new total cycles.
    pub est_cycles: u64,
    /// Estimated runtime change in percent (negative = faster).
    pub delta_pct: f64,
}

/// Index of the per-stage critical node: the in-stage node with the
/// most non-idle cycles (total minus `TileWait` and `Drained`), ties to
/// the lowest graph node id. `None` for an empty stage.
fn stage_critical_node(report: &BlameReport, stage: u32) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, nb) in report.nodes.iter().enumerate() {
        if nb.stage != stage {
            continue;
        }
        let non_idle = nb.total()
            - nb.blamed[BlameCause::TileWait.index()]
            - nb.blamed[BlameCause::Drained.index()];
        let better = match best {
            None => true,
            Some((b, v)) => non_idle > v || (non_idle == v && nb.node < report.nodes[b].node),
        };
        if better {
            best = Some((i, non_idle));
        }
    }
    best.map(|(i, _)| i)
}

/// Analytical what-if estimates from the blame ledger — no
/// re-simulation. Two families of relaxations (see DESIGN.md §11 for
/// the model and its assumptions):
///
/// * **2× a bandwidth resource** (NoC link, memory read, memory write):
///   halves the cycles the *per-stage critical node* blames on that
///   resource. Only the critical node's stalls extend the stage, and
///   doubling a cap at most halves the time lost to it.
/// * **+1 tile of kind K** (count n → n+1): shrinks the span of
///   K-saturated stages (stages using every provisioned instance of K)
///   by `1/(n+1)`, the work-conserving redistribution bound.
///
/// `kind_names` resolves endpoint indices for the labels. Results are
/// sorted by estimated savings, descending; zero-savings entries are
/// dropped.
#[must_use]
pub fn what_ifs(report: &BlameReport, kind_names: &[&str]) -> Vec<WhatIf> {
    let total = report.cycles as f64;
    if total <= 0.0 {
        return Vec::new();
    }
    let mut out: Vec<WhatIf> = Vec::new();
    let stages = report.per_stage_cycles.len();

    // Bandwidth relaxations.
    for (cause, label) in [
        (BlameCause::NocBandwidth, "2x NoC bandwidth"),
        (BlameCause::MemReadBandwidth, "2x memory read bandwidth"),
        (BlameCause::MemWriteBandwidth, "2x memory write bandwidth"),
    ] {
        let mut saved = 0.0;
        for s in 0..stages {
            if let Some(i) = stage_critical_node(report, s as u32) {
                saved += 0.5 * report.nodes[i].blamed[cause.index()];
            }
        }
        if saved > 0.0 {
            out.push(make_what_if(label.to_string(), saved, total));
        }
    }

    // Tile-mix relaxations: +1 instance of each saturated kind.
    let kinds = report.tile_counts.len();
    for k in 0..kinds {
        let n = report.tile_counts[k];
        if n == 0 {
            continue;
        }
        let mut saturated_span = 0.0_f64;
        for s in 0..stages {
            let used = report
                .nodes
                .iter()
                .filter(|nb| nb.stage == s as u32 && nb.kind == k as u16)
                .count();
            if used >= n as usize {
                saturated_span += report.per_stage_cycles[s] as f64;
            }
        }
        let saved = saturated_span / (n + 1) as f64;
        if saved > 0.0 {
            let name = kind_names.get(k).copied().unwrap_or("?");
            out.push(make_what_if(format!("+1 {name}"), saved, total));
        }
    }

    out.sort_by(|a, b| {
        b.saved_cycles
            .partial_cmp(&a.saved_cycles)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.label.cmp(&b.label))
    });
    out
}

fn make_what_if(label: String, saved: f64, total: f64) -> WhatIf {
    WhatIf {
        label,
        saved_cycles: saved,
        est_cycles: (total - saved).max(0.0).round() as u64,
        delta_pct: -100.0 * saved / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u32, kind: u16, stage: u32, active: f64, deps: &[u32], total: f64) -> NodeBlame {
        let mut blamed = [0.0; BlameCause::COUNT];
        blamed[BlameCause::Drained.index()] = total - active;
        NodeBlame { node: id, kind, stage, active_cycles: active, blamed, deps: deps.to_vec() }
    }

    fn chain_report() -> BlameReport {
        // 0 -> 1 -> 3, 2 -> 3; node 1 is the heavy hop.
        BlameReport {
            cycles: 1000,
            per_stage_cycles: vec![1000],
            tile_counts: vec![1, 2],
            nodes: vec![
                node(0, 0, 0, 100.0, &[], 1000.0),
                node(1, 1, 0, 700.0, &[0], 1000.0),
                node(2, 0, 0, 50.0, &[], 1000.0),
                node(3, 1, 0, 150.0, &[1, 2], 1000.0),
            ],
        }
    }

    #[test]
    fn invariant_accepts_exact_ledgers_and_rejects_gaps() {
        let mut r = chain_report();
        assert!(r.check_invariant().is_ok());
        r.nodes[1].active_cycles += 5.0;
        assert!(r.check_invariant().is_err());
    }

    #[test]
    fn critical_path_follows_heaviest_chain() {
        let cp = critical_path(&chain_report());
        assert_eq!(cp.nodes, vec![0, 1, 3]);
        assert!((cp.cycles - 950.0).abs() < 1e-9);
        assert!((cp.fraction - 0.95).abs() < 1e-9);
    }

    #[test]
    fn critical_path_is_empty_on_empty_report() {
        let r =
            BlameReport { cycles: 0, per_stage_cycles: vec![], tile_counts: vec![], nodes: vec![] };
        let cp = critical_path(&r);
        assert!(cp.nodes.is_empty());
        assert_eq!(cp.fraction, 0.0);
    }

    #[test]
    fn kind_utilization_averages_over_instances() {
        let u = kind_utilization(&chain_report());
        assert_eq!(u.len(), 2);
        // Kind 0: (100+50)/1000 over 1 instance.
        assert!((u[0].utilization - 0.15).abs() < 1e-9);
        // Kind 1: (700+150)/1000 over 2 instances.
        assert!((u[1].utilization - 0.425).abs() < 1e-9);
    }

    #[test]
    fn link_utilization_covers_same_stage_edges() {
        let links = link_utilization(&chain_report());
        // (0->1), (1->3) and (0->3 via node 2's kind 0): classes
        // (0,1) x2 edges [0->1, 2->3], (1,1) x1 edge [1->3].
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].src, 0);
        assert_eq!(links[0].edges, 2);
        assert_eq!(
            links[1],
            LinkUtilization { src: 1, dst: 1, edges: 1, busy_cycles: 150.0, utilization: 0.15 }
        );
    }

    #[test]
    fn what_ifs_rank_by_savings_and_skip_zero() {
        let mut r = chain_report();
        // Blame the heavy node's stalls on the NoC.
        r.nodes[1].blamed[BlameCause::Drained.index()] = 0.0;
        r.nodes[1].blamed[BlameCause::NocBandwidth.index()] = 300.0;
        let w = what_ifs(&r, &["ColSelect", "Joiner"]);
        assert!(!w.is_empty());
        // Kind 0 has 1 instance saturated for the whole stage: saves
        // 1000/2 = 500, the top entry.
        assert_eq!(w[0].label, "+1 ColSelect");
        assert!((w[0].saved_cycles - 500.0).abs() < 1e-9);
        assert!(w[0].delta_pct < -49.0);
        // NoC doubling halves the critical node's 300 blamed cycles.
        assert!(w
            .iter()
            .any(|x| x.label == "2x NoC bandwidth" && (x.saved_cycles - 150.0).abs() < 1e-9));
        assert!(w.iter().all(|x| x.saved_cycles > 0.0));
    }

    #[test]
    fn top_causes_sort_descending() {
        let r = chain_report();
        let top = r.top_causes();
        assert_eq!(top[0].0, BlameCause::Drained);
        assert!(top[0].1 > top[1].1);
    }

    #[test]
    fn utilization_histogram_buckets_nodes() {
        let h = utilization_histogram(&chain_report());
        assert_eq!(h.total, 4);
        // 0.10, 0.70, 0.05, 0.15 -> buckets <=0.1: 2, <=0.25: 1, <=0.75: 1.
        assert_eq!(h.counts, vec![2, 1, 0, 1, 0, 0]);
    }
}
