//! The semi-exhaustive scheduler.

use crate::config::TileMix;
use crate::error::{CoreError, Result};
use crate::exec::functional::GraphProfile;
use crate::isa::graph::{NodeId, QueryGraph};
use crate::sched::Schedule;
use crate::tiles::TileKind;

/// Beam width of the pruned search. The paper notes that truly
/// exhaustive search is infeasible and uses "a heuristic to prune the
/// search space, making it terminate, but only semi-exhaustive"; a
/// deterministic beam over alternative stage packings is our pruning
/// heuristic.
const BEAM_WIDTH: usize = 6;

#[derive(Debug, Clone)]
struct Partial {
    stage_of: Vec<usize>,
    placed: usize,
    stage: usize,
    /// Spill lower bound: bytes of edges already guaranteed to cross a
    /// stage boundary.
    spill_lb: u64,
}

/// Pruned search over legal schedules minimizing total spilled bytes;
/// an approximate upper bound on schedule quality (Section 3.4).
///
/// Maintains a beam of partial schedules. Each step packs the next
/// temporal instruction in several different greedy orders (topological,
/// heaviest-first, lightest-first, pipeline-extending, and variants that
/// deliberately defer one candidate), keeps the most
/// promising partials (up to the beam width) by spill lower bound,
/// and finally returns the
/// completed schedule with the fewest spilled bytes (ties: fewer
/// stages).
///
/// # Errors
///
/// Returns [`CoreError::Internal`] if the search completes no schedule
/// (every beam step places at least one node on a feasible mix, so this
/// is a bug).
pub fn schedule_semi_exhaustive(
    graph: &QueryGraph,
    mix: &TileMix,
    profile: &GraphProfile,
) -> Result<Schedule> {
    let n = graph.len();
    if n == 0 {
        return Ok(Schedule::from_stages(Vec::new()));
    }
    // Large graphs force heavier pruning — the paper observes the same
    // ("Q1, Q17, and Q19 ... are so large that the semi-exhaustive
    // approach can only cover a small portion of the search space").
    let (beam_width, variants) = if n > 2000 {
        (1, 2)
    } else if n > 300 {
        (2, 4)
    } else {
        (BEAM_WIDTH, 6)
    };
    let mut beam =
        vec![Partial { stage_of: vec![usize::MAX; n], placed: 0, stage: 0, spill_lb: 0 }];
    let mut completed: Vec<(u64, usize, Vec<usize>)> = Vec::new();

    while !beam.is_empty() {
        let mut next: Vec<Partial> = Vec::new();
        for partial in &beam {
            for variant in 0..variants {
                let mut p = partial.clone();
                fill_stage(graph, mix, profile, &mut p, variant);
                advance(graph, profile, &mut p);
                if p.placed == n {
                    let schedule = Schedule::from_stages(p.stage_of.clone());
                    let spill = schedule.spill_bytes(graph, profile);
                    completed.push((spill, schedule.stages(), p.stage_of));
                } else {
                    next.push(p);
                }
            }
        }
        next.sort_by_key(|p| (p.spill_lb, p.stage, p.stage_of.clone()));
        next.dedup_by(|a, b| a.stage_of == b.stage_of);
        next.truncate(beam_width);
        beam = next;
    }

    let Some((_, _, stage_of)) =
        completed.into_iter().min_by_key(|(spill, stages, ids)| (*spill, *stages, ids.clone()))
    else {
        return Err(CoreError::Internal("beam search completed no schedule".into()));
    };
    Ok(Schedule::from_stages(stage_of))
}

/// Packs `p.stage` greedily using one of six candidate orderings.
fn fill_stage(
    graph: &QueryGraph,
    mix: &TileMix,
    profile: &GraphProfile,
    p: &mut Partial,
    variant: usize,
) {
    let n = graph.len();
    let mut used = [0u32; TileKind::COUNT];
    let mut current: Vec<NodeId> = Vec::new();
    let mut skipped_once = false;
    loop {
        let mut candidates: Vec<NodeId> = (0..n)
            .filter(|&id| {
                p.stage_of[id] == usize::MAX
                    && graph.node(id).inputs.iter().all(|q| p.stage_of[q.node] != usize::MAX)
                    && {
                        let k = graph.node(id).op.tile_kind();
                        used[k as usize] < mix.count(k)
                    }
            })
            .collect();
        let key = |id: NodeId| -> u64 {
            graph.node(id).inputs.iter().map(|q| profile.edge_bytes(q.node, q.port)).sum()
        };
        let resident = |id: NodeId| -> u64 {
            graph
                .node(id)
                .inputs
                .iter()
                .filter(|q| current.contains(&q.node))
                .map(|q| profile.edge_bytes(q.node, q.port))
                .sum()
        };
        // No candidate left ends the stage.
        let chosen = match variant {
            0 => candidates.first().copied(),
            1 => candidates.iter().copied().max_by_key(|&id| (key(id), std::cmp::Reverse(id))),
            2 => candidates.iter().copied().min_by_key(|&id| (key(id), id)),
            3 => candidates.iter().copied().max_by_key(|&id| (resident(id), std::cmp::Reverse(id))),
            4 => candidates.last().copied(),
            _ => {
                // Variant 5: defer the heaviest candidate once, exploring
                // schedules the pure-greedy orders cannot reach.
                if !skipped_once && candidates.len() > 1 {
                    skipped_once = true;
                    if let Some(heavy) = candidates.iter().copied().max_by_key(|&id| key(id)) {
                        candidates.retain(|&id| id != heavy);
                    }
                }
                candidates.first().copied()
            }
        };
        let Some(chosen) = chosen else { break };
        let k = graph.node(chosen).op.tile_kind();
        used[k as usize] += 1;
        p.stage_of[chosen] = p.stage;
        current.push(chosen);
        p.placed += 1;
    }
}

/// Moves to the next stage, folding newly unavoidable spills into the
/// lower bound: any edge whose producer is placed in a finished stage
/// and whose consumer is still unplaced must cross a boundary.
fn advance(graph: &QueryGraph, profile: &GraphProfile, p: &mut Partial) {
    p.stage += 1;
    let mut lb = 0u64;
    for (port, consumer) in graph.edges() {
        let ps = p.stage_of[port.node];
        let cs = p.stage_of[consumer];
        let bytes = profile.edge_bytes(port.node, port.port);
        if ps == usize::MAX {
            continue;
        }
        if cs != usize::MAX {
            if ps != cs {
                lb += bytes;
            }
        } else if ps < p.stage {
            lb += bytes;
        }
    }
    p.spill_lb = lb;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::functional::NodeProfile;
    use crate::isa::graph::QueryGraph;
    use crate::isa::ops::CmpOp;
    use crate::sched::{schedule_data_aware, schedule_naive};
    use q100_columnar::Value;

    fn diamond() -> (QueryGraph, GraphProfile) {
        let mut b = QueryGraph::builder("d");
        let a = b.col_select_base("t", "a");
        let c = b.col_select_base("t", "b");
        let g1 = b.bool_gen_const(a, CmpOp::Gt, Value::Int(0));
        let g2 = b.bool_gen_const(c, CmpOp::Gt, Value::Int(0));
        let f1 = b.col_filter(a, g1);
        let f2 = b.col_filter(c, g2);
        let both = b.alu(f1, crate::isa::ops::AluOp::Add, f2);
        let _s = b.stitch(&[both]);
        let g = b.finish().unwrap();
        let mut profile = GraphProfile::default();
        for (id, node) in g.nodes().iter().enumerate() {
            profile.nodes.push(NodeProfile {
                out_bytes: vec![(id as u64 + 1) * 100; node.op.output_ports()],
                out_records: vec![10; node.op.output_ports()],
                ..Default::default()
            });
        }
        (g, profile)
    }

    #[test]
    fn produces_valid_schedules_at_many_capacities() {
        let (g, profile) = diamond();
        for n in 1..=4 {
            let mix = TileMix::uniform(n);
            let s = schedule_semi_exhaustive(&g, &mix, &profile).unwrap();
            s.validate(&g, &mix).unwrap();
        }
    }

    #[test]
    fn at_least_as_good_as_both_greedy_schedulers() {
        let (g, profile) = diamond();
        for n in 1..=3 {
            let mix = TileMix::uniform(n);
            let se =
                schedule_semi_exhaustive(&g, &mix, &profile).unwrap().spill_bytes(&g, &profile);
            let na = schedule_naive(&g, &mix).spill_bytes(&g, &profile);
            let da = schedule_data_aware(&g, &mix, &profile).spill_bytes(&g, &profile);
            assert!(se <= na, "semi-exhaustive {se} > naive {na} at capacity {n}");
            assert!(se <= da, "semi-exhaustive {se} > data-aware {da} at capacity {n}");
        }
    }

    #[test]
    fn empty_graph_schedules_to_zero_stages() {
        let g = QueryGraph::builder("e").finish().unwrap();
        let s =
            schedule_semi_exhaustive(&g, &TileMix::uniform(1), &GraphProfile::default()).unwrap();
        assert_eq!(s.stages(), 0);
    }

    #[test]
    fn is_deterministic() {
        let (g, profile) = diamond();
        let mix = TileMix::uniform(1);
        let a = schedule_semi_exhaustive(&g, &mix, &profile).unwrap();
        let b = schedule_semi_exhaustive(&g, &mix, &profile).unwrap();
        assert_eq!(a, b);
    }
}
