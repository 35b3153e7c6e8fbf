//! Fault injection: how a Q100 design degrades when tiles die, links
//! slow down, and memory channels throttle.
//!
//! Draws deterministic fault scenarios against the Pareto design and
//! runs TPC-H Q6 and Q14 on each scenario's degraded configuration:
//! killed tiles force a reschedule onto the surviving mix, deratings
//! slow the fluid timing model, and a query whose last tile of a
//! required kind died is reported as `Unschedulable` — never a panic.
//!
//! Run with: `cargo run --release --example fault_injection`

use q100::core::{
    execute_lean, CoreError, FaultScenario, FunctionalRun, PlanCache, QueryGraph, SimConfig,
    SimOutcome, SimScratch, Simulator,
};
use q100::tpch::{queries, TpchData};

/// Runs `graph` under `config` through the shared plan cache, which
/// keys on the mix clamped to the query's demand (so a kill below
/// demand reschedules).
fn run(
    plans: &PlanCache,
    tag: u64,
    graph: &QueryGraph,
    functional: &FunctionalRun,
    config: &SimConfig,
) -> Result<SimOutcome, CoreError> {
    let plan =
        plans.get_or_compile(tag, config.scheduler, graph, &config.mix, &functional.profile)?;
    Simulator::new(config).run_planned(&plan, functional, graph, &mut SimScratch::new())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = TpchData::generate(0.01);
    let base = SimConfig::pareto();
    let plans = PlanCache::new();

    for (tag, name) in [(0u64, "q6"), (1, "q14")] {
        let query = queries::by_name(name).expect("known query");
        let graph = (query.q100)(&db)?;
        let functional = execute_lean(&graph, &db)?;

        // The fault-free baseline.
        let baseline = run(&plans, tag, &graph, &functional, &base)?;
        println!("{name}: fault-free baseline {} cycles", baseline.cycles);

        // Escalating fault campaigns from fixed seeds.
        for (seed, rate) in [(7u64, 0.05), (7, 0.2), (9, 0.5)] {
            let scenario = FaultScenario::generate(seed, rate, &base.mix);
            let degraded = scenario.apply(&base);
            match run(&plans, tag, &graph, &functional, &degraded) {
                Ok(out) => println!(
                    "  rate {rate:>4}: {} faults, {} cycles ({:.2}x){}",
                    scenario.faults.len(),
                    out.cycles,
                    out.slowdown_vs(baseline.cycles),
                    if degraded.mix == base.mix { "" } else { ", rescheduled on degraded mix" },
                ),
                Err(CoreError::Unschedulable { kind, .. }) => println!(
                    "  rate {rate:>4}: {} faults, unschedulable (no {kind} tile left)",
                    scenario.faults.len()
                ),
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(())
}
