//! Fault injection: how a Q100 design degrades when tiles die, links
//! slow down, and memory channels throttle.
//!
//! Draws deterministic fault scenarios against the Pareto design and
//! runs TPC-H Q6 and Q14 through the resilience layer: killed tiles
//! force a reschedule onto the surviving mix, deratings slow the fluid
//! timing model, and a query whose last tile of a required kind died is
//! reported as `Unschedulable` — never a panic.
//!
//! Run with: `cargo run --release --example fault_injection`

use q100::core::trace::RingRecorder;
use q100::core::{execute_lean, run_resilient, CoreError, FaultScenario, PlanCache, SimConfig};
use q100::tpch::{queries, TpchData};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = TpchData::generate(0.01);
    let base = SimConfig::pareto();
    let plans = PlanCache::new();

    for (tag, name) in [(0u64, "q6"), (1, "q14")] {
        let query = queries::by_name(name).expect("known query");
        let graph = (query.q100)(&db)?;
        let functional = execute_lean(&graph, &db)?;

        // The fault-free baseline.
        let clean = FaultScenario { faults: Vec::new() };
        let baseline = run_resilient(&graph, &functional, &base, &clean, &plans, tag, None, None)?;
        println!("{name}: fault-free baseline {} cycles", baseline.outcome.cycles);

        // Escalating fault campaigns from fixed seeds.
        for (seed, rate) in [(7u64, 0.05), (7, 0.2), (9, 0.5)] {
            let scenario = FaultScenario::generate(seed, rate, &base.mix);
            let mut rec = RingRecorder::new();
            match run_resilient(
                &graph,
                &functional,
                &base,
                &scenario,
                &plans,
                tag,
                Some(&mut rec),
                None,
            ) {
                Ok(out) => println!(
                    "  rate {rate:>4}: {} faults, {} cycles ({:.2}x){}{}",
                    out.faults,
                    out.outcome.cycles,
                    out.outcome.slowdown_vs(baseline.outcome.cycles),
                    if out.rescheduled { ", rescheduled on degraded mix" } else { "" },
                    format_args!(", {} trace events", rec.events().len()),
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
