//! TPC-H on the Q100: a miniature of the paper's Section 4 evaluation.
//!
//! Generates a TPC-H database, runs a handful of queries on the three
//! paper designs (LowPower / Pareto / HighPerf), validates every Q100
//! result against the software column-store executor, and reports
//! runtime, energy, and the speedup over the modeled single-thread
//! software baseline.
//!
//! With `--trace [out.json]` it additionally records a structured event
//! trace of Q6 end-to-end on the Pareto design, prints the three
//! busiest tile kinds (busy-instruction-cycles summed from the
//! `TileBusy` occupancy events), and — when an output path is given —
//! writes a Chrome `trace_event` JSON viewable in `chrome://tracing`
//! or Perfetto.
//!
//! Run with: `cargo run --release --example tpch_benchmark [scale] [--trace [out.json]]`

use std::env;

use q100::core::trace::{RingRecorder, TraceEvent, TraceStream};
use q100::core::{execute_lean, BlameRecorder, Observe, SimConfig, SimScratch, Simulator};
use q100::dbms::SoftwareCost;
use q100::tpch::{queries, TpchData};

/// The query the `--trace` flag records end-to-end.
const TRACED_QUERY: &str = "q6";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut scale = 0.01f64;
    let mut trace = false;
    let mut trace_out: Option<String> = None;
    let mut args = env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            trace = true;
            if args.peek().is_some_and(|a| a.ends_with(".json")) {
                trace_out = args.next();
            }
        } else {
            scale = arg.parse().expect("numeric scale factor or --trace");
        }
    }
    println!("generating TPC-H data at scale factor {scale} ...");
    let db = TpchData::generate(scale);
    println!("database: {} bytes across 8 tables\n", db.bytes());

    let designs = [
        ("LowPower", SimConfig::low_power()),
        ("Pareto", SimConfig::pareto()),
        ("HighPerf", SimConfig::high_perf()),
    ];
    println!(
        "{:>5} {:>10} {:>12} | {:>21} {:>21} {:>21}",
        "query", "SW ms", "SW mJ", "LowPower", "Pareto", "HighPerf"
    );

    for name in ["q1", "q3", "q5", "q6", "q12", "q14", "q19"] {
        let query = queries::by_name(name).expect("known query");

        // Software baseline: execute and cost the plan.
        let (expected, stats) = q100::dbms::run(&(query.software)(), &db)?;
        let software = SoftwareCost::of(&stats);

        print!("{name:>5} {:>10.3} {:>12.3} |", software.runtime_ms, software.energy_mj);
        for (_, config) in &designs {
            let graph = (query.q100)(&db)?;
            let outcome = Simulator::new(config).run(&graph, &db)?;

            // Validate: the accelerator must compute the same rows.
            let got = queries::canonical_rows(&outcome.result_table(&graph)?);
            let want = queries::canonical_rows(&expected);
            assert_eq!(got, want, "{name}: Q100 result diverged from software");

            let speedup = software.runtime_ms / outcome.runtime_ms();
            print!(" {:>7.3}ms {:>6.0}x BW", outcome.runtime_ms(), speedup);
        }
        println!();
    }

    println!("\nall Q100 results validated against the software executor");

    // Bottleneck attribution on the Pareto design: re-simulate each
    // query with the stall-blame recorder attached and report where the
    // cycles went. `top_causes` ranks the blame ledger; the critical
    // path is the heaviest active-cycle chain through the stage DAG.
    println!("\nwhere the cycles go (Pareto design, stall-blame attribution):");
    println!("{:>5} {:>10}  {:<42} {:>10}", "query", "cycles", "top-3 blame causes", "crit.path");
    let pareto = SimConfig::pareto();
    for name in ["q1", "q3", "q5", "q6", "q12", "q14", "q19"] {
        let query = queries::by_name(name).expect("known query");
        let graph = (query.q100)(&db)?;
        let sim = Simulator::new(&pareto);
        let functional = execute_lean(&graph, &db)?;
        let plan = sim.plan(&graph, &functional)?;
        let mut recorder = BlameRecorder::new();
        let obs = Observe { sink: None, blame: Some(&mut recorder) };
        let outcome = sim.run_observed(&plan, &functional, &graph, &mut SimScratch::new(), obs)?;
        let report = recorder.report(&outcome.timing, &pareto.mix);
        let ledger: f64 = report.cause_totals().iter().sum::<f64>() + report.active_total();
        let causes: Vec<String> = report
            .top_causes()
            .iter()
            .take(3)
            .map(|(c, cy)| format!("{} {:.0}%", c.name(), cy / ledger.max(1.0) * 100.0))
            .collect();
        let cp = q100::core::trace::critical_path(&report);
        println!(
            "{name:>5} {:>10}  {:<42} {:>9.0}%",
            outcome.cycles,
            causes.join(", "),
            cp.fraction * 100.0
        );
    }

    if trace {
        trace_one_query(&db, trace_out.as_deref())?;
    }
    Ok(())
}

/// Re-runs [`TRACED_QUERY`] on the Pareto design with a ring recorder
/// attached, reports the busiest tile kinds, and optionally writes the
/// Chrome trace.
fn trace_one_query(db: &TpchData, out: Option<&str>) -> Result<(), Box<dyn std::error::Error>> {
    let query = queries::by_name(TRACED_QUERY).expect("known query");
    let graph = (query.q100)(db)?;
    let config = SimConfig::pareto();
    let sim = Simulator::new(&config);
    let functional = execute_lean(&graph, db)?;
    let plan = sim.plan(&graph, &functional)?;
    let mut recorder = RingRecorder::new();
    let obs = Observe { sink: Some(&mut recorder), blame: None };
    let outcome = sim.run_observed(&plan, &functional, &graph, &mut SimScratch::new(), obs)?;

    println!(
        "\ntraced {TRACED_QUERY} on Pareto: {} cycles, {} events recorded ({} dropped)",
        outcome.cycles,
        recorder.events().len(),
        recorder.dropped()
    );

    // Busy-instruction-cycles per tile kind: each TileBusy event says
    // `busy` instructions of kind `tile` moved data for `dt` cycles.
    let mut busy_cycles: Vec<(usize, u64)> = Vec::new();
    for ev in recorder.events() {
        if let TraceEvent::TileBusy { tile, dt, busy, .. } = ev {
            let idx = tile as usize;
            if busy_cycles.len() <= idx {
                busy_cycles.resize(idx + 1, (0, 0));
            }
            busy_cycles[idx] = (idx, busy_cycles[idx].1 + u64::from(dt) * u64::from(busy));
        }
    }
    busy_cycles.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("top-3 busiest tile kinds (busy instruction-cycles):");
    for (idx, cycles) in busy_cycles.iter().take(3) {
        println!("  {:>12}  {cycles}", q100::core::exec::endpoint_name(*idx));
    }

    if let Some(path) = out {
        let streams = [TraceStream { name: TRACED_QUERY.to_string(), events: recorder.events() }];
        let names: Vec<&str> =
            (0..q100::core::ENDPOINTS).map(q100::core::exec::endpoint_name).collect();
        let json = q100::core::trace::chrome_trace_json(
            &streams,
            &names,
            q100::core::exec::bytes_per_cycle_to_gbps(1.0),
        );
        std::fs::write(path, json)?;
        println!("Chrome trace written to {path} (open in chrome://tracing or Perfetto)");
    }
    Ok(())
}
