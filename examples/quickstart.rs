//! Quickstart: the paper's Figure 1/2 walkthrough.
//!
//! Builds the sample sales-summary query from Figure 1 of the paper —
//! per-season quantity sums over shipped items — as a Q100
//! spatial-instruction graph, schedules it on a deliberately small tile
//! array so it splits into multiple temporal instructions (Figure 2),
//! and simulates it.
//!
//! Run with: `cargo run --release --example quickstart`

use q100::columnar::{date_to_days, Column, MemoryCatalog, Table, Value};
use q100::core::trace::{RingRecorder, TraceEvent};
use q100::core::{
    execute_lean, AggOp, CmpOp, Observe, QueryGraph, SimConfig, SimScratch, Simulator, TileKind,
    TileMix,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small SALES table: season (1..=4), quantity, ship date.
    let rows = 40_000usize;
    let seasons: Vec<i64> = (0..rows).map(|i| (i as i64 * 7) % 4 + 1).collect();
    let quantities: Vec<i64> = (0..rows).map(|i| (i as i64 * 13) % 50 + 1).collect();
    let start = date_to_days(1998, 1, 1);
    let shipdates: Vec<i32> = (0..rows).map(|i| start + (i as i32 * 11) % 360).collect();
    let sales = Table::new(vec![
        Column::from_ints("s_season", seasons),
        Column::from_ints("s_quantity", quantities),
        Column::from_dates("s_shipdate", shipdates),
    ])?;
    let catalog = MemoryCatalog::new(vec![("sales".to_string(), sales)]);

    // Figure 1: SELECT s_season, SUM(s_quantity) FROM sales
    //           WHERE s_shipdate <= '1998-12-01' - 90 days
    //           GROUP BY s_season ORDER BY s_season
    let cutoff = date_to_days(1998, 9, 2);
    let mut b = QueryGraph::builder("sales-summary");
    let season = b.col_select_base("sales", "s_season"); // Col1
    let quantity = b.col_select_base("sales", "s_quantity"); // Col2
    let shipdate = b.col_select_base("sales", "s_shipdate"); // Col3
    let keep = b.bool_gen_const(shipdate, CmpOp::Lte, Value::Date(cutoff)); // Bool1
    let season_f = b.col_filter(season, keep); // Col4
    let quantity_f = b.col_filter(quantity, keep); // Col5
    let table1 = b.stitch(&[season_f, quantity_f]);
    // Partition on the season key so each partition holds one group
    // (Table2..Table5 in the paper).
    let parts = b.partition(table1, "s_season", vec![2, 3, 4]);
    let mut partials = Vec::new();
    for part in parts {
        let g = b.col_select(part, "s_season");
        let q = b.col_select(part, "s_quantity");
        partials.push(b.aggregate(AggOp::Sum, q, g));
    }
    let t6 = b.append(partials[0], partials[1]);
    let t7 = b.append(partials[2], partials[3]);
    let _final_answer = b.append(t6, t7);
    let graph: QueryGraph = b.finish()?;

    println!("{}", graph.render());

    // Figure 2's resource profile: 4 ColSelect, 2 ColFilter, 2 BoolGen,
    // 1 Stitch, 1 Partitioner, 2 Aggregators, 2 Appenders — too small
    // for the whole graph, so the scheduler emits several temporal
    // instructions.
    let mix = TileMix::uniform(1)
        .with_count(TileKind::ColSelect, 4)
        .with_count(TileKind::ColFilter, 2)
        .with_count(TileKind::BoolGen, 2)
        .with_count(TileKind::Aggregator, 2)
        .with_count(TileKind::Append, 2);
    // Attach a trace recorder so the timing simulator's structured
    // events (tinst begin/end, per-quantum tile occupancy, memory
    // samples) are captured alongside the aggregate outcome.
    let config = SimConfig::new(mix);
    let sim = Simulator::new(&config);
    let functional = execute_lean(&graph, &catalog)?;
    let plan = sim.plan(&graph, &functional)?;
    let mut recorder = RingRecorder::new();
    let obs = Observe { sink: Some(&mut recorder), blame: None };
    let outcome = sim.run_observed(&plan, &functional, &graph, &mut SimScratch::new(), obs)?;

    println!("schedule: {}", outcome.schedule);
    for (i, tinst) in outcome.schedule.tinsts.iter().enumerate() {
        println!(
            "  temporal instruction #{}: {} sinsts {:?}",
            i + 1,
            tinst.nodes.len(),
            tinst.nodes
        );
    }
    println!(
        "\nruntime: {} cycles at 315 MHz = {:.3} ms; energy: {:.4} mJ; spills: {} bytes",
        outcome.cycles,
        outcome.runtime_ms(),
        outcome.energy_mj(),
        outcome.timing.spill_bytes
    );

    // The trace narrates the same run: one TinstBegin/TinstEnd pair per
    // temporal instruction, with occupancy samples in between.
    let begins =
        recorder.events().iter().filter(|e| matches!(e, TraceEvent::TinstBegin { .. })).count();
    println!(
        "trace: {} events over {} temporal instructions ({} dropped)",
        recorder.events().len(),
        begins,
        recorder.dropped()
    );

    let result = outcome.result_table(&graph)?;
    println!("\nFinalAns (per-season quantity totals):\n{}", result.render(10));

    println!("{}", outcome.render_report(&graph));
    Ok(())
}
