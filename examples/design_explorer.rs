//! Design-space exploration: a miniature of the paper's Figure 6.
//!
//! Sweeps ALU / partitioner / sorter counts over a reduced TPC-H
//! workload, prints the power–performance cloud, the Pareto frontier,
//! and the three design selections (minimum power, maximum performance,
//! maximum performance per Watt).
//!
//! Run with: `cargo run --release --example design_explorer`

use q100::experiments::{dse, Workload};

fn main() {
    // A reduced workload keeps the example snappy; the full exploration
    // is `q100-experiments --fig6`.
    let workload = Workload::prepare_subset(0.005, &["q1", "q3", "q6", "q10", "q12", "q14"]);

    println!("exploring 150 tile mixes over {} queries ...\n", workload.queries.len());
    let space = dse::explore(&workload);

    println!("{}", space.render_summary());

    println!("Pareto frontier (power W -> runtime ms):");
    for p in space.frontier() {
        println!(
            "  {:5.3} W -> {:7.3} ms   ({} ALU, {} partitioner, {} sorter)",
            p.power_w, p.runtime_ms, p.alus, p.partitioners, p.sorters
        );
    }

    // The trade-off in one sentence.
    let lp = space.low_power();
    let hp = space.high_perf();
    println!(
        "\nspending {:.2}x the power buys {:.2}x the performance",
        hp.power_w / lp.power_w,
        lp.runtime_ms / hp.runtime_ms
    );

    // The workload's metrics registry counted the exploration as it
    // ran: simulated cycles, pool batches, and cache traffic. Mixes
    // that differ only beyond a query's tile demand share one plan, and
    // equal schedules share one timing run.
    let m = workload.metrics();
    println!(
        "\nexploration accounting: {} (config, query) points over {} pool batches",
        m.counter("sim.runs"),
        m.counter("pool.batches"),
    );
    println!("plan cache: {}", workload.plan_cache_stats());
    println!("timing memo: {}", workload.timing_memo_stats());
}
