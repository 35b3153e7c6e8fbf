//! Using the Q100 on your own data: an ad-hoc clickstream analysis.
//!
//! Shows the full public API surface outside TPC-H: build columnar
//! tables, register them in a catalog, express an analytic query as a
//! spatial-instruction graph (filter → join → aggregate), sweep
//! bandwidth provisioning, and inspect the communication profile.
//!
//! Run with: `cargo run --release --example custom_analytics`

use q100::columnar::{Column, MemoryCatalog, Table, Value};
use q100::core::trace::{RingRecorder, TraceEvent};
use q100::core::{
    execute_lean, AggOp, Bandwidth, CmpOp, Observe, QueryGraph, SimConfig, SimScratch, Simulator,
    MEMORY_ENDPOINT,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // pages(page_id, category), views(page_id, latency_ms, country)
    let n_pages = 2_000i64;
    let pages = Table::new(vec![
        Column::from_ints("page_id", (1..=n_pages).collect::<Vec<_>>()),
        Column::from_ints("category", (1..=n_pages).map(|p| p % 12).collect::<Vec<_>>()),
    ])?;
    let n_views = 300_000usize;
    let views = Table::new(vec![
        Column::from_ints(
            "v_page_id",
            (0..n_views).map(|i| (i as i64 * 17) % n_pages + 1).collect::<Vec<_>>(),
        ),
        Column::from_ints(
            "latency_ms",
            (0..n_views).map(|i| (i as i64 * 31) % 900 + 5).collect::<Vec<_>>(),
        ),
        Column::from_strs("country", (0..n_views).map(|i| ["DE", "FR", "JP", "US"][(i * 7) % 4])),
    ])?;
    let catalog =
        MemoryCatalog::new(vec![("pages".to_string(), pages), ("views".to_string(), views)]);

    // SELECT category, COUNT(*) slow_views FROM pages JOIN views
    // WHERE latency_ms > 500 AND country = 'US' GROUP BY category
    let mut b = QueryGraph::builder("slow-us-views-by-category");
    let vp = b.col_select_base("views", "v_page_id");
    let lat = b.col_select_base("views", "latency_ms");
    let country = b.col_select_base("views", "country");
    let slow = b.bool_gen_const(lat, CmpOp::Gt, Value::Int(500));
    let us = b.bool_gen_const(country, CmpOp::Eq, Value::Str("US".into()));
    let keep = b.alu(slow, q100::core::AluOp::And, us);
    let vp_f = b.col_filter(vp, keep);
    let views_f = b.stitch(&[vp_f]);

    let pid = b.col_select_base("pages", "page_id");
    let cat = b.col_select_base("pages", "category");
    let pages_t = b.stitch(&[pid, cat]);
    let joined = b.join(pages_t, "page_id", views_f, "v_page_id");

    // Group by the 12 categories: the partitioner isolates each value,
    // so the aggregator needs no sort (the paper's Figure 1 pattern).
    let cat_j = b.col_select(joined, "category");
    let pid_j = b.col_select(joined, "page_id");
    let grouped = b.stitch(&[cat_j, pid_j]);
    let parts = b.partition(grouped, "category", (1..12).collect());
    let partials: Vec<_> = parts
        .into_iter()
        .map(|p| {
            let g = b.col_select(p, "category");
            let d = b.col_select(p, "page_id");
            b.aggregate(AggOp::Count, d, g)
        })
        .collect();
    let _out = b.append_all(&partials);
    let graph: QueryGraph = b.finish()?;

    // Run under generous and starved memory bandwidth, executing the
    // data once and timing it under each configuration.
    let functional = execute_lean(&graph, &catalog)?;
    for (label, bandwidth) in [
        ("ideal bandwidth", Bandwidth::ideal()),
        (
            "provisioned (6.3 GB/s NoC, 10 GB/s read)",
            Bandwidth {
                noc_gbps: Some(6.3),
                mem_read_gbps: Some(10.0),
                mem_write_gbps: Some(10.0),
            },
        ),
    ] {
        let config = SimConfig::pareto().with_bandwidth(bandwidth);
        // The trace recorder captures per-link bandwidth peaks as they
        // are set, so the hottest NoC links can be named afterwards.
        let sim = Simulator::new(&config);
        let plan = sim.plan(&graph, &functional)?;
        let mut recorder = RingRecorder::new();
        let obs = Observe { sink: Some(&mut recorder), blame: None };
        let outcome = sim.run_observed(&plan, &functional, &graph, &mut SimScratch::new(), obs)?;
        println!(
            "{label}: {:.3} ms, {:.4} mJ, peak memory read {:.1} GB/s",
            outcome.runtime_ms(),
            outcome.energy_mj(),
            outcome.timing.mem_read.hi_gbps
        );
        let mut peaks: Vec<(u16, u16, f64)> = Vec::new();
        for ev in recorder.events() {
            if let TraceEvent::LinkPeak { src, dst, gbps, .. } = ev {
                // Later events supersede earlier peaks on the same link.
                match peaks.iter_mut().find(|(s, d, _)| (*s, *d) == (src, dst)) {
                    Some(slot) => slot.2 = gbps,
                    None => peaks.push((src, dst, gbps)),
                }
            }
        }
        peaks.sort_by(|a, b| b.2.total_cmp(&a.2));
        for (src, dst, gbps) in peaks.iter().take(2) {
            println!(
                "  hot link: {} -> {} at {gbps:.1} GB/s",
                q100::core::exec::endpoint_name(*src as usize),
                q100::core::exec::endpoint_name(*dst as usize),
            );
        }
        if label.starts_with("ideal") {
            // Which tile kinds talked to memory?
            let conns = &outcome.timing.connections;
            let from_mem: f64 =
                (0..q100::core::ENDPOINTS).map(|d| conns.get(MEMORY_ENDPOINT, d)).sum();
            println!("  memory feeds {from_mem} tile inputs across the schedule");
            println!("\nslow US views by category:\n{}", outcome.result_table(&graph)?.render(12));
        }
    }
    Ok(())
}
