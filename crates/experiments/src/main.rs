//! Command-line runner regenerating every table and figure of the Q100
//! evaluation.
//!
//! ```text
//! q100-experiments [--sf <scale>] [--jobs <n>] [--seed <n>]
//!                  [--trace <out.json>] [--metrics <out.json|out.csv>]
//!                  <experiments...>
//!
//! experiments (with or without the leading `--`):
//!   table1 table2 table3 table4
//!   fig3 .. fig26  ablation
//!   all          (everything; the scaled study uses --sf x 100)
//!   perf-report  (pinned sweep subset -> BENCH_<date>.json; --out <f>)
//!   resilience   (injected-fault sweep over the paper designs; --seed
//!                 picks the fault campaign, --out writes the JSON)
//!   analyze      (stall-blame bottleneck attribution per query x
//!                 design; --out writes the q100-blame-v1 JSON)
//!   serve        (multi-tenant query streams through each design under
//!                 the q100-serve robustness policies, swept over load x
//!                 fault rate; --requests sizes each cell, --soak runs
//!                 the single Pareto/heavy/20%-fault chaos cell instead,
//!                 --out writes the q100-serve-v1 JSON)
//! ```
//!
//! Unknown experiment names and malformed flag values exit with code 2
//! and a one-line diagnostic on stderr.
//!
//! `--trace` writes a Chrome `trace_event` JSON of every workload query
//! under the Pareto design (open in `chrome://tracing` or Perfetto);
//! `--metrics` dumps the deterministic metrics registry as JSON (or CSV
//! when the path ends in `.csv`). Each figure's sweep prints
//! `plan cache:` and `timing memo:` hits/misses lines plus a
//! `quantum jumps:` coverage line and resets/snapshots the counters,
//! so the numbers are per-figure; figures that never consult the shared
//! caches (or never run the fluid timing layer) print no such lines at
//! all.

use std::collections::BTreeSet;
use std::env;
use std::process::ExitCode;

use q100_core::{power, Bandwidth, SimConfig, TileKind};
use q100_experiments::{
    ablation, analyze, comm, dse, paper_designs, perf_report, pool, resilience, sched_study,
    sensitivity, serve, software_cmp,
};
use q100_experiments::{Workload, DEFAULT_SCALE};

fn usage_text() -> String {
    "usage: q100-experiments [--sf <scale>] [--jobs <n>] [--seed <n>] [--trace <f>] [--metrics <f>]\n\
     \x20                       all | tableN ... figN ... | analyze | perf-report | resilience | serve [--out <f>]\n\
     regenerates the tables and figures of the Q100 paper (see DESIGN.md);\n\
     --jobs (or Q100_JOBS) caps the sweep worker count;\n\
     --no-jump disables the quantum-jump fast path (pure stepping,\n\
     bit-identical output — slower; used by CI to cross-check);\n\
     --seed picks the resilience fault campaign and serve streams (default 42);\n\
     --trace writes a Chrome trace_event JSON, --metrics a metrics JSON/CSV dump;\n\
     analyze attributes every stall cycle to a cause per query x design\n\
     (top-bottlenecks table on stdout, --out writes the q100-blame-v1 JSON);\n\
     serve sweeps multi-tenant query streams over load x fault rate\n\
     (--requests sizes each cell, --soak runs the chaos cell instead,\n\
     --out writes the q100-serve-v1 JSON)"
        .to_string()
}

fn usage() -> ExitCode {
    eprintln!("{}", usage_text());
    ExitCode::FAILURE
}

/// Exit path for malformed invocations: one-line diagnostic, exit
/// code 2 (distinct from runtime failures, which exit 1).
fn fail(msg: &str) -> ExitCode {
    eprintln!("q100-experiments: error: {msg}");
    ExitCode::from(2)
}

/// Whether `name` (already stripped of a leading `--`) is a known
/// experiment selector.
fn is_known_experiment(name: &str) -> bool {
    matches!(name, "ablation" | "analyze" | "perf-report" | "resilience" | "serve")
        || name
            .strip_prefix("table")
            .and_then(|n| n.parse::<u32>().ok())
            .is_some_and(|n| (1..=4).contains(&n))
        || name
            .strip_prefix("fig")
            .and_then(|n| n.parse::<u32>().ok())
            .is_some_and(|n| (3..=26).contains(&n))
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let mut scale = DEFAULT_SCALE;
    let mut seed = 42u64;
    let mut wants: BTreeSet<String> = BTreeSet::new();
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut requests = serve::DEFAULT_REQUESTS;
    let mut soak = false;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage_text());
                return ExitCode::SUCCESS;
            }
            "--sf" => {
                let Some(v) = iter.next() else { return fail("--sf requires a scale factor") };
                let Ok(v) = v.parse::<f64>() else {
                    return fail(&format!("--sf: `{v}` is not a number"));
                };
                scale = v;
            }
            "--jobs" => {
                let Some(v) = iter.next() else { return fail("--jobs requires a worker count") };
                let Ok(v) = v.parse::<usize>() else {
                    return fail(&format!("--jobs: `{v}` is not a positive integer"));
                };
                if v == 0 {
                    return fail("--jobs: worker count must be at least 1");
                }
                pool::set_jobs(Some(v));
            }
            "--seed" => {
                let Some(v) = iter.next() else { return fail("--seed requires an integer") };
                let Ok(v) = v.parse::<u64>() else {
                    return fail(&format!("--seed: `{v}` is not an unsigned integer"));
                };
                seed = v;
            }
            "--trace" => {
                let Some(v) = iter.next() else { return fail("--trace requires a path") };
                trace_out = Some(v.clone());
            }
            "--metrics" => {
                let Some(v) = iter.next() else { return fail("--metrics requires a path") };
                metrics_out = Some(v.clone());
            }
            "--out" => {
                let Some(v) = iter.next() else { return fail("--out requires a path") };
                bench_out = Some(v.clone());
            }
            "--requests" => {
                let Some(v) = iter.next() else { return fail("--requests requires a count") };
                let Ok(v) = v.parse::<usize>() else {
                    return fail(&format!("--requests: `{v}` is not a positive integer"));
                };
                if v == 0 {
                    return fail("--requests: count must be at least 1");
                }
                requests = v;
            }
            "--soak" => soak = true,
            "--no-jump" => q100_core::set_jump_enabled(false),
            "--all" | "all" => {
                wants.insert("ablation".to_string());
                for t in 1..=4 {
                    wants.insert(format!("table{t}"));
                }
                for f in [
                    3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
                    24, 25, 26,
                ] {
                    wants.insert(format!("fig{f}"));
                }
            }
            name => {
                let trimmed = name.trim_start_matches("--");
                if !is_known_experiment(trimmed) {
                    return fail(&format!(
                        "unknown experiment `{trimmed}` (run with --help for the list)"
                    ));
                }
                wants.insert(trimmed.to_string());
            }
        }
    }
    // `--trace`/`--metrics` without experiment selectors is a valid
    // observability run: prepare the workload, dump, run nothing else.
    if wants.is_empty() && trace_out.is_none() && metrics_out.is_none() {
        return usage();
    }

    if wants.remove("perf-report") {
        match perf_report::write(bench_out.as_deref()) {
            Ok(path) => eprintln!("perf report written to {path}"),
            Err(e) => {
                eprintln!("perf-report failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        if wants.is_empty() && trace_out.is_none() && metrics_out.is_none() {
            return ExitCode::SUCCESS;
        }
    }

    // Constant tables need no simulation.
    if wants.contains("table1") {
        println!("== Table 1: tile physical characteristics ==\n{}", power::render_table1());
    }
    if wants.contains("table3") {
        println!("== Table 3: design area/power breakdown ==\n{}", power::render_table3());
    }
    if wants.contains("table4") {
        println!("== Table 4: software platform ==\n{}", q100_dbms::render_table4());
    }

    let needs_workload = wants.iter().any(|w| {
        w.starts_with("fig")
            || w == "table2"
            || w == "ablation"
            || w == "analyze"
            || w == "resilience"
            || w == "serve"
    }) || trace_out.is_some()
        || metrics_out.is_some();
    if !needs_workload {
        return ExitCode::SUCCESS;
    }

    eprintln!("preparing workload at SF {scale} ({} sweep workers) ...", pool::jobs());
    let workload = Workload::prepare(scale);
    // Per-figure cache and quantum-jump summary: print, then reset
    // (caches) or snapshot (jump counters) so the next figure's lines
    // cover only its own sweep. The counts are deterministic at any
    // --jobs setting (see `CacheStats` and `JumpStats`).
    let mut jump_mark = q100_experiments::JumpStats::default();
    let mut cache_line = |label: &str| {
        let plan = workload.plan_cache_stats();
        let memo = workload.timing_memo_stats();
        // Suppress the lines when nothing consulted the shared caches
        // (e.g. a study that prepares its own scaled workload) —
        // `0 hits / 0 misses` would only be noise. Counters still reset
        // so the next figure's lines stay per-figure.
        if [plan, memo].iter().any(|s| s.hits + s.misses > 0) {
            println!("{label} plan cache: {plan}");
            println!("{label} timing memo: {memo}");
        }
        workload.reset_cache_stats();
        let now = workload.jump_stats();
        let jump = now.since(&jump_mark);
        jump_mark = now;
        if jump.jumped_quanta + jump.stepped_quanta > 0 {
            println!(
                "{label} quantum jumps: {} jumps skipped {}/{} quanta ({:.1}% coverage)",
                jump.jumps,
                jump.jumped_quanta,
                jump.jumped_quanta + jump.stepped_quanta,
                jump.coverage() * 100.0,
            );
        }
    };

    if wants.contains("table2") {
        println!("== Table 2: tiny tiles and maximum useful counts ==");
        println!("{}", sensitivity::table2(&workload, 0.01).render());
        cache_line("table2");
    }
    for (fig, kind) in
        [("fig3", TileKind::Aggregator), ("fig4", TileKind::Alu), ("fig5", TileKind::Sorter)]
    {
        if wants.contains(fig) {
            println!("== Figure {}: {} sensitivity ==", &fig[3..], kind);
            println!("{}", sensitivity::sweep(&workload, kind).render());
            cache_line(fig);
        }
    }
    if wants.contains("fig6") {
        println!("== Figure 6: 150-configuration design space ==");
        let space = dse::explore(&workload);
        println!("{}", space.render_summary());
        println!("{}", space.to_csv());
        cache_line("fig6");
    }
    for (fig, idx) in [("fig7", 0), ("fig8", 1), ("fig9", 2)] {
        if wants.contains(fig) {
            let (name, config) = &paper_designs()[idx];
            let m = comm::connection_counts(&workload, config);
            println!(
                "{}",
                comm::render_matrix(
                    &m,
                    &format!("Figure {}: {name} connection counts", &fig[3..]),
                    None
                )
            );
            cache_line(fig);
        }
    }
    for (fig, idx) in [("fig10", 0), ("fig11", 1), ("fig12", 2)] {
        if wants.contains(fig) {
            let (name, config) = &paper_designs()[idx];
            let m = comm::peak_bandwidth(&workload, config);
            println!(
                "{}",
                comm::render_matrix(
                    &m,
                    &format!(
                        "Figure {}: {name} peak link GB/s (X > {})",
                        &fig[3..],
                        comm::NOC_LIMIT_GBPS
                    ),
                    Some(comm::NOC_LIMIT_GBPS),
                )
            );
            cache_line(fig);
        }
    }
    if wants.contains("fig13") {
        println!("== Figure 13: NoC bandwidth sweep ==");
        println!("{}", comm::bandwidth_sweep(&workload, "NoC", &[5.0, 10.0, 15.0, 20.0]).render());
        cache_line("fig13");
    }
    for (fig, direction) in [("fig14", "read"), ("fig15", "write")] {
        if wants.contains(fig) {
            println!("== Figure {}: memory {direction} bandwidth demand ==", &fig[3..]);
            for (name, config) in paper_designs() {
                println!(
                    "## {name}\n{}",
                    comm::mem_profile(&workload, &config, direction).render()
                );
            }
            cache_line(fig);
        }
    }
    if wants.contains("fig16") {
        println!("== Figure 16: memory read bandwidth sweep ==");
        println!(
            "{}",
            comm::bandwidth_sweep(&workload, "MemRead", &[10.0, 20.0, 30.0, 40.0]).render()
        );
        cache_line("fig16");
    }
    if wants.contains("fig17") {
        println!("== Figure 17: memory write bandwidth sweep ==");
        println!(
            "{}",
            comm::bandwidth_sweep(&workload, "MemWrite", &[5.0, 10.0, 15.0, 20.0]).render()
        );
        cache_line("fig17");
    }
    if wants.contains("fig18") {
        println!("== Figure 18: bandwidth-limit impact ==");
        println!("{}", comm::limit_stack(&workload).render());
        cache_line("fig18");
    }
    let sched_figs = ["fig19", "fig20", "fig21", "fig22"];
    if sched_figs.iter().any(|f| wants.contains(*f)) {
        println!("== Figures 19-22: scheduler comparison ==");
        for study in sched_study::study_all_designs(&workload) {
            println!("{}", study.render());
        }
        cache_line("fig19-22");
    }
    if wants.contains("fig23") || wants.contains("fig24") {
        let cmp = software_cmp::compare(&workload);
        if wants.contains("fig23") {
            println!("== Figure 23: runtime vs software ==\n{}", cmp.render_runtime());
        }
        if wants.contains("fig24") {
            println!("== Figure 24: energy vs software ==\n{}", cmp.render_energy());
        }
        println!(
            "mean speedup (LP/Pareto/HP): {:.1}x / {:.1}x / {:.1}x; mean energy gain: {:.0}x / {:.0}x / {:.0}x",
            cmp.mean_speedup(0),
            cmp.mean_speedup(1),
            cmp.mean_speedup(2),
            cmp.mean_energy_gain(0),
            cmp.mean_energy_gain(1),
            cmp.mean_energy_gain(2),
        );
        cache_line("fig23-24");
    }
    if wants.contains("ablation") {
        println!("== Ablation: stream-buffer provisioning (Pareto design) ==");
        let points =
            ablation::stream_buffer_sweep(&workload, &SimConfig::pareto(), &[1, 2, 3, 4, 6, 8]);
        println!("{}", ablation::render_sb_sweep(&points));
        println!("== Ablation: point-to-point links (Pareto design) ==");
        println!("{}", ablation::p2p_ablation(&workload, &SimConfig::pareto(), 5).render());
        cache_line("ablation");
    }
    if wants.contains("resilience") {
        println!("== Resilience: injected-fault sweep over the paper designs ==");
        let study = resilience::study(&workload, seed, &resilience::DEFAULT_RATES);
        print!("{}", study.render());
        if let Some(path) = &bench_out {
            if let Err(e) = std::fs::write(path, study.to_json()) {
                eprintln!("cannot write resilience JSON to {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("resilience study written to {path}");
        }
        cache_line("resilience");
    }
    if wants.contains("serve") {
        let study = if soak {
            println!(
                "== Serve: chaos soak (Pareto, heavy load, 20% faults, {requests} requests) =="
            );
            serve::soak(&workload, seed, requests)
        } else {
            println!("== Serve: multi-tenant streams over load x fault rate ==");
            serve::study(&workload, seed, requests, &serve::DEFAULT_RATES)
        };
        print!("{}", study.render());
        if let Some(path) = &bench_out {
            if let Err(e) = std::fs::write(path, study.to_json()) {
                eprintln!("cannot write serve JSON to {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("serve study written to {path}");
        }
        cache_line("serve");
    }
    if wants.contains("analyze") {
        println!("== Bottleneck attribution: stall-blame per query x design ==");
        let study = analyze::study(&workload, scale);
        print!("{}", study.render_table());
        if let Some(path) = &bench_out {
            if let Err(e) = std::fs::write(path, study.to_json()) {
                eprintln!("cannot write blame JSON to {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("blame report written to {path}");
        }
        cache_line("analyze");
    }
    if wants.contains("fig25") || wants.contains("fig26") {
        eprintln!("preparing 100x workload at SF {} ...", scale * 100.0);
        let cmp = software_cmp::compare_scaled(scale);
        if wants.contains("fig25") {
            println!("== Figure 25: 100x data, runtime vs software ==\n{}", cmp.render_runtime());
        }
        if wants.contains("fig26") {
            println!("== Figure 26: 100x data, energy vs software ==\n{}", cmp.render_energy());
        }
        // The scaled study prepares its own workload, so the shared
        // caches saw zero lookups — the suppression above keeps this
        // from printing noise while still resetting the counters.
        cache_line("fig25-26");
    }
    if let Some(path) = trace_out {
        // One serial traced pass per query under the Pareto design:
        // byte-stable regardless of --jobs or which figures ran above.
        let streams = workload.trace_all(&SimConfig::pareto());
        let names: Vec<&str> =
            (0..q100_core::ENDPOINTS).map(q100_core::exec::endpoint_name).collect();
        let json = q100_core::trace::chrome_trace_json(
            &streams,
            &names,
            q100_core::exec::bytes_per_cycle_to_gbps(1.0),
        );
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("Chrome trace written to {path} (open in chrome://tracing or Perfetto)");
        workload.reset_cache_stats();
    }
    if let Some(path) = metrics_out {
        let snapshot = workload.metrics().snapshot();
        let dump = if path.ends_with(".csv") { snapshot.to_csv() } else { snapshot.to_json() };
        if let Err(e) = std::fs::write(&path, dump) {
            eprintln!("cannot write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("metrics written to {path}");
    }
    // Invocations that prepared a workload but ran no cache-consulting
    // figure (e.g. a bare --metrics dump) end with zero counters; the
    // suppressed line keeps stdout free of `0 hits / 0 misses` noise.
    cache_line("total");
    let _ = Bandwidth::ideal();
    ExitCode::SUCCESS
}
