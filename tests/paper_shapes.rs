//! End-to-end assertions that the reproduction exhibits the *shapes*
//! the paper reports: who wins, by roughly what factor, and in what
//! order. Absolute numbers differ (our substrate is a model, not the
//! authors' testbed); these tests pin the qualitative results.

use q100::core::trace::RingRecorder;
use q100::core::{
    check_feasible, power, Bandwidth, BlameRecorder, CoreError, DesignBudget, Fault, FaultScenario,
    Observe, SimConfig, SimScratch, Simulator, TileMix,
};
use q100::experiments::{comm, dse, pool, sched_study, software_cmp, Workload};

fn workload() -> Workload {
    Workload::prepare(0.01)
}

#[test]
fn headline_speedup_and_energy_bands() {
    // Paper: 37X-70X faster than 1-thread software; ~3 orders of
    // magnitude (691X-983X average) less energy; 1.5X-2.9X faster than
    // idealized 24-thread software.
    let w = workload();
    let cmp = software_cmp::compare(&w);
    let lp_speed = cmp.mean_speedup(0);
    let hp_speed = cmp.mean_speedup(2);
    assert!(
        (20.0..=110.0).contains(&lp_speed),
        "LowPower speedup {lp_speed:.1}x outside the plausible band"
    );
    assert!(
        (30.0..=120.0).contains(&hp_speed),
        "HighPerf speedup {hp_speed:.1}x outside the plausible band"
    );
    assert!(hp_speed >= lp_speed, "HighPerf must beat LowPower");
    assert!(hp_speed / 24.0 >= 1.2, "must beat idealized 24-thread software");

    for d in 0..3 {
        let gain = cmp.mean_energy_gain(d);
        assert!(
            (300.0..=3000.0).contains(&gain),
            "design {d}: energy gain {gain:.0}x should be around three orders of magnitude"
        );
    }
}

#[test]
fn design_ordering_matches_figure_6() {
    let w = workload();
    let lp = w.total_runtime_ms(&SimConfig::low_power());
    let pareto = w.total_runtime_ms(&SimConfig::pareto());
    let hp = w.total_runtime_ms(&SimConfig::high_perf());
    assert!(pareto <= lp * 1.001, "Pareto at least as fast as LowPower");
    assert!(hp <= pareto * 1.001, "HighPerf at least as fast as Pareto");

    let p_lp = DesignBudget::of(&SimConfig::low_power()).total_power_w();
    let p_pa = DesignBudget::of(&SimConfig::pareto()).total_power_w();
    let p_hp = DesignBudget::of(&SimConfig::high_perf()).total_power_w();
    assert!(p_lp < p_pa && p_pa < p_hp, "power ordering LowPower < Pareto < HighPerf");
}

#[test]
fn table_1_and_3_reproduce_paper_numbers() {
    // Spot-check the published constants end to end.
    let t1 = power::render_table1();
    assert!(t1.contains("Partitioner"));
    let hp = DesignBudget::of(&SimConfig::high_perf());
    assert!((hp.total_area_mm2() - 7.384).abs() < 0.05, "{}", hp.total_area_mm2());
    assert!((100.0 * hp.power_fraction_of_xeon() - 26.1).abs() < 1.0);
}

#[test]
fn noc_limit_slows_some_queries_substantially() {
    // Paper Figure 13: a handful of queries slow dramatically under the
    // 6.3 GB/s NoC; most are insensitive.
    let w = Workload::prepare_subset(0.01, &["q1", "q6", "q10", "q11", "q16", "q4"]);
    let sweep = comm::bandwidth_sweep(&w, "NoC", &[5.0]);
    let mut sensitive = 0;
    let mut insensitive = 0;
    for (_, per_limit) in &sweep.rows {
        for (capped, ideal) in per_limit[0].iter().zip(&per_limit[1]) {
            let slowdown = capped / ideal;
            if slowdown > 1.25 {
                sensitive += 1;
            } else if slowdown < 1.1 {
                insensitive += 1;
            }
        }
    }
    assert!(sensitive > 0, "some queries must be NoC-sensitive");
    assert!(insensitive > 0, "most queries should tolerate the NoC limit");
}

#[test]
fn reads_dominate_writes_like_analytic_queries_should() {
    // Paper: "queries vary substantially in their memory read
    // bandwidths but relatively little in their write bandwidths ...
    // taking in large volumes of data and producing comparatively small
    // results".
    let w = workload();
    let reads = comm::mem_profile(&w, &SimConfig::pareto(), "read");
    let writes = comm::mem_profile(&w, &SimConfig::pareto(), "write");
    let read_avg: f64 = reads.per_query.iter().map(|(_, s)| s.avg_gbps).sum();
    let write_avg: f64 = writes.per_query.iter().map(|(_, s)| s.avg_gbps).sum();
    assert!(read_avg > write_avg * 1.5, "reads {read_avg:.1} vs writes {write_avg:.1}");
}

#[test]
fn scheduler_quality_ordering_holds_on_average() {
    // Paper Figures 20/22: data-aware <= naive, semi-exhaustive best on
    // spilled volume.
    let w = Workload::prepare_subset(0.01, &["q1", "q5", "q10", "q12", "q16", "q20"]);
    let study = sched_study::study(&w, "LowPower", &SimConfig::low_power());
    assert!(study.avg_spill_vs_naive(1) <= 1.0 + 1e-9, "data-aware spills more than naive");
    assert!(
        study.avg_spill_vs_naive(2) <= study.avg_spill_vs_naive(1) + 0.05,
        "semi-exhaustive should approach or beat data-aware"
    );
    assert!(study.avg_runtime_vs_naive(1) <= 1.1, "data-aware should not cost much time");
}

#[test]
fn dse_selects_small_fast_and_balanced_designs() {
    let w = Workload::prepare_subset(0.005, &["q1", "q6", "q10", "q12"]);
    let space = dse::explore(&w);
    assert_eq!(space.points.len(), 150, "the paper's 150 configurations");
    let lp = space.low_power();
    assert_eq!(
        (lp.alus, lp.partitioners, lp.sorters),
        (1, 1, 1),
        "minimum power is the minimal mix"
    );
    let hp = space.high_perf();
    assert!(hp.power_w > lp.power_w);
    assert!(hp.runtime_ms <= lp.runtime_ms);
    let pareto = space.pareto();
    assert!(pareto.power_w <= hp.power_w);
    assert!(pareto.runtime_ms <= lp.runtime_ms);
}

#[test]
fn hundredfold_data_keeps_energy_advantage() {
    // Paper Figures 25-26 at reduced absolute scale: growing the data
    // 100x keeps Q100 ahead of software in both time and energy.
    let base = 0.0004;
    let cmp = software_cmp::compare_scaled(base);
    assert!(cmp.mean_speedup(2) > 5.0, "HighPerf stays ahead at 100x data");
    assert!(cmp.mean_energy_gain(0) > 100.0, "energy advantage persists at 100x data");
}

#[test]
fn provisioned_bandwidth_costs_30_to_60_percent() {
    // Paper Figure 18: applying NoC + memory limits costs roughly
    // 33-62% over ideal.
    let w = workload();
    let stack = comm::limit_stack(&w);
    for (design, ideal, _noc, both) in &stack.rows {
        let slowdown = both / ideal;
        assert!(
            (1.0..=3.0).contains(&slowdown),
            "{design}: bandwidth limits cost {slowdown:.2}x, expected a moderate penalty"
        );
    }
    // At least one design visibly pays for its provisioning.
    assert!(
        stack.rows.iter().any(|(_, ideal, _, both)| both / ideal > 1.05),
        "bandwidth limits should be visible somewhere"
    );
}

#[test]
fn ideal_bandwidth_equals_unconstrained_config() {
    // A budget that never binds is no budget: the whole timing result
    // (cycles, peaks, bandwidth statistics, busy cycles) matches.
    let w = Workload::prepare_subset(0.005, &["q1", "q6", "q14"]);
    let ideal = SimConfig::pareto().with_bandwidth(Bandwidth::ideal());
    let huge = SimConfig::pareto().with_bandwidth(Bandwidth {
        noc_gbps: Some(1e9),
        mem_read_gbps: Some(1e9),
        mem_write_gbps: Some(1e9),
    });
    for p in &w.queries {
        let a = w.simulate(p, &ideal);
        let b = w.simulate(p, &huge);
        assert_eq!(a.timing, b.timing, "{}: huge caps behave like no caps", p.query.name);
    }
}

#[test]
fn every_simulation_entry_agrees_on_pareto() {
    // The sweep path, a planned run, and a run with a trace sink and a
    // blame recorder attached all go through one timing kernel: the
    // same whole timing result (cycles, peaks, bandwidth statistics,
    // busy cycles), a closing blame ledger, and jump counters that
    // depend neither on what the scratch simulated before nor on an
    // attached blame recorder. The sink forces pure stepping, so the
    // jumped runs are checked against it.
    let w = workload();
    let config = SimConfig::pareto();
    let sim = Simulator::new(&config);
    let counters = |s: &SimScratch| {
        (s.jumps, s.jumped_quanta, s.stepped_quanta, s.replayed_node_quanta, s.retired_node_quanta)
    };
    let mut reused = SimScratch::new();
    for p in &w.queries {
        let name = p.query.name;
        let swept = w.simulate(p, &config);
        let plan = sim.plan(&p.graph, &p.functional).unwrap();
        let mut fresh = SimScratch::new();
        let planned = sim.run_planned(&plan, &p.functional, &p.graph, &mut fresh).unwrap();
        let mut ring = RingRecorder::new();
        let mut blame = BlameRecorder::new();
        let obs = Observe { sink: Some(&mut ring), blame: Some(&mut blame) };
        let observed =
            sim.run_observed(&plan, &p.functional, &p.graph, &mut SimScratch::new(), obs).unwrap();
        assert_eq!(swept.timing, planned.timing, "{name}: sweep vs planned");
        assert_eq!(observed.timing, planned.timing, "{name}: stepped vs jumped timing result");
        assert!(!ring.events().is_empty(), "{name}: the trace sink saw the run");
        let report = blame.report(&observed.timing, &config.mix);
        report.check_invariant().unwrap_or_else(|e| panic!("{name}: blame ledger: {e}"));
        sim.run_planned(&plan, &p.functional, &p.graph, &mut reused).unwrap();
        assert_eq!(counters(&reused), counters(&fresh), "{name}: reused-scratch jump counters");
        let mut blamed_scratch = SimScratch::new();
        let mut blame_only = BlameRecorder::new();
        let obs = Observe { sink: None, blame: Some(&mut blame_only) };
        let blamed =
            sim.run_observed(&plan, &p.functional, &p.graph, &mut blamed_scratch, obs).unwrap();
        assert_eq!(blamed.timing, planned.timing, "{name}: blamed vs planned");
        assert_eq!(
            counters(&blamed_scratch),
            counters(&fresh),
            "{name}: a blame recorder must not change the solver's decisions"
        );
    }
}

#[test]
fn clamped_mixes_share_plans_and_timing_runs_exactly() {
    // Mixes that differ only beyond what q1, q6 and q14 can use clamp
    // onto few plan keys, and equal schedules share one timing run. The
    // memoized sweep must match from-scratch simulation in the whole
    // timing result, and every cache counter must be the same at any
    // worker count (single-flight caches run each fresh key once).
    // Fault scenarios' degraded configurations take the same path, so
    // a second sweep runs feasible ones that kill, derate and stall.
    let configs: Vec<SimConfig> =
        [(1, 1, 1), (1, 1, 6), (1, 3, 6), (2, 2, 2), (5, 1, 1), (5, 3, 6)]
            .into_iter()
            .map(|(alus, parts, sorts)| SimConfig::new(TileMix::with_swept(alus, parts, sorts)))
            .collect();
    let names = ["q1", "q6", "q14"];
    let graphs = Workload::prepare_subset(0.002, &names).queries;
    let feasible =
        |cfg: &SimConfig| graphs.iter().all(|p| check_feasible(&p.graph, &cfg.mix).is_ok());
    let base = SimConfig::pareto();
    let scenarios: Vec<FaultScenario> =
        (0..).map(|seed| FaultScenario::generate(seed, 0.3, &base.mix)).take(64).collect();
    let mixed = |s: &&FaultScenario| {
        [
            s.faults.iter().any(|f| matches!(f, Fault::TileKilled { .. })),
            s.faults.iter().any(|f| matches!(f, Fault::TileDerated { .. })),
            s.faults.iter().any(|f| matches!(f, Fault::TinstStall { .. })),
        ]
        .into_iter()
        .all(|has| has)
    };
    let derated: Vec<SimConfig> = scenarios
        .iter()
        .filter(mixed)
        .map(|s| s.apply(&base))
        .filter(|cfg| feasible(cfg))
        .take(4)
        .collect();
    assert_eq!(derated.len(), 4, "64 seeds hold four feasible mixed scenarios");
    let demands: Vec<_> = graphs.iter().map(|p| p.graph.kind_histogram()).collect();
    let reschedules =
        |cfg: &SimConfig| demands.iter().any(|d| cfg.mix.clamped_to(d) != base.mix.clamped_to(d));
    assert!(derated.iter().any(reschedules), "some kill must reschedule");
    let killing = scenarios.iter().map(|s| s.apply(&base)).find(|cfg| !feasible(cfg));
    let killing = killing.expect("64 seeds hold a scenario that kills a needed kind");

    let run = |jobs: usize| {
        pool::set_jobs(Some(jobs));
        let w = Workload::prepare_subset(0.002, &names);
        let swept = w.sweep(&configs);
        let counters = [w.plan_cache_stats(), w.timing_memo_stats()];
        w.reset_cache_stats();
        let swept_derated = w.sweep(&derated);
        let counters_derated = [w.plan_cache_stats(), w.timing_memo_stats()];
        pool::set_jobs(None);
        (w, [swept, swept_derated], [counters, counters_derated])
    };
    let (w, swept, serial) = run(1);
    let (_, swept_jobs, parallel) = run(4);
    assert_eq!(serial, parallel, "plan and memo counters must not depend on --jobs");
    let [plan, memo] = serial[0];
    assert!(plan.hits > 0, "surplus tiles must clamp onto shared plans: {plan}");
    assert!(memo.hits > 0, "equal schedules must share a timing run: {memo}");
    assert!(memo.misses <= plan.misses, "no more timing runs than plans: {memo} vs {plan}");
    let [_, memo] = serial[1];
    assert!(memo.misses > 0, "derated configs run the kernel: {memo}");
    let all_configs = configs.iter().chain(&derated);
    let all_swept = swept.iter().flatten().zip(swept_jobs.iter().flatten());
    for (config, (outcomes, outcomes_jobs)) in all_configs.zip(all_swept) {
        for ((p, memoized), memoized_jobs) in w.queries.iter().zip(outcomes).zip(outcomes_jobs) {
            let fresh = w.simulate_uncached(p, config);
            assert_eq!(memoized.timing, fresh.timing, "{} under {}", p.query.name, config.mix);
            assert_eq!(memoized_jobs.timing, fresh.timing, "{} at 4 jobs", p.query.name);
            assert_eq!(memoized.energy_mj().to_bits(), fresh.energy_mj().to_bits());
        }
    }

    let failed = w.queries.iter().map(|p| w.try_simulate(p, &killing)).find_map(Result::err);
    assert!(
        matches!(failed, Some(CoreError::Unschedulable { .. })),
        "a killed needed kind must be a typed error: {failed:?}"
    );
}
