//! End-to-end checks of the parallel sweep engine and its caches:
//! results must be byte-identical at any job count, and memoizing
//! schedules, plans and timing results must not change a single
//! simulated cycle.

use q100_core::{Bandwidth, Derate, SimConfig, TileKind, TileMix};
use q100_experiments::{comm, dse, paper_designs, pool, Workload};
use q100_xrand::Rng;

#[test]
fn parallel_explore_matches_serial_byte_for_byte() {
    let w = Workload::prepare_subset(0.002, &["q6", "q1"]);
    pool::set_jobs(Some(1));
    let serial = dse::explore(&w).to_csv();
    pool::set_jobs(Some(4));
    let parallel = dse::explore(&w).to_csv();
    pool::set_jobs(None);
    assert_eq!(serial, parallel, "CSV must not depend on the job count");
}

#[test]
fn plan_cache_hits_on_bandwidth_sweeps_without_changing_results() {
    let w = Workload::prepare_subset(0.002, &["q6", "q1"]);
    // A bandwidth sweep re-simulates the same (query, scheduler, mix)
    // keys under different caps — everything after the first pass per
    // design must hit the compiled-plan cache, so the scheduler runs at
    // most once per (query, design).
    let sweep = comm::bandwidth_sweep(&w, "NoC", &[2.0, comm::NOC_LIMIT_GBPS, 10.0]);
    assert!(sweep.max_slowdown() >= 1.0);
    let stats = w.plan_cache_stats();
    assert!(stats.hits > 0, "bandwidth sweep must reuse compiled plans: {stats}");
    assert!(stats.misses > 0, "first sight of each key is a miss: {stats}");
    let keys = (w.queries.len() * paper_designs().len()) as u64;
    assert!(stats.misses <= keys, "one schedule per (query, design) at most: {stats}");

    // Cache transparency: cached and from-scratch runs agree exactly.
    for p in &w.queries {
        for (name, config) in paper_designs() {
            let cached = w.simulate(p, &config);
            let uncached = w.simulate_uncached(p, &config);
            assert_eq!(cached.cycles, uncached.cycles, "{name}/{}", p.query.name);
            assert_eq!(cached.schedule, uncached.schedule, "{name}/{}", p.query.name);
        }
    }
}

/// The timing memo is invisible: over random tile mixes × NoC/memory
/// caps × stream buffers × p2p links × derates, every outcome of a
/// memoized `Workload::sweep` equals a from-scratch simulation in its
/// whole timing result, schedule, configuration and energy. Each timing
/// setting differs from a random base in exactly one knob, and the
/// caps are tight enough to bind, so a memo key that dropped any knob
/// the kernel reads would answer some of these runs with another
/// setting's timing.
#[test]
fn memoized_sweep_equals_uncached_simulation() {
    // q10 is the one of these whose timing the write cap moves.
    let w = Workload::prepare_subset(0.002, &["q6", "q1", "q14", "q10"]);
    let mut rng = Rng::seed_from_u64(0x7157_0000);
    let caps = [0.5, 1.5, 4.0];
    let cap = |rng: &mut Rng| Some(caps[rng.gen_range(0..caps.len())]);
    let bandwidth = Bandwidth {
        noc_gbps: cap(&mut rng),
        mem_read_gbps: cap(&mut rng),
        mem_write_gbps: cap(&mut rng),
    };
    let base = SimConfig::new(TileMix::pareto()).with_bandwidth(bandwidth);
    let mut derate = Derate::none();
    derate.tile_factor = [0.75; TileKind::COUNT];
    let variants: Vec<SimConfig> = vec![
        base.clone(),
        base.clone().with_bandwidth(Bandwidth { noc_gbps: None, ..bandwidth }),
        base.clone().with_bandwidth(Bandwidth { mem_read_gbps: Some(0.25), ..bandwidth }),
        base.clone().with_bandwidth(Bandwidth { mem_write_gbps: Some(0.01), ..bandwidth }),
        base.clone().with_p2p_links(vec![
            (TileKind::ColSelect, TileKind::BoolGen),
            (TileKind::ColSelect, TileKind::ColFilter),
            (TileKind::BoolGen, TileKind::ColFilter),
        ]),
        SimConfig { read_buffers: 4, write_buffers: 1, ..base.clone() },
        SimConfig { derate: Some(derate), ..base.clone() },
    ];
    let configs: Vec<SimConfig> = variants
        .iter()
        .flat_map(|variant| (0..6).map(move |_| variant.clone()))
        .map(|mut config| {
            config.mix = TileMix::with_swept(
                rng.gen_range(1u32..6),
                rng.gen_range(1u32..5),
                rng.gen_range(1u32..7),
            );
            config
        })
        .collect();

    let swept = w.sweep(&configs);
    let memo = w.timing_memo_stats();
    assert!(memo.hits > 0, "repeated timing keys must hit the memo: {memo}");
    assert_eq!(memo.hits + memo.misses, (configs.len() * w.queries.len()) as u64);
    for (config, outcomes) in configs.iter().zip(&swept) {
        for (p, memoized) in w.queries.iter().zip(outcomes) {
            let fresh = w.simulate_uncached(p, config);
            let name = p.query.name;
            assert_eq!(memoized.timing, fresh.timing, "{name} under {}", config.mix);
            assert_eq!(memoized.schedule, fresh.schedule, "{name} under {}", config.mix);
            assert_eq!(&memoized.config, config, "{name}: the outcome carries its own config");
            assert_eq!(
                memoized.energy_mj().to_bits(),
                fresh.energy_mj().to_bits(),
                "{name}: energy reads the caller's mix"
            );
        }
    }
}
