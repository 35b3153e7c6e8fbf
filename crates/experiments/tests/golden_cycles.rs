//! Golden-cycle regression pins: exact simulated cycle counts for the
//! pinned perf-report workload (q1, q6, q14 at SF 0.01) under the three
//! paper designs. Any timing-model change — intended or not — shows up
//! here as an exact diff, and the quantum-jump fast path is checked
//! bit-for-bit against pure stepping on the same compiled plans.

use std::sync::Arc;

use q100_core::exec::{simulate_plan, Observe, TimingResult, ENDPOINTS};
use q100_core::trace::NullSink;
use q100_core::{schedule, Bandwidth, SimConfig, SimScratch, StagePlan, TileMix};
use q100_experiments::{paper_designs, Workload};

/// The pinned scale factor (matches `perf_report::PINNED_SCALE`).
const SCALE: f64 = 0.01;

/// Exact cycle counts per query under (LowPower, Pareto, HighPerf).
/// Regenerate by running this test and copying the printed actuals —
/// but only after convincing yourself the timing model *should* have
/// changed.
const GOLDEN: [(&str, [u64; 3]); 3] = [
    ("q1", [735_584, 401_624, 401_624]),
    ("q6", [244_126, 61_988, 61_988]),
    ("q14", [90_994, 70_978, 70_160]),
];

#[test]
fn paper_design_cycles_are_pinned() {
    let names: Vec<&str> = GOLDEN.iter().map(|(q, _)| *q).collect();
    let w = Workload::prepare_subset(SCALE, &names);
    let mut actual = Vec::new();
    for (prepared, (name, _)) in w.queries.iter().zip(&GOLDEN) {
        let mut cycles = [0u64; 3];
        for (i, (_, config)) in paper_designs().iter().enumerate() {
            cycles[i] = w.simulate(prepared, config).cycles;
        }
        actual.push((*name, cycles));
    }
    assert_eq!(actual, GOLDEN.to_vec(), "golden cycle counts diverged; actuals: {actual:?}");
}

/// Golden blame pins: the dominant stall cause — and its blamed cycle
/// total, rounded — per pinned query × (LowPower, Pareto, HighPerf).
/// Every ledger is also rebalanced against the invariant and against
/// the unblamed cycle count, so an attribution-rule change (intended or
/// not) shows up as an exact diff here. Regenerate like `GOLDEN`.
const GOLDEN_BLAME: [(&str, [(&str, u64); 3]); 3] = [
    ("q1", [("tile_wait", 58_484_390), ("tile_wait", 27_221_844), ("tile_wait", 27_162_402)]),
    ("q6", [("tile_wait", 3_138_532), ("tile_wait", 602_740), ("tile_wait", 543_042)]),
    ("q14", [("tile_wait", 5_558_876), ("tile_wait", 4_604_512), ("tile_wait", 4_569_972)]),
];

#[test]
fn paper_design_blame_is_pinned() {
    let names: Vec<&str> = GOLDEN_BLAME.iter().map(|(q, _)| *q).collect();
    let w = Workload::prepare_subset(SCALE, &names);
    let mut actual = Vec::new();
    for (prepared, (name, _)) in w.queries.iter().zip(&GOLDEN_BLAME) {
        let mut rows = Vec::new();
        for (_, config) in paper_designs() {
            let (outcome, report) = w.simulate_blamed(prepared, &config);
            assert_eq!(
                outcome.cycles,
                w.simulate(prepared, &config).cycles,
                "{name}: blame recording must not perturb timing"
            );
            report.check_invariant().unwrap_or_else(|e| panic!("{name}: {e}"));
            let (cause, cycles) = report.top_causes()[0];
            rows.push((cause.name(), cycles.round() as u64));
        }
        actual.push((*name, [rows[0], rows[1], rows[2]]));
    }
    assert_eq!(actual, GOLDEN_BLAME.to_vec(), "golden blame pins diverged; actuals: {actual:?}");
}

/// Derated golden pins: exact cycle counts for the pinned queries on
/// the Pareto design under a 10%-rate fault scenario (seeded per
/// query), running the scenario's degraded configuration through the
/// sweep path — killed tiles reschedule, surviving tiles and links
/// derate, and the event-horizon solver folds the derated quanta.
/// Regenerate like `GOLDEN`.
const GOLDEN_DERATED: [(&str, u64); 3] = [("q1", 582_302), ("q6", 61_988), ("q14", 77_826)];

#[test]
fn derated_pareto_cycles_are_pinned() {
    let names: Vec<&str> = GOLDEN_DERATED.iter().map(|(q, _)| *q).collect();
    let w = Workload::prepare_subset(SCALE, &names);
    let (_, pareto) = &paper_designs()[1];
    let mut actual = Vec::new();
    for (qi, (prepared, (name, _))) in w.queries.iter().zip(&GOLDEN_DERATED).enumerate() {
        let scenario = q100_core::FaultScenario::generate(0x9E37 + qi as u64, 0.10, &pareto.mix);
        let out = w
            .try_simulate(prepared, &scenario.apply(pareto))
            .unwrap_or_else(|e| panic!("{name}: derated run unschedulable: {e}"));
        actual.push((*name, out.cycles));
    }
    assert_eq!(
        actual,
        GOLDEN_DERATED.to_vec(),
        "derated golden cycle counts diverged; actuals: {actual:?}"
    );
    let jump = w.jump_stats();
    assert!(jump.jumped_quanta > 0, "no derated run engaged the quantum-jump fast path");
}

/// FNV-1a over the bit patterns of everything a [`TimingResult`]
/// reports beyond the cycle count: per-tinst cycles, busy cycles per
/// tile kind, every peak link bandwidth cell and both memory bandwidth
/// statistics. One changed ULP anywhere changes the digest.
fn timing_digest(t: &TimingResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    mix(t.cycles);
    mix(t.per_tinst_cycles.len() as u64);
    t.per_tinst_cycles.iter().for_each(|&c| mix(c));
    t.busy_cycles.iter().for_each(|b| mix(b.to_bits()));
    for src in 0..ENDPOINTS {
        for dst in 0..ENDPOINTS {
            mix(t.peak_gbps.get(src, dst).to_bits());
        }
    }
    for bw in [t.mem_read, t.mem_write] {
        mix(bw.hi_gbps.to_bits());
        mix(bw.lo_gbps.to_bits());
        mix(bw.avg_gbps.to_bits());
    }
    h
}

/// Whole-result pins: [`timing_digest`] per pinned query under
/// (LowPower, Pareto, HighPerf, Pareto mix with 2 GB/s NoC links and
/// ideal memory, Pareto derated by the `GOLDEN_DERATED` fault
/// scenario). Jump-vs-step properties compare two runs of the same
/// kernel, so they cannot see a kernel change that moves peaks, busy
/// cycles or bandwidth statistics on both sides at once; these pins
/// can. Regenerate like `GOLDEN`.
const GOLDEN_TIMING: [(&str, [u64; 5]); 3] = [
    (
        "q1",
        [
            0x5ca4_9ce0_16c1_e56c,
            0xa127_d126_851a_fc3f,
            0x9368_f850_e97a_e1d6,
            0x5dac_4c9b_43bc_2f76,
            0xbf42_0bf0_c3a5_601b,
        ],
    ),
    (
        "q6",
        [
            0x0e39_6a9c_5695_1947,
            0xbd9f_3ec3_d23e_f528,
            0xea7b_4e9c_2002_86f6,
            0xcb5e_30f8_5aff_f86c,
            0xbd9f_3ec3_d23e_f528,
        ],
    ),
    (
        "q14",
        [
            0x4be4_51cc_20a3_fcb3,
            0x6739_75ed_2fe8_ff3c,
            0xb3da_85d4_7118_c6b1,
            0x6e34_e2b7_bbd7_8258,
            0x009a_da36_3201_9f26,
        ],
    ),
];

#[test]
fn whole_timing_results_are_pinned() {
    let names: Vec<&str> = GOLDEN_TIMING.iter().map(|(q, _)| *q).collect();
    let w = Workload::prepare_subset(SCALE, &names);
    let designs = paper_designs();
    let pareto = &designs[1].1;
    let noc_capped = SimConfig::new(TileMix::pareto()).with_bandwidth(Bandwidth {
        noc_gbps: Some(2.0),
        mem_read_gbps: None,
        mem_write_gbps: None,
    });
    let mut actual = Vec::new();
    for (qi, (prepared, (name, _))) in w.queries.iter().zip(&GOLDEN_TIMING).enumerate() {
        let mut digests = [0u64; 5];
        for (i, (_, config)) in designs.iter().enumerate() {
            digests[i] = timing_digest(&w.simulate(prepared, config).timing);
        }
        digests[3] = timing_digest(&w.simulate(prepared, &noc_capped).timing);
        let scenario = q100_core::FaultScenario::generate(0x9E37 + qi as u64, 0.10, &pareto.mix);
        let derated = w
            .try_simulate(prepared, &scenario.apply(pareto))
            .unwrap_or_else(|e| panic!("{name}: derated run unschedulable: {e}"));
        digests[4] = timing_digest(&derated.timing);
        actual.push((*name, digests));
    }
    assert_eq!(
        actual,
        GOLDEN_TIMING.to_vec(),
        "whole-result timing digests diverged; actuals: {actual:x?}"
    );
}

/// On the real TPC-H workload, a jumped simulation must be
/// bit-identical to pure stepping of the same compiled plan, and the
/// fast path must actually engage somewhere in this workload. The
/// analytic event-horizon solver jumps under provisioned bandwidth
/// caps too, but the longest certified segments come from the paper
/// designs' mixes under ideal bandwidth — the fig6 design-space
/// configuration — so this check uses those on the two queries whose
/// long steady-state stages dominate fig6 engagement (q20 and q21).
#[test]
fn quantum_jump_is_bit_identical_on_tpch() {
    let w = Workload::prepare_subset(SCALE, &["q20", "q21"]);
    let mut jumped_quanta = 0u64;
    for prepared in &w.queries {
        for (design, capped) in paper_designs() {
            let config = q100_core::SimConfig::new(capped.mix);
            let sched = schedule(
                config.scheduler,
                &prepared.graph,
                &config.mix,
                &prepared.functional.profile,
            )
            .unwrap();
            let plan =
                StagePlan::compile(&prepared.graph, Arc::new(sched), &prepared.functional.profile)
                    .unwrap();
            let mut scratch = SimScratch::new();
            let jumped = simulate_plan(&plan, &config, &mut scratch, Observe::default()).unwrap();
            jumped_quanta += scratch.jumped_quanta;
            // A trace sink forces pure stepping (jumped quanta emit no
            // per-quantum events).
            let stepped_obs = Observe { sink: Some(&mut NullSink), blame: None };
            let stepped = simulate_plan(&plan, &config, &mut scratch, stepped_obs).unwrap();
            assert_eq!(jumped, stepped, "{design}/{}", prepared.query.name);
        }
    }
    assert!(jumped_quanta > 0, "no (query, design) engaged the quantum-jump fast path");
}
