//! Randomized property tests of the Q100 functional tile semantics,
//! the schedulers, and the timing model.
//!
//! Each property runs over a fixed set of deterministic seeds (the
//! in-repo `q100-xrand` generator) so failures reproduce exactly and
//! the suite resolves offline with no external property-test crate.

use q100_xrand::Rng;

use q100_columnar::{Column, MemoryCatalog, Table, Value};
use q100_core::trace::NullSink;
use q100_core::{
    check_feasible, execute, schedule, simulate_plan, AggOp, AluOp, Bandwidth, CmpOp, CoreError,
    GraphProfile, Observe, PortRef, QueryGraph, SchedulerKind, SimConfig, SimScratch, Simulator,
    StagePlan, TileKind, TileMix,
};

const CASES: u64 = 64;

/// Case count of the two stepped-vs-jumped properties: the fold is the
/// subtlest code under test, so it gets more seeds.
const JUMP_CASES: u64 = 256;

fn for_each_case(body: impl FnMut(&mut Rng)) {
    for_cases(CASES, body);
}

fn for_cases(cases: u64, mut body: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let mut rng = Rng::seed_from_u64(0xC0DE_0000 + case);
        body(&mut rng);
    }
}

fn catalog_of(values: &[i64]) -> MemoryCatalog {
    let t = Table::new(vec![
        Column::from_ints("k", values.to_vec()),
        Column::from_ints("v", values.iter().map(|&x| x.wrapping_mul(3)).collect::<Vec<_>>()),
    ])
    .unwrap();
    MemoryCatalog::new(vec![("t".into(), t)])
}

/// The sorter's functional output is an ordered permutation of its
/// input.
#[test]
fn sorter_sorts_any_input() {
    for_each_case(|rng| {
        let values = rng.gen_vec(0..300, |r| r.gen_range(-1000i64..1000));
        let cat = catalog_of(&values);
        let mut b = QueryGraph::builder("p");
        let k = b.col_select_base("t", "k");
        let v = b.col_select_base("t", "v");
        let tab = b.stitch(&[k, v]);
        let s = b.sort(tab, "k");
        let g = b.finish().unwrap();
        let run = execute(&g, &cat).unwrap();
        let out = run.outputs[s.node][0].as_tab(0).unwrap().clone();
        let keys = out.column("k").unwrap().data().to_vec();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        let mut sorted_in = values.clone();
        sorted_in.sort_unstable();
        assert_eq!(keys, sorted_in);
        // Row integrity: v stays glued to its k.
        let vs = out.column("v").unwrap();
        for r in 0..out.row_count() {
            assert_eq!(vs.get(r), out.column("k").unwrap().get(r).wrapping_mul(3));
        }
    });
}

/// Partitioning preserves the input multiset and respects range bounds.
#[test]
fn partition_is_a_range_split() {
    for_each_case(|rng| {
        let values = rng.gen_vec(0..300, |r| r.gen_range(-1000i64..1000));
        let mut bounds = rng.gen_vec(1..6, |r| r.gen_range(-1000i64..1000));
        bounds.sort_unstable();
        bounds.dedup();
        let cat = catalog_of(&values);
        let mut b = QueryGraph::builder("p");
        let k = b.col_select_base("t", "k");
        let tab = b.stitch(&[k]);
        let parts = b.partition(tab, "k", bounds.clone());
        let g = b.finish().unwrap();
        let run = execute(&g, &cat).unwrap();
        let mut reassembled = Vec::new();
        for (i, p) in parts.iter().enumerate() {
            let t = run.outputs[p.node][i].as_tab(0).unwrap().clone();
            let lo = if i == 0 { i64::MIN } else { bounds[i - 1] };
            let hi = if i == bounds.len() { i64::MAX } else { bounds[i] };
            for &x in t.column("k").unwrap().data() {
                assert!(x >= lo && x < hi, "value {x} outside [{lo}, {hi})");
                reassembled.push(x);
            }
        }
        let mut expect = values.clone();
        expect.sort_unstable();
        reassembled.sort_unstable();
        assert_eq!(reassembled, expect);
    });
}

/// Filtering with a predicate then summing equals the scalar reference
/// computation.
#[test]
fn filter_sum_matches_reference() {
    for_each_case(|rng| {
        let values = rng.gen_vec(1..300, |r| r.gen_range(-500i64..500));
        let threshold = rng.gen_range(-500i64..500);
        let cat = catalog_of(&values);
        let mut b = QueryGraph::builder("p");
        let k = b.col_select_base("t", "k");
        let keep = b.bool_gen_const(k, CmpOp::Gt, Value::Int(threshold));
        let kf = b.col_filter(k, keep);
        b.name_output(kf, "k");
        let tab = b.stitch(&[kf]);
        let kcol = b.col_select(tab, "k");
        let a = b.aggregate(AggOp::Sum, kcol, kcol);
        let g = b.finish().unwrap();
        let run = execute(&g, &cat).unwrap();
        let out = run.outputs[a.node][0].as_tab(0).unwrap().clone();
        let got: i64 = out.columns()[1].data().iter().sum();
        let expect: i64 = values.iter().filter(|&&x| x > threshold).sum();
        assert_eq!(got, expect);
    });
}

/// The joiner agrees with a reference nested-loop PK–FK join.
#[test]
fn joiner_matches_nested_loop() {
    for_each_case(|rng| {
        let fk = rng.gen_vec(0..200, |r| r.gen_range(0i64..40));
        let n_pk = rng.gen_range(1i64..40);
        let pk_table = Table::new(vec![
            Column::from_ints("k", (0..n_pk).collect::<Vec<_>>()),
            Column::from_ints("payload", (0..n_pk).map(|x| x * 100).collect::<Vec<_>>()),
        ])
        .unwrap();
        let fk_table = Table::new(vec![Column::from_ints("f", fk.clone())]).unwrap();
        let cat = MemoryCatalog::new(vec![("pk".into(), pk_table), ("fk".into(), fk_table)]);
        let mut b = QueryGraph::builder("j");
        let k = b.col_select_base("pk", "k");
        let p = b.col_select_base("pk", "payload");
        let pkt = b.stitch(&[k, p]);
        let f = b.col_select_base("fk", "f");
        let fkt = b.stitch(&[f]);
        let j = b.join(pkt, "k", fkt, "f");
        let g = b.finish().unwrap();
        let run = execute(&g, &cat).unwrap();
        let out = run.outputs[j.node][0].as_tab(0).unwrap().clone();
        let expect: Vec<i64> = fk.iter().filter(|&&x| x < n_pk).map(|&x| x * 100).collect();
        assert_eq!(out.column("payload").unwrap().data(), &expect[..]);
    });
}

/// Aggregation conserves totals for SUM no matter how the groups
/// arrive.
#[test]
fn aggregate_sum_conserves_total() {
    for_each_case(|rng| {
        let pairs = rng.gen_vec(1..300, |r| (r.gen_range(0i64..10), r.gen_range(-100i64..100)));
        let groups: Vec<i64> = pairs.iter().map(|p| p.0).collect();
        let data: Vec<i64> = pairs.iter().map(|p| p.1).collect();
        let t =
            Table::new(vec![Column::from_ints("g", groups), Column::from_ints("d", data.clone())])
                .unwrap();
        let cat = MemoryCatalog::new(vec![("t".into(), t)]);
        let mut b = QueryGraph::builder("a");
        let d = b.col_select_base("t", "d");
        let gcol = b.col_select_base("t", "g");
        let a = b.aggregate(AggOp::Sum, d, gcol);
        let g = b.finish().unwrap();
        let run = execute(&g, &cat).unwrap();
        let out = run.outputs[a.node][0].as_tab(0).unwrap().clone();
        let got: i64 = out.column("sum_d").unwrap().data().iter().sum();
        assert_eq!(got, data.iter().sum::<i64>());
    });
}

/// Every scheduler produces legal schedules on arbitrary mixes, and a
/// single-stage-capable mix yields zero spills.
#[test]
fn schedulers_always_legal() {
    for_each_case(|rng| {
        let alus = rng.gen_range(1u32..4);
        let parts = rng.gen_range(1u32..4);
        let sorts = rng.gen_range(1u32..4);
        let rows = rng.gen_range(1usize..100);
        let values: Vec<i64> = (0..rows as i64).collect();
        let cat = catalog_of(&values);
        let mut b = QueryGraph::builder("s");
        let k = b.col_select_base("t", "k");
        let v = b.col_select_base("t", "v");
        let keep = b.bool_gen(k, CmpOp::Lt, v);
        let kf = b.col_filter(k, keep);
        let vf = b.col_filter(v, keep);
        let tab = b.stitch(&[kf, vf]);
        let sorted = b.sort(tab, "k");
        let kk = b.col_select(sorted, "k");
        let vv = b.col_select(sorted, "v");
        let _agg = b.aggregate(AggOp::Max, vv, kk);
        let g = b.finish().unwrap();
        let run = execute(&g, &cat).unwrap();
        let mix = TileMix::with_swept(alus, parts, sorts);
        for kind in [SchedulerKind::Naive, SchedulerKind::DataAware, SchedulerKind::SemiExhaustive]
        {
            let s = schedule(kind, &g, &mix, &run.profile).unwrap();
            assert!(s.validate(&g, &mix).is_ok());
        }
        let roomy = TileMix::uniform(16);
        let s = schedule(SchedulerKind::DataAware, &g, &roomy, &run.profile).unwrap();
        assert_eq!(s.spill_bytes(&g, &run.profile), 0);
    });
}

/// Builds a random DAG touching most tile kinds, without ever executing
/// it — names every fresh column so later table ops can re-select it.
fn random_graph(rng: &mut Rng) -> QueryGraph {
    let mut b = QueryGraph::builder("rand");
    let k = b.col_select_base("t", "k");
    let v = b.col_select_base("t", "v");
    let mut cols: Vec<(String, PortRef)> = vec![("k".into(), k), ("v".into(), v)];
    let mut next = 0usize;
    let mut fresh = |b: &mut _, port: PortRef, cols: &mut Vec<(String, PortRef)>| {
        let name = format!("x{next}");
        next += 1;
        q100_core::GraphBuilder::name_output(b, port, name.clone());
        cols.push((name, port));
    };
    for _ in 0..rng.gen_range(1usize..10) {
        let (n1, p1) = cols[rng.gen_range(0usize..cols.len())].clone();
        let (n2, p2) = cols[rng.gen_range(0usize..cols.len())].clone();
        match rng.gen_range(0u32..9) {
            0 => {
                let o = b.alu_const(p1, AluOp::Add, Value::Int(1));
                fresh(&mut b, o, &mut cols);
            }
            1 => {
                let o = b.bool_gen(p1, CmpOp::Lt, p2);
                fresh(&mut b, o, &mut cols);
            }
            2 => {
                let o = b.bool_gen_const(p1, CmpOp::Gt, Value::Int(0));
                fresh(&mut b, o, &mut cols);
            }
            3 => {
                let flag = b.bool_gen_const(p1, CmpOp::Gt, Value::Int(0));
                let o = b.col_filter(p1, flag);
                fresh(&mut b, o, &mut cols);
            }
            4 => {
                let o = b.concat(p1, p2);
                fresh(&mut b, o, &mut cols);
            }
            5 => {
                let t = b.stitch(&[p1]);
                let s = b.sort(t, n1.clone());
                let o = b.col_select(s, n1.clone());
                cols.push((n1, o));
            }
            6 => {
                let t = b.stitch(&[p1]);
                let parts = b.partition(t, n1.clone(), vec![0]);
                let app = b.append_all(&parts);
                let o = b.col_select(app, n1.clone());
                cols.push((n1, o));
            }
            7 => {
                // Aggregator output names depend on its inputs; leave it
                // a sink.
                let _t = b.aggregate(AggOp::Sum, p1, p2);
            }
            _ => {
                if n1 != n2 {
                    let t1 = b.stitch(&[p1]);
                    let t2 = b.stitch(&[p2]);
                    let _j = b.join(t1, n1, t2, n2);
                }
            }
        }
    }
    b.finish().unwrap()
}

/// Random graphs on random — often undersized — mixes: every scheduler
/// either returns a validating schedule (iff the mix is feasible) or a
/// typed `Unschedulable`; it never panics and never succeeds on an
/// infeasible mix.
#[test]
fn schedulers_never_panic_on_random_graphs_and_mixes() {
    for_each_case(|rng| {
        let g = random_graph(rng);
        let profile = GraphProfile { nodes: vec![Default::default(); g.len()] };
        let mut mix = TileMix::uniform(0);
        for kind in TileKind::ALL {
            mix = mix.with_count(kind, rng.gen_range(0u32..3));
        }
        let feasible = check_feasible(&g, &mix).is_ok();
        for kind in [SchedulerKind::Naive, SchedulerKind::DataAware, SchedulerKind::SemiExhaustive]
        {
            match (feasible, schedule(kind, &g, &mix, &profile)) {
                (true, Ok(s)) => s.validate(&g, &mix).unwrap(),
                (false, Err(CoreError::Unschedulable { .. })) => {}
                (f, r) => panic!(
                    "{kind:?}: feasible={f} but scheduler returned {:?}",
                    r.map(|s| s.stages())
                ),
            }
        }
    });
}

/// Capacity beyond a graph's per-kind node demand is invisible to every
/// scheduler: on random executable graphs (with their real volume
/// profiles) and random mixes, scheduling on the demand-clamped mix
/// ([`QueryGraph::clamp_mix`]) gives exactly the full-mix schedule — or
/// fails exactly when it fails. The schedule and plan caches key on
/// that clamp.
#[test]
fn clamped_mix_schedules_equal_full_mix_schedules() {
    let mut clamped_cases = 0u64;
    for_each_case(|rng| {
        let g = random_graph(rng);
        let values = rng.gen_vec(1..500, |r| r.gen_range(-100i64..100));
        let Ok(run) = execute(&g, &catalog_of(&values)) else { return };
        let mut mix = TileMix::uniform(0);
        for kind in TileKind::ALL {
            mix = mix.with_count(kind, rng.gen_range(0u32..6));
        }
        let clamped = g.clamp_mix(&mix);
        if clamped != mix {
            clamped_cases += 1;
        }
        for kind in [SchedulerKind::Naive, SchedulerKind::DataAware, SchedulerKind::SemiExhaustive]
        {
            match (
                schedule(kind, &g, &mix, &run.profile),
                schedule(kind, &g, &clamped, &run.profile),
            ) {
                (Ok(full), Ok(clamp)) => assert_eq!(full, clamp, "{kind:?}: {mix} vs {clamped}"),
                (Err(_), Err(_)) => {}
                (full, clamp) => panic!(
                    "{kind:?}: full mix {:?} but clamped mix {:?}",
                    full.map(|s| s.stages()),
                    clamp.map(|s| s.stages())
                ),
            }
        }
    });
    assert!(clamped_cases >= CASES / 4, "only {clamped_cases} cases had surplus to clamp");
}

/// Tighter bandwidth caps never make a query faster (fluid-model
/// monotonicity).
#[test]
fn bandwidth_is_monotone() {
    for_each_case(|rng| {
        let rows = rng.gen_range(32usize..2000);
        let cap_gbps = 1.0 + rng.gen_range(0u32..39_000) as f64 / 1000.0;
        let values: Vec<i64> = (0..rows as i64).collect();
        let cat = catalog_of(&values);
        let mut b = QueryGraph::builder("m");
        let k = b.col_select_base("t", "k");
        let keep = b.bool_gen_const(k, CmpOp::Gte, Value::Int(0));
        let _f = b.col_filter(k, keep);
        let g = b.finish().unwrap();

        let base = SimConfig::new(TileMix::uniform(8));
        let ideal = Simulator::new(&base).run(&g, &cat).unwrap();
        let capped_cfg = base.with_bandwidth(Bandwidth {
            noc_gbps: Some(cap_gbps),
            mem_read_gbps: Some(cap_gbps),
            mem_write_gbps: Some(cap_gbps),
        });
        let capped = Simulator::new(&capped_cfg).run(&g, &cat).unwrap();
        assert!(
            capped.cycles + 1 >= ideal.cycles,
            "capped {} < ideal {}",
            capped.cycles,
            ideal.cycles
        );
    });
}

/// The quantum-jump fast path is invisible: on random executable
/// graphs, a run with jumping enabled produces a bit-identical
/// [`q100_core::TimingResult`] to pure stepping of the same compiled
/// plan — cycles, per-link peaks, and memory statistics all match.
#[test]
fn quantum_jump_matches_pure_stepping_on_random_graphs() {
    use std::sync::Arc;

    let mut compared = 0u64;
    let mut jumped_quanta = 0u64;
    for_cases(JUMP_CASES, |rng| {
        let g = random_graph(rng);
        let values = rng.gen_vec(1..3000, |r| r.gen_range(-1000i64..1000));
        let cat = catalog_of(&values);
        // Random graphs are not all executable (e.g. joins drawing
        // duplicate primary keys); skip those cases.
        let Ok(run) = execute(&g, &cat) else { return };
        let mut mix = TileMix::uniform(0);
        for kind in TileKind::ALL {
            mix = mix.with_count(kind, rng.gen_range(1u32..4));
        }
        if check_feasible(&g, &mix).is_err() {
            return;
        }
        let config = SimConfig::new(mix);
        let sched = schedule(config.scheduler, &g, &config.mix, &run.profile).unwrap();
        let plan = q100_core::StagePlan::compile(&g, Arc::new(sched), &run.profile).unwrap();
        let mut scratch = SimScratch::new();
        let jumped = simulate_plan(&plan, &config, &mut scratch, Observe::default()).unwrap();
        jumped_quanta += scratch.jumped_quanta;
        // A trace sink forces pure stepping (jumped quanta emit no
        // per-quantum events).
        let stepped_obs = Observe { sink: Some(&mut NullSink), blame: None };
        let stepped = simulate_plan(&plan, &config, &mut scratch, stepped_obs).unwrap();
        assert_eq!(jumped, stepped, "jumped and stepped timing must agree bit-for-bit");
        compared += 1;
    });
    // Join-bearing random graphs often draw duplicate primary keys and
    // are skipped; a third of the cases surviving still compares
    // thousands of quanta.
    assert!(compared >= JUMP_CASES / 4, "only {compared} executable cases out of {JUMP_CASES}");
    assert!(jumped_quanta > 0, "no case engaged the quantum-jump fast path");
}

/// One random executable graph under a random undersized mix and random
/// derates (slowed tiles, throttled NoC/memory, per-stage fault stalls),
/// compiled into a plan; `None` when the draw is not executable.
fn derated_case(rng: &mut Rng) -> Option<(StagePlan, SimConfig)> {
    let g = random_graph(rng);
    let values = rng.gen_vec(1..3000, |r| r.gen_range(-1000i64..1000));
    let cat = catalog_of(&values);
    let run = execute(&g, &cat).ok()?;
    let mut mix = TileMix::uniform(0);
    for kind in TileKind::ALL {
        mix = mix.with_count(kind, rng.gen_range(1u32..4));
    }
    check_feasible(&g, &mix).ok()?;
    let mut derate = q100_core::Derate::none();
    for f in &mut derate.tile_factor {
        *f = 0.5 + rng.gen_range(0u32..500) as f64 / 1000.0;
    }
    derate.noc_factor = 0.5 + rng.gen_range(0u32..500) as f64 / 1000.0;
    derate.mem_read_factor = 0.5 + rng.gen_range(0u32..500) as f64 / 1000.0;
    derate.mem_write_factor = 0.5 + rng.gen_range(0u32..500) as f64 / 1000.0;
    derate.tinst_stall_cycles =
        (0..rng.gen_range(0usize..4)).map(|_| rng.gen_range(0u64..200)).collect();
    let mut config = SimConfig::new(mix);
    // Derating only throttles provisioned caps; draw caps half the time
    // so the derated-bandwidth jump paths engage.
    if rng.gen_range(0u32..2) == 0 {
        let cap = 1.0 + rng.gen_range(0u32..20_000) as f64 / 1000.0;
        config = config.with_bandwidth(Bandwidth {
            noc_gbps: Some(cap),
            mem_read_gbps: Some(cap),
            mem_write_gbps: Some(cap),
        });
    }
    config.derate = Some(derate);
    let sched = schedule(config.scheduler, &g, &config.mix, &run.profile).unwrap();
    let plan = StagePlan::compile(&g, std::sync::Arc::new(sched), &run.profile).unwrap();
    Some((plan, config))
}

/// The quantum-jump fast path stays invisible under fault derating and
/// blame attribution: on random derated cases ([`derated_case`]), a
/// jumped run is bit-identical to pure stepping — with and without a
/// [`q100_core::BlameRecorder`] attached — and the folded blame ledgers
/// match the stepped ones entry for entry. The jump counters are a
/// function of the plan alone, whatever the scratch ran before and
/// whether or not a recorder is attached.
#[test]
fn quantum_jump_matches_pure_stepping_with_derates_and_blame() {
    let counters = |s: &SimScratch| {
        (s.jumps, s.jumped_quanta, s.stepped_quanta, s.replayed_node_quanta, s.retired_node_quanta)
    };
    let mut compared = 0u64;
    let mut jumped_quanta = 0u64;
    // A sweep worker's scratch runs plan after plan: this one runs every
    // case's plan in order, and each run must count what a fresh scratch
    // counts.
    let mut reused = SimScratch::new();
    for_cases(JUMP_CASES, |rng| {
        let Some((plan, config)) = derated_case(rng) else { return };

        let mut scratch = SimScratch::new();
        let jumped = simulate_plan(&plan, &config, &mut scratch, Observe::default()).unwrap();
        jumped_quanta += scratch.jumped_quanta;
        let plain_counters = counters(&scratch);
        let again = simulate_plan(&plan, &config, &mut reused, Observe::default()).unwrap();
        assert_eq!(again, jumped);
        assert_eq!(
            counters(&reused),
            plain_counters,
            "jump counters must not depend on what the scratch ran before"
        );
        let mut jumped_rec = q100_core::BlameRecorder::new();
        let jumped_blamed = simulate_plan(
            &plan,
            &config,
            &mut scratch,
            Observe { sink: None, blame: Some(&mut jumped_rec) },
        )
        .unwrap();
        assert_eq!(
            counters(&scratch),
            plain_counters,
            "a blame recorder must not change the solver's decisions"
        );

        // A trace sink forces pure stepping (jumped quanta emit no
        // per-quantum events).
        let stepped_obs = Observe { sink: Some(&mut NullSink), blame: None };
        let stepped = simulate_plan(&plan, &config, &mut scratch, stepped_obs).unwrap();
        let mut stepped_rec = q100_core::BlameRecorder::new();
        let stepped_blamed = simulate_plan(
            &plan,
            &config,
            &mut scratch,
            Observe { sink: Some(&mut NullSink), blame: Some(&mut stepped_rec) },
        )
        .unwrap();

        assert_eq!(jumped, stepped, "derated jumped and stepped timing must agree bit-for-bit");
        assert_eq!(jumped_blamed, stepped_blamed, "blame must not perturb the derated jump");
        let jumped_report = jumped_rec.report(&jumped_blamed, &config.mix);
        let stepped_report = stepped_rec.report(&stepped_blamed, &config.mix);
        assert_eq!(jumped_report, stepped_report, "folded blame ledgers must match stepping");
        jumped_report.check_invariant().unwrap_or_else(|e| panic!("blame invariant violated: {e}"));
        compared += 1;
    });
    assert!(compared >= JUMP_CASES / 4, "only {compared} executable cases out of {JUMP_CASES}");
    assert!(jumped_quanta > 0, "no derated case engaged the quantum-jump fast path");
}

/// Stall-blame accounting is exhaustive: on random executable graphs ×
/// random undersized mixes (half of them with tight bandwidth caps so
/// the NoC and memory causes engage), every node's ledger balances —
/// `active + Σ blamed` equals the query's total cycles — and attaching
/// the recorder never perturbs the timing result.
#[test]
fn blame_accounting_is_exhaustive_on_random_graphs() {
    use std::sync::Arc;

    let mut checked = 0u64;
    for_each_case(|rng| {
        let g = random_graph(rng);
        let values = rng.gen_vec(1..3000, |r| r.gen_range(-1000i64..1000));
        let cat = catalog_of(&values);
        let Ok(run) = execute(&g, &cat) else { return };
        let mut mix = TileMix::uniform(0);
        for kind in TileKind::ALL {
            mix = mix.with_count(kind, rng.gen_range(1u32..4));
        }
        if check_feasible(&g, &mix).is_err() {
            return;
        }
        let mut config = SimConfig::new(mix);
        if rng.gen_range(0u32..2) == 0 {
            let cap = 1.0 + rng.gen_range(0u32..20_000) as f64 / 1000.0;
            config = config.with_bandwidth(Bandwidth {
                noc_gbps: Some(cap),
                mem_read_gbps: Some(cap),
                mem_write_gbps: Some(cap),
            });
        }
        let sched = schedule(config.scheduler, &g, &config.mix, &run.profile).unwrap();
        let plan = q100_core::StagePlan::compile(&g, Arc::new(sched), &run.profile).unwrap();
        let mut scratch = SimScratch::new();
        let plain = simulate_plan(&plan, &config, &mut scratch, Observe::default()).unwrap();
        let mut rec = q100_core::BlameRecorder::new();
        let blamed = simulate_plan(
            &plan,
            &config,
            &mut scratch,
            Observe { sink: None, blame: Some(&mut rec) },
        )
        .unwrap();
        assert_eq!(plain, blamed, "blame recording must not perturb timing");
        let report = rec.report(&blamed, &config.mix);
        report.check_invariant().unwrap_or_else(|e| panic!("blame invariant violated: {e}"));
        assert_eq!(report.nodes.len(), g.len(), "every scheduled node gets a ledger");
        checked += 1;
    });
    assert!(checked >= CASES / 4, "only {checked} executable cases out of {CASES}");
}

/// Non-proptest sanity: profiles drive the schedulers, so an empty
/// profile must still schedule legally (volumes default to zero).
#[test]
fn empty_profile_schedules() {
    let mut b = QueryGraph::builder("e");
    let a = b.col_select_base("t", "x");
    let _s = b.stitch(&[a]);
    let g = b.finish().unwrap();
    let profile = GraphProfile { nodes: vec![Default::default(); g.len()] };
    for kind in [SchedulerKind::Naive, SchedulerKind::DataAware, SchedulerKind::SemiExhaustive] {
        let s = schedule(kind, &g, &TileMix::uniform(1), &profile).unwrap();
        assert!(s.validate(&g, &TileMix::uniform(1)).is_ok());
    }
}

/// Energy accounting is consistent: more tiles of every kind cannot
/// reduce a design's Table 3 power.
#[test]
fn design_power_monotone_in_tiles() {
    for kind in TileKind::ALL {
        let small = TileMix::uniform(1);
        let big = small.with_count(kind, 4);
        assert!(big.tile_power_w() >= small.tile_power_w());
        assert!(big.tile_area_mm2() >= small.tile_area_mm2());
    }
}
