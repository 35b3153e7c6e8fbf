//! Tests of the benchmark on its tiny variants (SF 0.002, three
//! queries): the metric names it emits, repeatable traced counts, pin
//! checks, and `compare`'s verdicts.

use q100_hostbench::compare::{self, verdict, Verdict};
use q100_hostbench::report::Report;
use q100_hostbench::runner::{run, Options};
use q100_hostbench::spec::{Kind, Spec, NAMES};
use q100_trace::json::{self, Json};

fn opts(traced: bool) -> Options {
    Options { seed: 42, seconds: 0.0, traced, setups: 1 }
}

fn tiny(name: &str) -> Spec {
    Spec::tiny(name).expect("a known workload")
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Json::as_str).expect("a string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(report: &Report, traced: bool) -> Vec<(String, String)> {
    report.metrics(traced).iter().map(|(n, u, _)| ((*n).to_string(), (*u).to_string())).collect()
}

#[test]
fn emitted_metrics_and_workloads_match_benchmark_json() {
    let doc = json::parse(&benchmark_json()).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("a workload list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(workloads, NAMES);
    for name in ["dse", "serve_healthy"] {
        let spec = tiny(name);
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(&spec, &opts(traced));
            assert!(report.correct(), "{name}: {:?}", report.notes);
            assert_eq!(emitted(&report, traced), listed(&doc, key), "{name} {key}");
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for name in NAMES {
        let report = run(&tiny(name), &opts(false));
        for (metric, _, value) in report.metrics(false) {
            assert!(value > 0.0, "{name}: {metric} = {value}");
        }
    }
}

#[test]
fn traced_runs_repeat_every_count() {
    let counts = |r: &Report| -> Vec<(&str, f64)> {
        r.metrics(true)
            .into_iter()
            .filter(|(_, u, _)| *u == "count")
            .map(|(n, _, v)| (n, v))
            .collect()
    };
    for name in NAMES {
        let spec = tiny(name);
        let (a, b) = (run(&spec, &opts(true)), run(&spec, &opts(true)));
        assert!(a.correct() && b.correct(), "{name}: {:?} {:?}", a.notes, b.notes);
        assert_eq!(counts(&a), counts(&b), "{name}");
        let coverage = a.values["trace.coverage"];
        assert!(coverage >= 0.95, "{name}: trace coverage {coverage}");
    }
}

/// Adds 1 to the number ending the `line`-th pin entry.
fn corrupt(pins: &str, line: usize) -> String {
    let mut entries = 0;
    pins.lines()
        .map(|l| {
            if l.starts_with('#') || l.starts_with("seed ") {
                return l.to_string();
            }
            entries += 1;
            if entries != line + 1 {
                return l.to_string();
            }
            let (key, value) = l.split_once(' ').expect("`key value` entries");
            match value.parse::<u64>() {
                Ok(n) => format!("{key} {}", n + 1),
                Err(_) => {
                    format!("{key} {:016x}", u64::from_str_radix(value, 16).expect("hex") ^ 1)
                }
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn a_corrupted_pin_is_reported_as_failed_ops() {
    let mut spec = tiny("bandwidth");
    let clean = run(&spec, &opts(false));
    assert!(clean.correct(), "{:?}", clean.notes);
    spec.pins = clean.pins.clone();
    assert_eq!(run(&spec, &opts(false)).failed, 0, "fresh pins match");
    spec.pins = corrupt(&clean.pins, 3);
    let report = run(&spec, &opts(false));
    assert_eq!((report.correct(), report.failed), (false, 1), "{:?}", report.notes);

    let mut spec = tiny("serve_chaos");
    let Kind::Serve { requests, .. } = spec.kind else { unreachable!("a serve workload") };
    let clean = run(&spec, &opts(false));
    spec.pins = corrupt(&clean.pins, 0);
    let report = run(&spec, &opts(false));
    assert_eq!(report.failed, requests as u64, "one digest block covers the first pass");
    // A run on another seed also serves a cycle at the pinned seed.
    let other = run(&spec, &Options { seed: 7, ..opts(false) });
    assert_eq!(other.failed, requests as u64, "{:?}", other.notes);
}

#[test]
fn compare_gives_each_verdict() {
    let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
    let scaled = |k: f64| -> Vec<f64> { parent.iter().map(|v| v * k).collect() };
    // Higher is better (a throughput), bound 10 %.
    assert_eq!(verdict(&parent, &scaled(1.05), false, 0.1), Verdict::Improved);
    assert_eq!(verdict(&parent, &parent, false, 0.1), Verdict::Unchanged);
    assert_eq!(verdict(&parent, &scaled(0.95), false, 0.1), Verdict::Unchanged);
    assert_eq!(verdict(&parent, &scaled(0.8), false, 0.1), Verdict::Regressed);
    // Lower is better (a time): the same samples read the other way.
    assert_eq!(verdict(&parent, &scaled(0.95), true, 0.1), Verdict::Improved);
    assert_eq!(verdict(&parent, &scaled(1.2), true, 0.1), Verdict::Regressed);
    // A gain needs ten pairs, and wins in nine tenths of them.
    assert_eq!(verdict(&parent[..9], &scaled(1.05)[..9], false, 0.1), Verdict::Unchanged);
    let mut mixed = scaled(1.05);
    mixed[0] = 90.0;
    mixed[1] = 90.0;
    assert_eq!(verdict(&parent, &mixed, false, 0.1), Verdict::Unchanged);
    // A parent spread wider than the bound leaves overlapping runs
    // unresolved, but runs wholly on one side still decide.
    let noisy = [70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 75.0, 125.0, 95.0];
    let shifted: Vec<f64> = noisy.iter().map(|v| v - 20.0).collect();
    assert_eq!(verdict(&noisy, &shifted, false, 0.1), Verdict::Unresolved);
    assert_eq!(verdict(&noisy, &[10.0; 10], false, 0.1), Verdict::Regressed);
}

#[test]
fn compare_reads_results_files_and_benchmark_bounds() {
    let bounds = compare::bounds(&benchmark_json()).expect("bounds parse");
    assert!(bounds.iter().any(|b| b.name == "setup_s" && b.lower_is_better));
    let record = |ops: f64| {
        format!(
            "{{\"workload\": \"dse\", \"trace\": 0, \"metrics\": {{\"ops_per_s\": \
             {{\"value\": {ops}, \"unit\": \"1/s\"}}}}}}\n"
        )
    };
    let runs = |base: f64| -> String { (0..10).map(|i| record(base + f64::from(i))).collect() };
    let rows = compare::compare(&runs(500.0), &runs(600.0), &bounds).expect("records parse");
    assert_eq!(rows.len(), 1);
    assert_eq!((rows[0].wins, rows[0].pairs, rows[0].verdict), (10, 10, Verdict::Improved));
    // 40 % fewer ops per second is past the 25 % bound.
    let rows = compare::compare(&runs(500.0), &runs(300.0), &bounds).expect("records parse");
    assert_eq!(rows[0].verdict, Verdict::Regressed);
    assert!(compare::render(&rows).contains("regressed"));
}
