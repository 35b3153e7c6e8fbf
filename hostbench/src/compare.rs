//! `hostbench compare`: parent against change, one row per workload ×
//! end-to-end metric.
//!
//! Both sides are results files written with `--out` (one JSON record
//! per run), from runs made in interleaved pairs: the i-th parent run
//! is paired with the i-th change run of the same workload. A gain
//! needs at least ten pairs, wins in at least nine tenths of them (ties
//! count for neither) and a median gap wider than the parent's
//! interquartile range. A metric whose parent spread exceeds its bound
//! is unresolved unless every change run lies on one side of every
//! parent run; otherwise a median worse by more than the bound is a
//! regression.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use q100_trace::json::{self, Json};

use crate::stats::quartiles;

/// Fewest pairs a gain may rest on.
pub const MIN_PAIRS: usize = 10;

/// An end-to-end metric's direction and regression bound, as
/// `BENCHMARK.json` gives them.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Wins in ≥ 9/10 of ≥ 10 pairs and a median gap wider than the
    /// parent's interquartile range.
    Improved,
    /// No gain shown, and no worse than the bound.
    Unchanged,
    /// The parent's own spread is wider than the bound.
    Unresolved,
    /// The median is worse than the parent's by more than the bound.
    Regressed,
}

impl Verdict {
    /// Lower-case name for the report.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Reads the end-to-end bounds from `BENCHMARK.json` text.
///
/// # Errors
///
/// Returns a message when the text is not JSON or lacks the
/// `end_to_end` fields.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let metrics = doc.get("end_to_end").and_then(Json::as_arr).ok_or("no `end_to_end` list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without `better`")?;
            let bound = m.get("bound").and_then(Json::as_num).ok_or("metric without a bound")?;
            Ok(Bound { name: name.to_string(), lower_is_better: better == "lower", bound })
        })
        .collect()
}

/// Applies the rule in the module docs to one metric's samples, listed
/// in pair order.
#[must_use]
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let (q1, pm, q3) = quartiles(parent);
    let cm = quartiles(change).1;
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|(p, c)| better(**c, **p)).count();
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    let relative = |x: f64| if pm == 0.0 { x * f64::INFINITY } else { x / pm.abs() };
    let worse_by = relative(if lower_is_better { cm - pm } else { pm - cm });
    let apart = |a: &[f64], b: &[f64]| a.iter().all(|x| b.iter().all(|y| better(*x, *y)));
    if relative(q3 - q1) > bound && !apart(change, parent) && !apart(parent, change) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Parent `(q1, median, q3)`.
    pub parent: (f64, f64, f64),
    /// Change `(q1, median, q3)`.
    pub change: (f64, f64, f64),
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The outcome.
    pub verdict: Verdict,
}

/// Untraced runs of a results file: workload → metric → values in run
/// order.
fn samples(results: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (n, line) in results.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if record.get("trace").and_then(Json::as_num) != Some(0.0) {
            continue;
        }
        let workload =
            record.get("workload").and_then(Json::as_str).ok_or("record without a workload")?;
        let metrics =
            record.get("metrics").and_then(Json::as_obj).ok_or("record without metrics")?;
        let slot = out.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_num) {
                slot.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// Compares two results files metric by metric.
///
/// # Errors
///
/// Returns a message when a record cannot be parsed.
pub fn compare(parent: &str, change: &str, bounds: &[Bound]) -> Result<Vec<Row>, String> {
    let (parent, change) = (samples(parent)?, samples(change)?);
    let mut rows = Vec::new();
    for (workload, p) in &parent {
        let Some(c) = change.get(workload) else { continue };
        for b in bounds {
            let (Some(pv), Some(cv)) = (p.get(&b.name), c.get(&b.name)) else { continue };
            let better = |x: f64, y: f64| if b.lower_is_better { x < y } else { x > y };
            rows.push(Row {
                workload: workload.clone(),
                metric: b.name.clone(),
                parent: quartiles(pv),
                change: quartiles(cv),
                wins: pv.iter().zip(cv).filter(|(p, c)| better(**c, **p)).count(),
                pairs: pv.len().min(cv.len()),
                verdict: verdict(pv, cv, b.lower_is_better, b.bound),
            });
        }
    }
    Ok(rows)
}

/// Renders the rows as an aligned table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<20} {:>34} {:>34} {:>7}  verdict\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let cell = |(q1, m, q3): (f64, f64, f64)| format!("{m:.6} [{q1:.6}, {q3:.6}]");
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:<20} {:>34} {:>34} {:>7}  {}",
            r.workload,
            r.metric,
            cell(r.parent),
            cell(r.change),
            format!("{}/{}", r.wins, r.pairs),
            r.verdict.name()
        );
    }
    out
}
