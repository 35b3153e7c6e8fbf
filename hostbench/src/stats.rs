//! Order statistics shared by the runner and `compare`.

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile of `values`, computed the
/// way Python's `statistics.quantiles(values, n=4)` does (the default
/// "exclusive" method), so numbers reported here match a reviewer's
/// own check. A single value is its own quartiles; empty input gives
/// zeros.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let n = v.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative when the clamp raised `j`: Python extrapolates too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile of an ascending sample (the definition
/// `q100-serve` uses for its tenant latencies); 0 when empty.
#[must_use]
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The largest of `rates`, e.g. the throughput of a run's fastest pass.
///
/// On a shared machine, other tenants slow a run down for spells of one
/// second to tens of seconds. The fastest pass reads the speed between
/// the spells; the median reads how long they lasted. Over ten runs of
/// each workload, the fastest pass varied about half as much.
#[must_use]
pub fn fastest(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(0.0, f64::max)
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 50.0), 50);
        assert_eq!(nearest_rank(&s, 99.0), 99);
        assert_eq!(nearest_rank(&[], 50.0), 0);
    }
}
