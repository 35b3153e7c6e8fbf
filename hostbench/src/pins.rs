//! Expected outputs committed under `pins/`, and the checks against them.
//!
//! Sweep pins hold every op's simulated cycles; the sweeps do not depend
//! on the run seed, so they are checked on every run. Serve pins hold an
//! FNV-1a digest of `(finish, disposition)` per block of
//! [`BLOCK`] requests for one seed, and are checked when the run uses
//! that seed. Regenerate them with `hostbench pin --workload <name>`.

use std::collections::HashMap;
use std::fmt::Write as _;

use q100_serve::RequestOutcome;

/// Requests per serve digest.
pub const BLOCK: usize = 1000;

/// The seed serve pins are written for.
pub const PIN_SEED: u64 = 42;

fn entries(pins: &str) -> impl Iterator<Item = (&str, &str)> {
    pins.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
}

/// Renders sweep pins: one `label cycles` line per op.
#[must_use]
pub fn render_sweep(workload: &str, labels: &[String], cycles: &[u64]) -> String {
    let mut out = format!("# {workload}: simulated cycles of every (config, query) op\n");
    for (label, c) in labels.iter().zip(cycles) {
        let _ = writeln!(out, "{label} {c}");
    }
    out
}

/// For every op, whether its cycles differ from `pins` or are missing
/// from it; `None` when `pins` holds no entries.
#[must_use]
pub fn check_sweep(pins: &str, labels: &[String], cycles: &[u64]) -> Option<Vec<bool>> {
    let want: HashMap<&str, &str> = entries(pins).collect();
    if want.is_empty() {
        return None;
    }
    let differ = labels
        .iter()
        .zip(cycles)
        .map(|(label, c)| want.get(label.as_str()) != Some(&c.to_string().as_str()))
        .collect();
    Some(differ)
}

/// FNV-1a digests of `(finish, disposition)` per block of [`BLOCK`]
/// outcomes, in arrival order.
#[must_use]
pub fn digests(outcomes: &[RequestOutcome]) -> Vec<u64> {
    outcomes
        .chunks(BLOCK)
        .map(|block| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for o in block {
                for b in
                    o.finish.to_le_bytes().into_iter().chain(o.disposition.code().to_le_bytes())
                {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            h
        })
        .collect()
}

/// Renders serve pins for `seed`.
#[must_use]
pub fn render_serve(workload: &str, seed: u64, digests: &[u64]) -> String {
    let mut out = format!(
        "# {workload}: FNV-1a digest of (finish, disposition) per {BLOCK} requests\nseed {seed}\n"
    );
    for (i, d) in digests.iter().enumerate() {
        let _ = writeln!(out, "{i} {d:016x}");
    }
    out
}

/// Requests in the `i`-th digest block of a cycle whose passes serve
/// `requests` each (a block never spans two passes).
#[must_use]
pub fn block_size(i: usize, requests: usize) -> u64 {
    let per_pass = requests.div_ceil(BLOCK).max(1);
    BLOCK.min(requests - (i % per_pass) * BLOCK) as u64
}

/// Requests in blocks whose digest differs from `pins`, for a cycle of
/// passes serving `requests` each; `None` when `pins` holds no entries
/// or was written for another seed.
#[must_use]
pub fn check_serve(pins: &str, seed: u64, digests: &[u64], requests: usize) -> Option<u64> {
    let mut pinned_seed = None;
    let mut want = HashMap::new();
    for (key, value) in entries(pins) {
        if key == "seed" {
            pinned_seed = value.parse::<u64>().ok();
        } else {
            want.insert(key, value);
        }
    }
    if pinned_seed != Some(seed) || want.is_empty() {
        return None;
    }
    let failed = digests
        .iter()
        .enumerate()
        .filter(|(i, d)| want.get(i.to_string().as_str()) != Some(&format!("{d:016x}").as_str()))
        .map(|(i, _)| block_size(i, requests))
        .sum();
    Some(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_pins_round_trip_and_catch_a_change() {
        let labels = vec!["a/q1".to_string(), "a/q6".to_string()];
        let pins = render_sweep("t", &labels, &[10, 20]);
        assert_eq!(check_sweep(&pins, &labels, &[10, 20]), Some(vec![false, false]));
        assert_eq!(check_sweep(&pins, &labels, &[10, 21]), Some(vec![false, true]));
        assert_eq!(check_sweep("# nothing\n", &labels, &[10, 20]), None);
    }

    #[test]
    fn serve_pins_apply_to_their_seed_only() {
        let pins = render_serve("t", 42, &[1, 2]);
        assert_eq!(check_serve(&pins, 42, &[1, 2], 1500), Some(0));
        assert_eq!(check_serve(&pins, 42, &[1, 3], 1500), Some(500));
        assert_eq!(check_serve(&pins, 7, &[1, 3], 1500), None);
        // Two passes of 600 requests: one block each.
        assert_eq!(check_serve(&pins, 42, &[1, 3], 600), Some(600));
        assert_eq!(
            (block_size(0, 2500), block_size(2, 2500), block_size(3, 2500)),
            (1000, 500, 1000)
        );
    }
}
