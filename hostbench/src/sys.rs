//! What the benchmark reads about its own process and checkout.

use std::path::Path;

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`); 0 where procfs is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds this process has used, from
/// `/proc/self/stat` in clock ticks of 1/100 s (Linux's fixed
/// `USER_HZ`); 0 where procfs is unavailable.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit checked out in `root` (what `git rev-parse HEAD` prints),
/// read from `.git` directly so no process is started; `unknown` when
/// `root` is not a git checkout.
#[must_use]
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
