//! The `hostbench` command.
//!
//! ```text
//! hostbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//!           [--out <results.jsonl>] [--trace-out <trace.json>]
//! hostbench pin --workload <name>
//! hostbench compare <parent.jsonl> <change.jsonl> [--spec BENCHMARK.json]
//! ```
//!
//! A run prints every metric by name and unit, then, as its last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! It exits 1 when any output failed a check.

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use q100_hostbench::runner::{self, Options, JOBS};
use q100_hostbench::spec::{Spec, NAMES};
use q100_hostbench::{compare, pins, sys};

const USAGE: &str =
    "usage: hostbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] \
                     [--out <file>] [--trace-out <file>]\n       \
                     hostbench pin --workload <name>\n       \
                     hostbench compare <parent> <change> [--spec <BENCHMARK.json>]";

/// Fewest set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn fail(msg: &str) -> ExitCode {
    eprintln!("hostbench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("pin") => run_cmd(&args[1..], true),
        _ => run_cmd(&args, false),
    }
}

#[allow(clippy::too_many_lines)]
fn run_cmd(args: &[String], pin: bool) -> ExitCode {
    let mut workload = None;
    let mut opts = Options { seed: 42, seconds: 10.0, traced: false, setups: SETUPS };
    let (mut out, mut trace_out) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { return fail(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(s) => opts.seed = s,
                Err(_) => return fail(&format!("--seed: `{value}` is not a whole number")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s >= 0.0 && s.is_finite() => opts.seconds = s,
                _ => return fail(&format!("--seconds: `{value}` is not a duration")),
            },
            "--trace" => match value.as_str() {
                "0" => opts.traced = false,
                "1" => opts.traced = true,
                _ => return fail("--trace takes 0 or 1"),
            },
            "--out" => out = Some(value.clone()),
            "--trace-out" => trace_out = Some(value.clone()),
            _ => return fail(&format!("unknown flag `{flag}`")),
        }
    }
    let Some(name) = workload else { return fail("--workload is required") };
    let Some(spec) = Spec::named(&name) else {
        return fail(&format!("unknown workload `{name}` (one of {})", NAMES.join(", ")));
    };
    if cfg!(debug_assertions) {
        eprintln!("hostbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }

    if pin {
        // Pins come from one untraced cycle at the pinned seed.
        opts = Options { seed: pins::PIN_SEED, seconds: 0.0, traced: false, setups: 1 };
    }
    let report = runner::run(&spec, &opts);
    if pin {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("pins").join(format!("{name}.txt"));
        if let Err(e) = std::fs::write(&path, &report.pins) {
            eprintln!("hostbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} ({} ops)", path.display(), report.attempted);
        return ExitCode::SUCCESS;
    }

    let traced = opts.traced;
    let mut stdout = std::io::stdout().lock();
    let _ = write!(
        stdout,
        "# workload {name}, seed {}, {} passes, {} sweep workers, {} CPUs\n{}",
        opts.seed,
        report.passes,
        if traced { 1 } else { JOBS },
        sys::nproc(),
        report.render(traced)
    );
    if let (Some(path), Some(json)) = (&trace_out, &report.trace_json) {
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("hostbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &out {
        let record = format!(
            "{{\"schema\": \"hostbench-v1\", \"workload\": \"{name}\", \"seed\": {}, \"trace\": {}, \
             \"seconds\": {}, \"passes\": {}, \"nproc\": {}, \"jobs\": {JOBS}, \"rev\": \"{}\", \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
            opts.seed,
            u8::from(traced),
            opts.seconds,
            report.passes,
            sys::nproc(),
            sys::git_rev(Path::new(".")),
            report.correct(),
            report.attempted,
            report.failed,
            report.metrics_json(traced)
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()));
        if let Err(e) = appended {
            eprintln!("hostbench: cannot append to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let _ = writeln!(stdout, "{}", report.result_line(traced));
    let _ = stdout.flush();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_cmd(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut spec = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            let Some(v) = it.next() else { return fail("--spec needs a value") };
            spec = v.clone();
        } else {
            files.push(a);
        }
    }
    let [parent, change] = files.as_slice() else { return fail("compare takes two results files") };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let rows = read(&spec)
        .and_then(|s| compare::bounds(&s))
        .and_then(|b| compare::compare(&read(parent)?, &read(change)?, &b));
    match rows {
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            if rows.iter().any(|r| r.verdict == compare::Verdict::Regressed) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::from(2)
        }
    }
}
