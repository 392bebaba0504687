//! The repository benchmark. See README.md beside this package.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--workload`, runs that workload once and prints each metric as
//! `workload metric value unit`, then an `EREBOR_JSON:` line with the
//! same data, then, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` records spans, writes them to
//! `out/spans-<workload>.json` in this package, and prints the per-layer
//! metrics. Without `--workload`, runs every workload in turn, each in a
//! child process. `EREBOR_BENCH_SMOKE=1` shrinks every shape. The exit
//! status is non-zero iff an operation failed.

mod fleet;
mod metrics;
mod paper;
mod run;
mod spans;
mod stats;
mod td;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use run::{RunCfg, Spec, WORKLOADS};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(run::spec(&value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn smoke() -> bool {
    std::env::var("EREBOR_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over the metrics of `out`;
/// `detailed` adds each metric's direction.
fn metrics_json(out: &run::Outcome, detailed: bool) -> String {
    let mut s = String::from("{");
    for (i, (name, v)) in out.metrics.iter().enumerate() {
        let m = metrics::find(name);
        let unit = m.map_or("", |m| m.unit);
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"");
        if let (true, Some(m)) = (detailed, m) {
            let _ = write!(s, ", \"better\": \"{}\"", m.better.as_str());
        }
        s.push('}');
    }
    s.push('}');
    s
}

fn run_one(spec: &Spec, args: &Args) -> ExitCode {
    let smoke = smoke();
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke,
    };
    eprintln!("benchmark: {}: {}", spec.name, spec.why);
    let mut out = run::run(spec, &cfg);
    // A metric the table does not declare, a missing one, or a
    // non-finite value is a benchmark bug: count it as a failure.
    let wanted: Vec<&str> = if args.trace {
        metrics::per_layer().map(|m| m.name).collect()
    } else {
        metrics::end_to_end().map(|m| m.name).collect()
    };
    let mut bugs: Vec<String> = wanted
        .iter()
        .filter(|name| !out.metrics.contains_key(**name))
        .map(|name| format!("metric {name} missing"))
        .collect();
    for (name, v) in &mut out.metrics {
        if !wanted.contains(&name.as_str()) || !v.is_finite() {
            bugs.push(format!("metric {name} = {v} is undeclared or not finite"));
            *v = 0.0;
        }
    }
    for bug in bugs {
        out.tally.check(false, || bug);
    }
    for note in &out.tally.notes {
        eprintln!("benchmark: {}: {note}", spec.name);
    }
    if let Some(doc) = &out.spans {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}.json", spec.name);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => eprintln!("benchmark: spans written to {path}"),
            Err(e) => eprintln!("benchmark: cannot write {path}: {e}"),
        }
    }
    for (name, v) in &out.metrics {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        println!("{} {name} {v} {unit}", spec.name);
    }
    let t = &out.tally;
    println!(
        "EREBOR_JSON:{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {smoke}, \"attempted\": {}, \"failed\": {}, \"sim_digest\": \"{:016x}\", \"tail\": \"{}\", \"metrics\": {}}}",
        spec.name,
        args.seed,
        args.trace,
        t.attempted,
        t.failed,
        out.sim_digest,
        out.tail_label,
        metrics_json(&out, true)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.failed == 0,
        t.attempted,
        t.failed,
        metrics_json(&out, false)
    );
    if t.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload in turn, each in a child process of this binary.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for spec in &WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("benchmark: {} exited with {s}", spec.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("benchmark: cannot run {}: {e}", spec.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(spec) => run_one(spec, &args),
        None => run_all(&args),
    }
}
