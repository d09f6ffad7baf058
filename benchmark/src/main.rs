//! `ldp-benchmark` — the repository benchmark. See `README.md`.
//!
//! ```text
//! ldp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ldp-benchmark run --seed <n> [--repeats 3] [--seconds 20] [--trace] [--smoke] [--out <file>]
//! ldp-benchmark diff <a.json> <b.json>
//! ldp-benchmark benchmark-json      # BENCHMARK.json, from the tables in spec.rs
//! ldp-benchmark metrics             # the README's metric tables, likewise
//! ```

mod diff;
mod inputs;
mod json;
mod layers;
mod loadgen;
mod results;
mod runner;
mod spec;
mod stats;
mod suite;
mod topology;
mod trace;
mod workloads;

use runner::{run_once, RunArgs};
use std::process::ExitCode;

/// Exit codes: 0 success, 1 a correctness gate or a `diff` regression, 2
/// bad usage or an I/O failure.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => suite::run_command(&args[1..]),
        Some("diff") => diff::diff_command(&args[1..]),
        Some("benchmark-json") => {
            print!("{}", results::benchmark_json().to_pretty());
            Ok(true)
        }
        Some("metrics") => {
            print!("{}", results::metric_tables());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => single_run(&args),
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ldp-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage:\n  ldp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n  \
     ldp-benchmark run --seed <n> [--repeats 3] [--seconds 20] [--trace] [--smoke] [--out <file>]\n  \
     ldp-benchmark diff <a.json> <b.json>\n  ldp-benchmark benchmark-json\n  ldp-benchmark metrics"
        .to_string()
}

/// `--name value` pairs; every flag takes exactly one value.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

pub fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag_value(args, name)?
        .map(|v| {
            v.parse::<T>()
                .map_err(|_| format!("bad value for {name}: {v}"))
        })
        .transpose()
}

/// The contract's one-run mode. Prints every metric by name with its
/// unit, then a `detail` line, then — last — the result object.
fn single_run(args: &[String]) -> Result<bool, String> {
    let name = flag_value(args, "--workload")?.ok_or_else(usage)?;
    let workload = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", known.join(", "))
    })?;
    let seconds: f64 = parse_flag(args, "--seconds")?.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match flag_value(args, "--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let run = RunArgs {
        workload,
        seed: parse_flag(args, "--seed")?.unwrap_or(1),
        seconds,
        trace,
        rounds: parse_flag(args, "--rounds")?.unwrap_or(runner::DEFAULT_ROUNDS),
    };
    let report = run_once(&run).map_err(|e| format!("{}: {e}", workload.name))?;
    for line in &report.text {
        println!("{line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<42} {value:>18.4} {unit}");
    }
    println!("detail: {}", report.detail.to_line());
    println!("{}", report.result_line());
    Ok(report.correct)
}
