//! `ldp-benchmark run`: every workload, `--repeats` times each, one fresh
//! process per run so `setup_s` and `peak_rss_mb` belong to that run.

use crate::json::{self, Value};
use crate::results::{LayerValue, MetricRuns, Results, WorkloadResult, RUN_SECONDS};
use crate::spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::topology::{out_dir, STORAGE};
use crate::{flag_value, parse_flag};
use std::process::{Command, Stdio};

/// What one child run printed.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    detail: Value,
}

/// Re-executes this binary for one run and parses its last two lines.
fn child_run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: Option<usize>,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(rounds) = rounds {
        command.args(["--rounds", &rounds.to_string()]);
    }
    // `output` waits for the child to end.
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let result = lines
        .last()
        .and_then(|l| json::parse(l).ok())
        .ok_or_else(|| {
            format!(
                "{}: the run printed no result (exit {})",
                workload.name, output.status
            )
        })?;
    let detail = lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix("detail: "))
        .and_then(|d| json::parse(d).ok())
        .unwrap_or(Value::Null);
    if trace {
        // The stage table is the part a person reads.
        for line in lines.iter().take_while(|l| !l.starts_with("detail: ")) {
            println!("    {line}");
        }
    }
    let field = |key: &str| {
        result
            .get(key)
            .ok_or_else(|| format!("result lacks '{key}'"))
    };
    Ok(ChildRun {
        correct: field("correct")?.as_bool().unwrap_or(false) && output.status.success(),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics: field("metrics")?
            .as_obj()
            .unwrap_or(&[])
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        detail,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn run_command(args: &[String]) -> Result<bool, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let trace = args.iter().any(|a| a == "--trace");
    let seed: u64 = parse_flag(args, "--seed")?.ok_or("run needs --seed <u64>")?;
    // Smoke: 1 s windows, one repeat, one round, every gate still on.
    let repeats: usize = parse_flag(args, "--repeats")?.unwrap_or(if smoke { 1 } else { 3 });
    let seconds: f64 =
        parse_flag(args, "--seconds")?.unwrap_or(if smoke { 1.0 } else { RUN_SECONDS as f64 });
    let rounds = smoke.then_some(1);
    let out_path = match flag_value(args, "--out")? {
        Some(path) => std::path::PathBuf::from(path),
        None => out_dir().join("results.json"),
    };
    if repeats == 0 {
        return Err("--repeats must be at least 1".to_string());
    }

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        println!("== {} — {}", workload.name, workload.why);
        let mut runs: Vec<ChildRun> = Vec::new();
        for repeat in 0..repeats {
            let run = child_run(workload, seed, seconds, false, rounds)?;
            println!(
                "  run {}: {}{}",
                repeat + 1,
                run.metrics
                    .iter()
                    .map(|(n, v)| format!("{n}={v:.4}"))
                    .collect::<Vec<_>>()
                    .join(" "),
                if run.correct { "" } else { "  ** INCORRECT **" }
            );
            runs.push(run);
        }
        let hash_of = |run: &ChildRun, key: &str| {
            run.detail
                .get(key)
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let mut problems: Vec<String> = Vec::new();
        for key in ["input_hash", "determinism_hash"] {
            if runs
                .iter()
                .any(|r| hash_of(r, key) != hash_of(&runs[0], key))
            {
                problems.push(format!("{key} differs between runs of seed {seed}"));
            }
        }
        println!(
            "  inputs {} (same seed, same hash)",
            hash_of(&runs[0], "input_hash")
        );

        let mut per_layer = Vec::new();
        if trace {
            println!("  traced run:");
            let traced = child_run(workload, seed, seconds, true, None)?;
            if !traced.correct {
                problems.push("the traced run failed a correctness gate".to_string());
            }
            per_layer = PER_LAYER
                .iter()
                .filter_map(|m| {
                    let value = traced.metrics.iter().find(|(n, _)| n == m.name)?.1;
                    Some(LayerValue {
                        name: m.name.to_string(),
                        unit: m.unit.to_string(),
                        value,
                    })
                })
                .collect();
        }

        let end_to_end: Vec<MetricRuns> = END_TO_END
            .iter()
            .map(|m| MetricRuns {
                name: m.name.to_string(),
                unit: m.unit.to_string(),
                runs: runs
                    .iter()
                    .filter_map(|r| r.metrics.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
                    .collect(),
            })
            .collect();
        if end_to_end.iter().any(|m| m.runs.len() != repeats) {
            problems.push("a run did not report every end-to-end metric".to_string());
        }
        for metric in end_to_end.iter().filter(|m| !m.runs.is_empty()) {
            let (min, median, max) = metric.min_median_max();
            println!(
                "  {:<14} {:>16.3} {:<7} (min {:.3}, max {:.3}, n={})",
                metric.name,
                median,
                metric.unit,
                min,
                max,
                metric.runs.len()
            );
        }
        let result = WorkloadResult {
            name: workload.name.to_string(),
            input_hash: hash_of(&runs[0], "input_hash"),
            attempted: runs.iter().map(|r| r.attempted).sum(),
            failed: runs.iter().map(|r| r.failed).sum(),
            end_to_end,
            per_layer,
            details: runs.iter().map(|r| r.detail.clone()).collect(),
        };
        println!(
            "  failed_ops_share {} ({} of {} operations)",
            result.failed_ops_share(),
            result.failed,
            result.attempted
        );
        if runs.iter().any(|r| !r.correct) {
            problems.push("a run failed a correctness gate (see its detail line)".to_string());
        }
        for problem in &problems {
            println!("  ** {problem}");
        }
        all_correct &= problems.is_empty();
        workloads.push(result);
    }

    let results = Results {
        env: vec![
            (
                "nproc".to_string(),
                Value::Int(ldp_collector::default_parallelism() as u64),
            ),
            ("storage".to_string(), Value::str(STORAGE)),
            (
                "git_rev".to_string(),
                Value::str(command_line("git", &["rev-parse", "--short", "HEAD"])),
            ),
            (
                "rustc".to_string(),
                Value::str(command_line("rustc", &["--version"])),
            ),
            ("seed".to_string(), Value::Int(seed)),
            ("seconds".to_string(), Value::Num(seconds)),
            ("repeats".to_string(), Value::Int(repeats as u64)),
            ("smoke".to_string(), Value::Bool(smoke)),
        ],
        findings: findings(&workloads),
        workloads,
    };
    for finding in &results.findings {
        println!("finding: {finding}");
    }
    if let Some(parent) = out_path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&out_path, results.to_json().to_pretty())
        .map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("results written to {}", out_path.display());
    Ok(all_correct)
}

/// The two questions the ROADMAP wants the first ledger to settle, read
/// off the traced runs.
fn findings(workloads: &[WorkloadResult]) -> Vec<String> {
    let find = |name: &str| workloads.iter().find(|w| w.name == name);
    let mut out = Vec::new();
    if let Some(hot) = find("ingest_hot") {
        if let (Some(verify), Some(decode), Some(fold)) = (
            hot.layer("wire.checksum.ns_per_row"),
            hot.layer("wire.decode_widen.ns_per_row"),
            hot.layer("collector.fold.ns_per_row"),
        ) {
            out.push(format!(
                "ingest_hot, cache-resident table: checksum verify {verify:.2} + decode/widen {decode:.2} = {:.2} ns/row \
                 against a fold of {fold:.2} ns/row, so {} is the larger server-side stage",
                verify + decode,
                if fold > verify + decode {
                    "the fold"
                } else {
                    "verify + decode/widen"
                }
            ));
        }
    }
    if let Some(small) = find("sync_small") {
        if let (Some(barrier), Some(ack)) = (
            small.layer("wal.barrier.us_per_op"),
            small.layer("client.ack_p50_us"),
        ) {
            out.push(format!(
                "sync_small: one fsync barrier (Wal::barrier after a 1,024-row append) takes {barrier:.1} us on average \
                 in the stage pass and the median ack over the wire is {ack:.1} us, so the ack is the fsync"
            ));
        }
    }
    out
}
