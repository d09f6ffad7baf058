//! One benchmark run of one workload.
//!
//! An untraced run is `rounds` rounds of (set-up → output checks → timed
//! window of `seconds / rounds`), each on a topology of its own, so one
//! round's luck — which core a thread landed on, where the allocator put
//! the user table — is one round's. `setup_s` is the median set-up;
//! `rows_per_s` pools every round's rate samples (see
//! [`crate::stats::faster_half_mean`]). A traced run sets up once and
//! hands over to [`crate::layers`].

use crate::json::Value;
use crate::layers;
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{faster_half_mean, median};
use crate::workloads::{self, EndToEnd};
use std::time::Instant;

/// Rounds of an untraced run unless `--rounds` says otherwise.
pub const DEFAULT_ROUNDS: usize = 4;

/// Set-ups timed per untraced run: one per round, plus set-up-only ones
/// first (which also warm the process) so `setup_s` is the median of this
/// many. Set-up is short, so a fifth of a second of noise is a large share
/// of it; more samples are the only remedy.
const SETUPS_PER_RUN: usize = 7;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Rounds an untraced run is split into.
    pub rounds: usize,
}

/// What one run reports.
#[derive(Debug)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` — every end-to-end metric on an untraced
    /// run, every per-layer metric on a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth keeping: sample counts, hashes, problems.
    pub detail: Value,
    /// Human-readable lines (the stage table of a traced run).
    pub text: Vec<String>,
}

impl RunReport {
    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Int(self.attempted)),
            ("failed", Value::Int(self.failed)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]),
                    )
                })),
            ),
        ])
        .to_line()
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn nums(values: impl IntoIterator<Item = f64>) -> Value {
    Value::Arr(values.into_iter().map(Value::Num).collect())
}

pub fn run_once(args: &RunArgs) -> std::io::Result<RunReport> {
    let workload = args.workload;
    let mut detail = vec![
        ("workload".to_string(), Value::str(workload.name)),
        ("seed".to_string(), Value::Int(args.seed)),
        ("seconds".to_string(), Value::Num(args.seconds)),
    ];
    let mut problems = Vec::new();
    let hashes = |loaded: &workloads::Loaded| {
        [
            (
                "input_hash".to_string(),
                Value::str(format!("{:016x}", loaded.input_hash())),
            ),
            (
                "determinism_hash".to_string(),
                Value::str(format!("{:016x}", loaded.determinism_hash())),
            ),
        ]
    };

    let (metrics, attempted, failed, text) = if args.trace {
        let mut loaded = workloads::setup(workload, args.seed)?;
        problems.extend(workloads::verify_setup(&mut loaded));
        detail.extend(hashes(&loaded));
        let traced = layers::trace_run(workload, &mut loaded, args.seed, args.seconds)?;
        problems.extend(traced.problems);
        let metrics = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    traced.values.get(m.name).copied().unwrap_or(0.0),
                    m.unit,
                )
            })
            .collect();
        detail.push(("trace_file".to_string(), Value::str(traced.trace_file)));
        (
            metrics,
            traced.attempted.max(1),
            traced.failed,
            traced.table,
        )
    } else {
        let rounds = args.rounds.max(1);
        let mut setup_s = Vec::with_capacity(SETUPS_PER_RUN.max(rounds));
        for _ in rounds..SETUPS_PER_RUN {
            let start = Instant::now();
            let loaded = workloads::setup(workload, args.seed)?;
            setup_s.push(start.elapsed().as_secs_f64());
            drop(loaded);
        }
        let mut windows: Vec<EndToEnd> = Vec::with_capacity(rounds);
        for round in 0..rounds {
            // The previous round's topology is gone by now: two never
            // coexist, and teardown is not part of set-up.
            let start = Instant::now();
            let mut loaded = workloads::setup(workload, args.seed)?;
            setup_s.push(start.elapsed().as_secs_f64());
            problems.extend(workloads::verify_setup(&mut loaded));
            if round == 0 {
                detail.extend(hashes(&loaded));
            }
            windows.push(workloads::measure(
                &mut loaded,
                args.seconds / rounds as f64,
                workload.ack_tail_pct,
            ));
        }
        let us = |ns: u64| ns as f64 / 1e3;
        let over = |f: &dyn Fn(&EndToEnd) -> f64| -> Vec<f64> { windows.iter().map(f).collect() };
        // Every round's rate samples, pooled: a round on a slow core gives
        // its samples to the slower half, not a third of the answer.
        let rate_samples: Vec<f64> = windows
            .iter()
            .flat_map(|w| w.rate_samples.iter().copied())
            .collect();
        if rate_samples.is_empty() {
            problems.push("no rate sample: the windows carried nothing".to_string());
        }
        let rows_per_s = if rate_samples.is_empty() {
            0.0
        } else {
            faster_half_mean(&rate_samples)
        };
        // END_TO_END order.
        let values = [median(&setup_s), rows_per_s, peak_rss_mb()];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect();

        detail.extend([
            ("rounds".to_string(), Value::Int(rounds as u64)),
            ("setup_s_all".to_string(), nums(setup_s)),
            (
                "rows_per_s_rounds".to_string(),
                nums(over(&|w| faster_half_mean(&w.rate_samples))),
            ),
            (
                "rows_per_s_mean".to_string(),
                Value::Num(rate_samples.iter().sum::<f64>() / rate_samples.len().max(1) as f64),
            ),
            (
                "rate_samples".to_string(),
                Value::Int(rate_samples.len() as u64),
            ),
            (
                "rows".to_string(),
                Value::Int(windows.iter().map(|w| w.rows).sum()),
            ),
            (
                "ack_n".to_string(),
                Value::Int(windows.iter().map(|w| w.ack.n as u64).sum()),
            ),
            (
                "ack_p50_us_rounds".to_string(),
                nums(over(&|w| us(w.ack.p50_ns))),
            ),
            (
                "ack_tail_us_rounds".to_string(),
                nums(over(&|w| us(w.ack.tail_ns))),
            ),
            (
                "ack_tail_pct".to_string(),
                Value::Num(
                    windows
                        .iter()
                        .map(|w| w.ack.tail_pct)
                        .fold(f64::INFINITY, f64::min),
                ),
            ),
        ]);
        let dashboards: Vec<_> = windows.iter().filter_map(|w| w.dashboard).collect();
        if !dashboards.is_empty() {
            let over = |f: &dyn Fn(&workloads::DashboardStats) -> f64| -> f64 {
                median(&dashboards.iter().map(f).collect::<Vec<_>>())
            };
            detail.extend([
                (
                    "dashboard.queries_per_s".to_string(),
                    Value::Num(over(&|d| d.queries_per_s)),
                ),
                (
                    "dashboard.query_p50_us".to_string(),
                    Value::Num(over(&|d| us(d.latency.p50_ns))),
                ),
                (
                    "dashboard.query_p99_us".to_string(),
                    Value::Num(over(&|d| us(d.latency.tail_ns))),
                ),
                (
                    "dashboard.query_n".to_string(),
                    Value::Int(dashboards.iter().map(|d| d.latency.n as u64).sum()),
                ),
            ]);
        }
        let attempted: u64 = windows.iter().map(|w| w.attempted).sum();
        let failed: u64 = windows.iter().map(|w| w.failed).sum();
        problems.extend(windows.into_iter().flat_map(|w| w.problems));
        (metrics, attempted.max(1), failed, Vec::new())
    };

    detail.push((
        "failed_ops_share".to_string(),
        Value::Num(failed as f64 / attempted as f64),
    ));
    detail.push((
        "problems".to_string(),
        Value::Arr(problems.iter().map(Value::str).collect()),
    ));
    Ok(RunReport {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        detail: Value::Obj(detail),
        text,
    })
}
