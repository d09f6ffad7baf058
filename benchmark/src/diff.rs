//! `ldp-benchmark diff <a.json> <b.json>`: is `b` a regression of `a`?
//!
//! Per (end-to-end metric, workload) row the metric's bound is applied to
//! the medians of the repeats. A row whose run-to-run spread is wider than
//! the bound while the two ranges overlap is *unresolved*, not *ok*: the
//! runs cannot tell the two apart.

use crate::results::{MetricRuns, Results};
use crate::spec::{self, Better, EndToEndMetric};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Whether a metric's repeats spread wider than its bound: (max − min) ÷
/// median beyond the bound, and max − min beyond the absolute slack.
fn spread_is_wide(metric: &EndToEndMetric, runs: &MetricRuns) -> bool {
    let (min, median, max) = runs.min_median_max();
    median != 0.0 && (max - min) / median.abs() > metric.bound && max - min > metric.abs_slack
}

/// By how large a share of `base`'s median `new`'s median is worse
/// (negative when it is better).
pub fn worse_by(metric: &EndToEndMetric, base: &MetricRuns, new: &MetricRuns) -> f64 {
    let (_, base_median, _) = base.min_median_max();
    let (_, new_median, _) = new.min_median_max();
    if base_median == 0.0 {
        return 0.0;
    }
    match metric.better {
        Better::Lower => (new_median - base_median) / base_median,
        Better::Higher => (base_median - new_median) / base_median,
    }
}

pub fn verdict(metric: &EndToEndMetric, base: &MetricRuns, new: &MetricRuns) -> Verdict {
    let (base_min, base_median, base_max) = base.min_median_max();
    let (new_min, new_median, new_max) = new.min_median_max();
    let overlap = base_min <= new_max && new_min <= base_max;
    if overlap && (spread_is_wide(metric, base) || spread_is_wide(metric, new)) {
        return Verdict::Unresolved;
    }
    let worse_abs = match metric.better {
        Better::Lower => new_median - base_median,
        Better::Higher => base_median - new_median,
    };
    if worse_by(metric, base, new) > metric.bound && worse_abs > metric.abs_slack {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base_median: f64,
    pub new_median: f64,
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Every (metric, workload) row both files have, plus the workloads whose
/// failed share rose.
pub fn compare(base: &Results, new: &Results) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for b in &base.workloads {
        let Some(n) = new.workload(&b.name) else {
            continue;
        };
        if n.failed_ops_share() > b.failed_ops_share() {
            failures.push(format!(
                "{}: failed_ops_share rose from {} to {}",
                b.name,
                b.failed_ops_share(),
                n.failed_ops_share()
            ));
        }
        for metric in spec::END_TO_END {
            if let (Some(bm), Some(nm)) = (b.metric(metric.name), n.metric(metric.name)) {
                rows.push(Row {
                    workload: b.name.clone(),
                    metric: metric.name,
                    base_median: bm.min_median_max().1,
                    new_median: nm.min_median_max().1,
                    worse_by: worse_by(metric, bm, nm),
                    verdict: verdict(metric, bm, nm),
                });
            }
        }
    }
    (rows, failures)
}

/// Returns `Ok(false)` — exit code 1 — on any regressed row or a higher
/// failed share.
pub fn diff_command(args: &[String]) -> Result<bool, String> {
    let [base_path, new_path] = args else {
        return Err("usage: ldp-benchmark diff <a.json> <b.json>".to_string());
    };
    let base = Results::load(base_path)?;
    let new = Results::load(new_path)?;
    let (rows, failures) = compare(&base, &new);
    if rows.is_empty() {
        return Err("the two files share no (metric, workload) row".to_string());
    }
    println!(
        "{:<14} {:<14} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "a median", "b median", "worse by"
    );
    for row in &rows {
        println!(
            "{:<14} {:<14} {:>16.3} {:>16.3} {:>8.1}%  {}",
            row.workload,
            row.metric,
            row.base_median,
            row.new_median,
            row.worse_by * 100.0,
            row.verdict.as_str()
        );
    }
    for failure in &failures {
        println!("{failure}");
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved, {} with more failed operations",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        failures.len()
    );
    Ok(count(Verdict::Regressed) == 0 && failures.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::WorkloadResult;

    fn runs(name: &str, values: &[f64]) -> MetricRuns {
        MetricRuns {
            name: name.to_string(),
            unit: "x".to_string(),
            runs: values.to_vec(),
        }
    }

    /// Synthetic metrics, so the verdict tests do not move when a bound
    /// in `spec.rs` is retuned.
    fn metric(better: Better, bound: f64, abs_slack: f64) -> EndToEndMetric {
        EndToEndMetric {
            name: "m",
            unit: "x",
            better,
            bound,
            abs_slack,
            meaning: "",
        }
    }

    #[test]
    fn higher_is_better_metrics() {
        let m = &metric(Better::Higher, 0.10, 0.0);
        let base = runs(m.name, &[100.0, 101.0, 99.0]);
        assert_eq!(
            verdict(m, &base, &runs(m.name, &[95.0, 96.0, 94.0])),
            Verdict::Ok
        );
        assert_eq!(
            verdict(m, &base, &runs(m.name, &[120.0, 121.0, 119.0])),
            Verdict::Ok
        );
        assert_eq!(
            verdict(m, &base, &runs(m.name, &[85.0, 86.0, 84.0])),
            Verdict::Regressed
        );
        assert!((worse_by(m, &base, &runs(m.name, &[85.0])) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn lower_is_better_metrics() {
        let m = &metric(Better::Lower, 0.15, 0.0);
        let base = runs(m.name, &[200.0, 202.0, 198.0]);
        assert_eq!(
            verdict(m, &base, &runs(m.name, &[220.0, 221.0, 219.0])),
            Verdict::Ok
        );
        assert_eq!(
            verdict(m, &base, &runs(m.name, &[240.0, 241.0, 239.0])),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(m, &base, &runs(m.name, &[100.0, 101.0, 99.0])),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_overlapping_spreads_are_unresolved_not_ok() {
        let m = &metric(Better::Higher, 0.10, 0.0);
        let noisy = runs(m.name, &[80.0, 100.0, 120.0]);
        let same = runs(m.name, &[90.0, 100.0, 110.0]);
        assert_eq!(verdict(m, &noisy, &same), Verdict::Unresolved);
        // Wide but disjoint: every run of one side beats every run of the
        // other, so the medians decide.
        let far_better = runs(m.name, &[200.0, 240.0, 280.0]);
        assert_eq!(verdict(m, &noisy, &far_better), Verdict::Ok);
        let far_worse = runs(m.name, &[40.0, 50.0, 60.0]);
        assert_eq!(verdict(m, &noisy, &far_worse), Verdict::Regressed);
    }

    #[test]
    fn absolute_slack_forgives_small_worsenings_of_small_values() {
        let m = &metric(Better::Lower, 0.25, 0.2); // as set-up time: 25% or 0.2 s
        let base = runs(m.name, &[0.30, 0.30, 0.30]);
        assert_eq!(
            verdict(m, &base, &runs(m.name, &[0.45, 0.45, 0.45])),
            Verdict::Ok
        );
        assert_eq!(
            verdict(m, &base, &runs(m.name, &[0.60, 0.60, 0.60])),
            Verdict::Regressed
        );
        // A 40% spread that is only 0.12 s wide is not "unresolved".
        let jittery = runs(m.name, &[0.25, 0.30, 0.37]);
        assert_eq!(verdict(m, &base, &jittery), Verdict::Ok);
    }

    #[test]
    fn compare_flags_a_higher_failed_share() {
        let workload = |failed: u64, rate: f64| WorkloadResult {
            name: "ingest_hot".to_string(),
            input_hash: String::new(),
            attempted: 1000,
            failed,
            end_to_end: vec![runs("rows_per_s", &[rate])],
            per_layer: Vec::new(),
            details: Vec::new(),
        };
        let results = |w: WorkloadResult| Results {
            env: Vec::new(),
            workloads: vec![w],
            findings: Vec::new(),
        };
        let (rows, failures) = compare(&results(workload(0, 100.0)), &results(workload(3, 100.0)));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(failures.len(), 1);
        let (_, failures) = compare(&results(workload(3, 100.0)), &results(workload(3, 100.0)));
        assert!(failures.is_empty());
    }
}
