//! One function per paper artifact (Table I, Figures 4–11), plus the
//! design-choice ablations, each regenerating its rows/series from one
//! configuration.
//!
//! Every artifact is a pure function of an [`ExperimentConfig`] and
//! returns a rendered markdown report; [`run`] dispatches by name,
//! [`names`] lists everything in paper order and [`resolve`] checks a
//! command line's names before anything runs.

use crate::algorithms::AlgorithmSpec;
use crate::config::{epsilon_grid, ExperimentConfig};
use crate::datasets::{Dataset, DatasetData};
use crate::report::{render_artifact, Series, SeriesTable};
use crate::runner::{self, Metric, TrialSpec};
use ldp_core::highdim::{publish_multidim, SplitStrategy};
use ldp_core::{optimal_sample_count, App, Direct, Ipp, Sampling, SessionKind, StreamMechanism};
use ldp_metrics::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Window size shared by the headline experiments.
const W: usize = 10;
/// Query (subsequence) length shared by the headline experiments.
const Q: usize = 30;

/// Artifact names in paper order.
#[must_use]
pub fn names() -> &'static [&'static str] {
    &[
        "table1",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "ablations",
    ]
}

/// Resolves a command line's artifact names in order, `all` expanding in
/// place to [`names`]. `Err` carries the first unknown name, so a caller
/// can refuse the whole list before it computes anything.
///
/// # Errors
/// The first argument that is neither `all` nor one of [`names`].
pub fn resolve<S: AsRef<str>>(args: &[S]) -> Result<Vec<&'static str>, String> {
    let mut resolved = Vec::new();
    for arg in args {
        match arg.as_ref() {
            "all" => resolved.extend_from_slice(names()),
            name => match names().iter().find(|known| **known == name) {
                Some(known) => resolved.push(*known),
                None => return Err(name.to_owned()),
            },
        }
    }
    Ok(resolved)
}

/// Runs one artifact by name; `None` for unknown names.
#[must_use]
pub fn run(name: &str, cfg: &ExperimentConfig) -> Option<String> {
    match name {
        "table1" => Some(table1(cfg)),
        "fig4" => Some(fig4(cfg)),
        "fig5" => Some(fig5(cfg)),
        "fig6" => Some(fig6(cfg)),
        "fig7" => Some(fig7(cfg)),
        "fig8" => Some(fig8(cfg)),
        "fig9" => Some(fig9(cfg)),
        "fig10" => Some(fig10(cfg)),
        "fig11" => Some(fig11(cfg)),
        "ablations" => Some(ablations(cfg)),
        _ => None,
    }
}

fn trial(cfg: &ExperimentConfig, epsilon: f64, w: usize, q: usize, parts: &[u64]) -> TrialSpec {
    TrialSpec {
        epsilon,
        w,
        q,
        trials: cfg.trials,
        seed: cfg.sub_seed(parts),
    }
}

/// Cell metric matched to the dataset shape: crowd-averaged MSE for
/// populations (the paper's Table I protocol), per-subsequence MSE for
/// single streams.
fn mean_mse_cell(data: &DatasetData, spec: AlgorithmSpec, t: &TrialSpec) -> f64 {
    match data {
        DatasetData::Multi(_) => runner::population_mean_mse(data, spec, t),
        DatasetData::Single(_) => {
            runner::subsequence_metric(data, spec, t, Metric::MeanSquaredError)
        }
    }
}

/// Table I — subsequence mean-estimation MSE, datasets × algorithms.
#[must_use]
pub fn table1(cfg: &ExperimentConfig) -> String {
    let datasets = [
        Dataset::Volume,
        Dataset::C6h6,
        Dataset::Taxi,
        Dataset::Power,
    ];
    let arms = [
        AlgorithmSpec::SwDirect,
        AlgorithmSpec::BaSw,
        AlgorithmSpec::ToPL,
        AlgorithmSpec::NaiveSampling,
        AlgorithmSpec::Ipp,
        AlgorithmSpec::App,
        AlgorithmSpec::Capp { margin: None },
        AlgorithmSpec::AppSampling,
        AlgorithmSpec::CappSampling,
    ];
    let mut out = String::from("## Table I — mean estimation MSE (ε = 1, w = 10, q = 30)\n\n");
    out.push_str("| algorithm |");
    for d in datasets {
        out.push_str(&format!(" {} |", d.label()));
    }
    out.push_str("\n|---|");
    for _ in datasets {
        out.push_str("---|");
    }
    out.push('\n');
    for (ai, arm) in arms.iter().enumerate() {
        out.push_str(&format!("| {} |", arm.label()));
        for (di, d) in datasets.iter().enumerate() {
            let data = d.materialize(cfg.crowd_users, cfg.sub_seed(&[1, di as u64]));
            let t = trial(cfg, 1.0, W, Q, &[1, ai as u64, di as u64]);
            out.push_str(&format!(" {:.4e} |", mean_mse_cell(&data, *arm, &t)));
        }
        out.push('\n');
    }
    out
}

/// Shared shape of Figures 4–6: one panel per dataset, metric vs ε.
fn eps_sweep(
    cfg: &ExperimentConfig,
    artifact: u64,
    caption: &str,
    datasets: &[Dataset],
    arms: &[AlgorithmSpec],
    metric: Metric,
) -> String {
    let y_label = match metric {
        Metric::MeanSquaredError => "MSE",
        Metric::CosineDistance => "cosine distance",
    };
    let mut panels = Vec::new();
    for (di, d) in datasets.iter().enumerate() {
        let data = d.materialize(cfg.crowd_users, cfg.sub_seed(&[artifact, di as u64]));
        let mut panel = SeriesTable::new(&format!("{}, w = {W}", d.label()), "ε", y_label);
        for (ai, arm) in arms.iter().enumerate() {
            let points = epsilon_grid()
                .into_iter()
                .map(|eps| {
                    let t = trial(cfg, eps, W, Q, &[artifact, di as u64, ai as u64]);
                    (eps, runner::subsequence_metric(&data, *arm, &t, metric))
                })
                .collect();
            panel.push(Series {
                label: arm.label(),
                points,
            });
        }
        panels.push(panel);
    }
    render_artifact(caption, &panels)
}

const MAIN_ARMS: [AlgorithmSpec; 6] = [
    AlgorithmSpec::SwDirect,
    AlgorithmSpec::BaSw,
    AlgorithmSpec::ToPL,
    AlgorithmSpec::Ipp,
    AlgorithmSpec::App,
    AlgorithmSpec::Capp { margin: None },
];

const SAMPLING_ARMS: [AlgorithmSpec; 5] = [
    AlgorithmSpec::NaiveSampling,
    AlgorithmSpec::AppSampling,
    AlgorithmSpec::CappSampling,
    AlgorithmSpec::App,
    AlgorithmSpec::Capp { margin: None },
];

const ALL_DATASETS: [Dataset; 4] = [
    Dataset::Volume,
    Dataset::C6h6,
    Dataset::Taxi,
    Dataset::Power,
];

/// Figure 4 — mean estimation MSE vs ε.
#[must_use]
pub fn fig4(cfg: &ExperimentConfig) -> String {
    eps_sweep(
        cfg,
        4,
        "Figure 4 — subsequence mean MSE vs ε",
        &ALL_DATASETS,
        &MAIN_ARMS,
        Metric::MeanSquaredError,
    )
}

/// Figure 5 — stream publication cosine distance vs ε.
#[must_use]
pub fn fig5(cfg: &ExperimentConfig) -> String {
    eps_sweep(
        cfg,
        5,
        "Figure 5 — stream cosine distance vs ε",
        &ALL_DATASETS,
        &MAIN_ARMS,
        Metric::CosineDistance,
    )
}

/// Figure 6 — sampling family MSE vs ε.
#[must_use]
pub fn fig6(cfg: &ExperimentConfig) -> String {
    eps_sweep(
        cfg,
        6,
        "Figure 6 — sampling algorithms, subsequence mean MSE vs ε",
        &ALL_DATASETS,
        &SAMPLING_ARMS,
        Metric::MeanSquaredError,
    )
}

/// Figure 7 — MSE vs query length q at ε = 1.
#[must_use]
pub fn fig7(cfg: &ExperimentConfig) -> String {
    let arms = [
        AlgorithmSpec::SwDirect,
        AlgorithmSpec::App,
        AlgorithmSpec::Capp { margin: None },
        AlgorithmSpec::AppSampling,
        AlgorithmSpec::CappSampling,
    ];
    let q_grid = [10usize, 20, 40, 80, 160];
    let mut panels = Vec::new();
    for (di, d) in [Dataset::Volume, Dataset::C6h6].iter().enumerate() {
        let data = d.materialize(cfg.crowd_users, cfg.sub_seed(&[7, di as u64]));
        let mut panel = SeriesTable::new(&format!("{}, ε = 1, w = {W}", d.label()), "q", "MSE");
        for (ai, arm) in arms.iter().enumerate() {
            let points = q_grid
                .iter()
                .map(|&q| {
                    let t = trial(cfg, 1.0, W, q, &[7, di as u64, ai as u64, q as u64]);
                    (
                        q as f64,
                        runner::subsequence_metric(&data, *arm, &t, Metric::MeanSquaredError),
                    )
                })
                .collect();
            panel.push(Series {
                label: arm.label(),
                points,
            });
        }
        panels.push(panel);
    }
    render_artifact("Figure 7 — subsequence mean MSE vs query length", &panels)
}

/// Figure 8 — crowd-level Wasserstein distance vs ε (multi-user data).
#[must_use]
pub fn fig8(cfg: &ExperimentConfig) -> String {
    let arms = [
        AlgorithmSpec::SwDirect,
        AlgorithmSpec::NaiveSampling,
        AlgorithmSpec::App,
        AlgorithmSpec::Capp { margin: None },
    ];
    let mut panels = Vec::new();
    for (di, d) in [Dataset::Taxi, Dataset::Power].iter().enumerate() {
        let data = d.materialize(cfg.crowd_users, cfg.sub_seed(&[8, di as u64]));
        let mut panel = SeriesTable::new(
            &format!("{}, {} users", d.label(), cfg.crowd_users),
            "ε",
            "Wasserstein distance",
        );
        for (ai, arm) in arms.iter().enumerate() {
            let points = epsilon_grid()
                .into_iter()
                .map(|eps| {
                    let t = trial(cfg, eps, W, Q, &[8, di as u64, ai as u64]);
                    (eps, runner::crowd_wasserstein(&data, *arm, &t))
                })
                .collect();
            panel.push(Series {
                label: arm.label(),
                points,
            });
        }
        panels.push(panel);
    }
    render_artifact("Figure 8 — crowd-level statistics vs ε", &panels)
}

/// Figure 9 — generalizability across perturbation mechanisms.
#[must_use]
pub fn fig9(cfg: &ExperimentConfig) -> String {
    let data = Dataset::C6h6.materialize(1, cfg.sub_seed(&[9]));
    let mut panel = SeriesTable::new("C6H6, direct vs APP per mechanism", "ε", "MSE");
    for (ai, arm) in AlgorithmSpec::fig9_arms().into_iter().enumerate() {
        let points = epsilon_grid()
            .into_iter()
            .map(|eps| {
                let t = trial(cfg, eps, W, Q, &[9, ai as u64]);
                (
                    eps,
                    runner::subsequence_metric(&data, arm, &t, Metric::MeanSquaredError),
                )
            })
            .collect();
        panel.push(Series {
            label: arm.label(),
            points,
        });
    }
    render_artifact("Figure 9 — mechanism generalizability", &[panel])
}

/// Figure 10 — Budget-Split vs Sample-Split on d-dimensional series.
#[must_use]
pub fn fig10(cfg: &ExperimentConfig) -> String {
    let d_grid = [2usize, 4, 8, 12];
    let mut panel = SeriesTable::new("sinusoidal d-dim series, ε = 2", "d", "pointwise MSE");
    for strategy in [SplitStrategy::BudgetSplit, SplitStrategy::SampleSplit] {
        let mut points = Vec::new();
        for &d in &d_grid {
            let series =
                ldp_streams::synthetic::sin_multidim(d, 240, cfg.sub_seed(&[10, d as u64]));
            let mut rng = StdRng::seed_from_u64(cfg.sub_seed(&[10, d as u64, 1]));
            let mut summary = Summary::new();
            for _ in 0..cfg.trials.max(1) {
                let published =
                    publish_multidim(&series, SessionKind::App, strategy, 2.0, W, &mut rng)
                        .expect("static config");
                for (k, stream) in series.iter().enumerate() {
                    summary.add(ldp_metrics::mse(&published[k], stream.values()));
                }
            }
            points.push((d as f64, summary.mean()));
        }
        panel.push(Series {
            label: strategy.label().to_owned(),
            points,
        });
    }
    render_artifact("Figure 10 — high-dimensional budget strategies", &[panel])
}

/// Figure 11 — CAPP clip-margin sensitivity on analytic series.
#[must_use]
pub fn fig11(cfg: &ExperimentConfig) -> String {
    let margins = [0.0, 0.05, 0.1, 0.2, 0.4];
    let mut panels = Vec::new();
    for (di, d) in [Dataset::Constant, Dataset::Pulse, Dataset::Sinusoidal]
        .iter()
        .enumerate()
    {
        let data = d.materialize(1, cfg.sub_seed(&[11, di as u64]));
        let mut panel = SeriesTable::new(&format!("{}, ε = 1", d.label()), "δ", "MSE");
        let forced = margins
            .iter()
            .map(|&m| {
                let t = trial(cfg, 1.0, W, Q, &[11, di as u64, (m * 100.0) as u64]);
                (
                    m,
                    runner::subsequence_metric(
                        &data,
                        AlgorithmSpec::Capp { margin: Some(m) },
                        &t,
                        Metric::MeanSquaredError,
                    ),
                )
            })
            .collect();
        panel.push(Series {
            label: "CAPP(forced δ)".into(),
            points: forced,
        });
        let t = trial(cfg, 1.0, W, Q, &[11, di as u64, 999]);
        let auto = runner::subsequence_metric(
            &data,
            AlgorithmSpec::Capp { margin: None },
            &t,
            Metric::MeanSquaredError,
        );
        panel.push(Series {
            label: "CAPP(T(e_s,e_d))".into(),
            points: margins.iter().map(|&m| (m, auto)).collect(),
        });
        panels.push(panel);
    }
    render_artifact("Figure 11 — clip margin sensitivity", &panels)
}

/// Squared error of the published mean, pointwise MSE and cosine distance
/// of `algo` on the fixed window `xs`, each averaged over `trials`
/// independent publications.
fn ablation_row(algo: &dyn StreamMechanism, xs: &[f64], trials: usize, seed: u64) -> [f64; 3] {
    let mut rng = StdRng::seed_from_u64(seed);
    let truth_mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let mut cells = [Summary::new(), Summary::new(), Summary::new()];
    for _ in 0..trials.max(1) {
        let out = algo.publish(xs, &mut rng);
        let mean = out.iter().sum::<f64>() / out.len() as f64;
        cells[0].add((mean - truth_mean) * (mean - truth_mean));
        cells[1].add(ldp_metrics::mse(&out, xs));
        cells[2].add(ldp_metrics::cosine_distance(&out, xs));
    }
    cells.map(|cell| cell.mean())
}

/// Ablations of the three design choices the paper fixes, on 30-slot
/// windows of the Volume stream:
///
/// 1. **Smoothing window** — APP with SMA ∈ {0, 3, 5, 9, 15}: larger
///    windows keep reducing pointwise noise but blur stream features (the
///    paper fixes 3).
/// 2. **Deviation feedback** — none (SW-direct) vs last-only (IPP) vs
///    accumulated (APP), isolating the dual-utilization idea itself.
/// 3. **Sample count `n_s`** — APP-S over a sweep of `n_s`, with the row
///    [`optimal_sample_count`] picks marked.
#[must_use]
pub fn ablations(cfg: &ExperimentConfig) -> String {
    let stream = ldp_streams::synthetic::volume(2_000, cfg.sub_seed(&[16]));
    let query = &stream.values()[100..130];
    let mut out = String::from(
        "## Ablation 1 — SMA window (APP, ε = 1, w = 10)\n\n\
         | window | mean MSE | pointwise MSE | cosine distance |\n|---|---|---|---|\n",
    );
    for window in [0usize, 3, 5, 9, 15] {
        let app = App::new(1.0, W)
            .expect("static config")
            .with_smoothing(window);
        let seed = cfg.sub_seed(&[16, 1, window as u64]);
        let [m, p, c] = ablation_row(&app, query, cfg.trials, seed);
        out.push_str(&format!("| {window} | {m:.4e} | {p:.4e} | {c:.4e} |\n"));
    }

    out.push_str(
        "\n## Ablation 2 — deviation feedback (ε = 1, w = 10, no smoothing)\n\n\
         | feedback | mean MSE | pointwise MSE | cosine distance |\n|---|---|---|---|\n",
    );
    let arms: [(&str, Box<dyn StreamMechanism>); 3] = [
        (
            "none (SW-direct)",
            Box::new(Direct::new(1.0, W).expect("static config")),
        ),
        (
            "last only (IPP)",
            Box::new(Ipp::new(1.0, W).expect("static config")),
        ),
        (
            "accumulated (APP)",
            Box::new(App::new(1.0, W).expect("static config").with_smoothing(0)),
        ),
    ];
    for (ai, (label, algo)) in arms.iter().enumerate() {
        let seed = cfg.sub_seed(&[16, 2, ai as u64]);
        let [m, p, c] = ablation_row(algo.as_ref(), query, cfg.trials, seed);
        out.push_str(&format!("| {label} | {m:.4e} | {p:.4e} | {c:.4e} |\n"));
    }

    let (epsilon, w) = (3.0, 20);
    let query = &stream.values()[200..230];
    let q = query.len();
    out.push_str(&format!(
        "\n## Ablation 3 — sample count n_s (APP-S, ε = {epsilon}, w = {w}, q = {q})\n\n\
         | n_s | mean MSE | cosine distance |\n|---|---|---|\n"
    ));
    let picked = optimal_sample_count(epsilon, w, q);
    for ns in [1usize, 2, 3, 5, 10, 15, 30] {
        let algo = Sampling::new(SessionKind::App, epsilon, w)
            .expect("static config")
            .with_sample_count(ns);
        let seed = cfg.sub_seed(&[16, 3, ns as u64]);
        let [m, _, c] = ablation_row(&algo, query, cfg.trials, seed);
        let marker = if ns == picked {
            " ← optimizer pick"
        } else {
            ""
        };
        out.push_str(&format!("| {ns}{marker} | {m:.4e} | {c:.4e} |\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            trials: 1,
            seed: 42,
            crowd_users: 12,
        }
    }

    #[test]
    fn every_name_runs_and_renders() {
        let cfg = tiny();
        for name in names() {
            let report = run(name, &cfg).unwrap_or_else(|| panic!("missing artifact {name}"));
            assert!(report.contains('|'), "{name} should render a table");
        }
        assert!(run("nope", &cfg).is_none());
    }

    #[test]
    fn table1_lists_all_arms_and_datasets() {
        let md = table1(&tiny());
        for needle in ["CAPP", "ToPL", "Volume", "Power"] {
            assert!(md.contains(needle), "table1 missing {needle}");
        }
    }

    #[test]
    fn ablations_renders_three_studies() {
        let md = ablations(&tiny());
        assert_eq!(md.matches("## Ablation ").count(), 3, "{md}");
        for arm in [
            "| none (SW-direct) |",
            "| last only (IPP) |",
            "| accumulated (APP) |",
        ] {
            assert!(md.contains(arm), "feedback study missing {arm}:\n{md}");
        }
        assert_eq!(md.matches("← optimizer pick").count(), 1, "{md}");
    }

    #[test]
    fn resolve_refuses_the_whole_list_on_any_unknown_name() {
        assert_eq!(resolve(&["all"]).unwrap(), names());
        assert_eq!(
            resolve(&["fig4", "all", "table1"]).unwrap(),
            [&["fig4"][..], names(), &["table1"]].concat()
        );
        assert_eq!(resolve(&["table1", "nope"]), Err("nope".to_owned()));
        assert_eq!(resolve(&["all", "nope"]), Err("nope".to_owned()));
    }
}
