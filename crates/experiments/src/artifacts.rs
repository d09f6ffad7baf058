//! One function per paper artifact (Table I, Figures 4–11), plus the
//! system scenarios (collector scale, pipeline grid, query and server
//! load) and the design-choice ablations, each regenerating its
//! rows/series from one configuration.
//!
//! Every artifact is a pure function of an [`ExperimentConfig`] and
//! returns a rendered markdown report; [`run`] dispatches by name and
//! [`names`] lists everything in paper order.

use crate::algorithms::AlgorithmSpec;
use crate::config::{epsilon_grid, ExperimentConfig};
use crate::datasets::{Dataset, DatasetData};
use crate::report::{render_artifact, Series, SeriesTable};
use crate::runner::{self, Metric, TrialSpec};
use ldp_collector::{
    ClientFleet, Collector, CollectorConfig, FleetConfig, ReseedingSession, SlotRetention,
};
use ldp_core::highdim::{publish_multidim, SplitStrategy};
use ldp_core::{
    crowd, optimal_sample_count, App, Ipp, PipelineSpec, PpKind, Sampling, SessionKind,
    StreamMechanism,
};
use ldp_mechanisms::MechanismKind;
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
        "collector_scale",
        "pipeline_grid",
        "query_load",
        "server_load",
        "ablations",
    ]
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
        "collector_scale" => Some(collector_scale(cfg)),
        "pipeline_grid" => Some(pipeline_grid(cfg)),
        "query_load" => Some(query_load(cfg)),
        "server_load" => Some(server_load(cfg)),
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
    for (ai, (label, arm)) in AlgorithmSpec::fig9_arms().into_iter().enumerate() {
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
        panel.push(Series { label, points });
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
                let published = publish_multidim(&series, PpKind::App, strategy, 2.0, W, &mut rng)
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

/// Collector scalability scenario: drive a sharded client fleet through
/// the incremental aggregation engine at increasing fleet sizes, and
/// verify the snapshot agrees with the offline batch path.
#[must_use]
pub fn collector_scale(cfg: &ExperimentConfig) -> String {
    let (epsilon, w) = (2.0, W);
    let slots = 200;
    let range = 0..slots;
    let mut out = String::from(
        "## Collector scalability — sharded incremental aggregation\n\n\
         | users | reports | elapsed | reports/s | \\|pop mean − batch\\| | \\|pop mean − truth\\| |\n\
         |---|---|---|---|---|---|\n",
    );
    for scale in [1usize, 4, 16] {
        let users = (cfg.fleet_users * scale).max(1);
        let population = ldp_streams::synthetic::taxi_population(
            users,
            slots,
            cfg.sub_seed(&[12, scale as u64]),
        );
        let collector = Collector::new(CollectorConfig::default());
        let fleet = ClientFleet::new(FleetConfig {
            spec: PipelineSpec::sw(SessionKind::Capp),
            epsilon,
            w,
            seed: cfg.sub_seed(&[12, scale as u64, 1]),
            threads: ldp_collector::default_parallelism(),
        });
        let start = std::time::Instant::now();
        let reports = fleet
            .drive(&population, range.clone(), &collector)
            .expect("static config");
        let elapsed = start.elapsed();
        let snapshot = collector.snapshot();
        let online = snapshot
            .windowed_mean(range.clone())
            .expect("full coverage");

        // Offline reference: the batch crowd path over the same seeded
        // sessions, and the ground truth without privacy.
        let adapter = ReseedingSession::new(
            PipelineSpec::sw(SessionKind::Capp),
            epsilon,
            w,
            fleet.config().seed,
        )
        .expect("static config");
        let mut unused = StdRng::seed_from_u64(0);
        let batch =
            crowd::estimated_population_means(&population, range.clone(), &adapter, &mut unused);
        let batch_mean = batch.iter().sum::<f64>() / batch.len() as f64;
        let truth = crowd::true_windowed_population_mean(&population, range.clone());

        let rate = reports as f64 / elapsed.as_secs_f64().max(1e-9);
        out.push_str(&format!(
            "| {users} | {reports} | {:.2?} | {:.3e} | {:.3e} | {:.3e} |\n",
            elapsed,
            rate,
            (online - batch_mean).abs(),
            (online - truth).abs(),
        ));
    }
    out
}

/// Pipeline grid scenario: every SessionKind × MechanismKind cell drives
/// a client fleet end-to-end through the collector at fixed `(ε, w)`,
/// reporting ingest throughput, the gap to the offline batch path (which
/// must be ≈ 0 for every cell — the agreement the tests pin at 1e-9),
/// and the distance to ground truth.
#[must_use]
pub fn pipeline_grid(cfg: &ExperimentConfig) -> String {
    let (epsilon, w) = (2.0, W);
    let slots = 60;
    let range = 0..slots;
    let users = cfg.fleet_users.max(1);
    let population = ldp_streams::synthetic::taxi_population(users, slots, cfg.sub_seed(&[13]));
    let truth = crowd::true_windowed_population_mean(&population, range.clone());
    let mut out = format!(
        "## Pipeline grid — SessionKind × MechanismKind (ε = {epsilon}, w = {w}, \
         {users} users × {slots} slots)\n\n\
         | pipeline | reports | reports/s | \\|pop mean − batch\\| | \\|pop mean − truth\\| |\n\
         |---|---|---|---|---|\n"
    );
    for session in SessionKind::ALL {
        for mechanism in MechanismKind::ALL {
            let spec = PipelineSpec::new(session, mechanism);
            let collector = Collector::new(CollectorConfig::default());
            let fleet = ClientFleet::new(FleetConfig {
                spec,
                epsilon,
                w,
                seed: cfg.sub_seed(&[13, 1]),
                threads: ldp_collector::default_parallelism(),
            });
            let start = std::time::Instant::now();
            let reports = fleet
                .drive(&population, range.clone(), &collector)
                .expect("static config");
            let elapsed = start.elapsed();
            let snapshot = collector.snapshot();
            let online = snapshot
                .windowed_mean(range.clone())
                .expect("full coverage");

            let adapter = ReseedingSession::new(spec, epsilon, w, fleet.config().seed)
                .expect("static config");
            let mut unused = StdRng::seed_from_u64(0);
            let batch = crowd::estimated_population_means(
                &population,
                range.clone(),
                &adapter,
                &mut unused,
            );
            let batch_mean = batch.iter().sum::<f64>() / batch.len() as f64;

            let rate = reports as f64 / elapsed.as_secs_f64().max(1e-9);
            out.push_str(&format!(
                "| {} | {reports} | {rate:.3e} | {:.3e} | {:.3e} |\n",
                spec.label(),
                (online - batch_mean).abs(),
                (online - truth).abs(),
            ));
        }
    }
    out
}

/// Query-load scenario: the live query engine answers crowd statistics
/// *while* the fleet streams, under increasingly tight retention. Each row
/// drives the same fleet through a collector with a different
/// [`SlotRetention`] policy plus a concurrent query thread, and compares
/// the trailing-window estimate served by the query cache against an
/// unbounded, plainly-driven reference collector — the retention boundary
/// the integration tests pin at 1e-9, here on the end-to-end path.
#[must_use]
pub fn query_load(cfg: &ExperimentConfig) -> String {
    let (epsilon, w) = (2.0, W);
    let slots = 24 * W; // a stream much longer than any retained window
    let range = 0..slots;
    let users = cfg.fleet_users.max(1);
    let population = ldp_streams::synthetic::taxi_population(users, slots, cfg.sub_seed(&[14]));
    let fleet = ClientFleet::new(FleetConfig {
        spec: PipelineSpec::sw(SessionKind::Capp),
        epsilon,
        w,
        seed: cfg.sub_seed(&[14, 1]),
        threads: ldp_collector::default_parallelism(),
    });

    // Unbounded reference, driven without query load.
    let reference = Collector::new(CollectorConfig::default());
    fleet
        .drive(&population, range.clone(), &reference)
        .expect("static config");
    let ref_tail = reference
        .snapshot()
        .windowed_mean(slots - W..slots)
        .expect("full coverage");

    let mut out = format!(
        "## Live query load — bounded retention vs unbounded reference \
         (ε = {epsilon}, w = {w}, {users} users × {slots} slots)\n\n\
         | retention | reports | reports/s | queries | queries/s | retained slots | \
         \\|tail mean − unbounded\\| |\n\
         |---|---|---|---|---|---|---|\n"
    );
    for (label, retention) in [
        ("unbounded", SlotRetention::Unbounded),
        ("last 4w", SlotRetention::Last(4 * W as u64)),
        ("last 2w", SlotRetention::Last(2 * W as u64)),
    ] {
        let collector = Collector::new(CollectorConfig {
            retention,
            ..CollectorConfig::default()
        });
        let start = std::time::Instant::now();
        let load = fleet
            .drive_with_queries(&population, range.clone(), &collector, W)
            .expect("static config");
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        // The query path was exercised live by drive_with_queries; the
        // post-run tail check just needs one cheap merged read.
        let tail = collector
            .snapshot()
            .windowed_mean(slots - W..slots)
            .expect("trailing window retained");
        out.push_str(&format!(
            "| {label} | {} | {:.3e} | {} | {:.3e} | {} | {:.3e} |\n",
            load.uploaded,
            load.uploaded as f64 / elapsed,
            load.queries,
            load.queries as f64 / elapsed,
            load.retained_slots,
            (tail - ref_tail).abs(),
        ));
    }
    out
}

/// Server-load scenario: the same seeded fleet drives the collector twice
/// — once in-process, once through `ldp-server`'s framed TCP loopback
/// path (each worker its own connection) — and the table reports wire
/// throughput, the remote-vs-local population-mean gap (pinned ≤ 1e-9 by
/// the loopback integration test, here surfaced end-to-end), and the
/// server's own frame counters.
#[must_use]
pub fn server_load(cfg: &ExperimentConfig) -> String {
    use ldp_server::{drive_fleet_loopback, RemoteCollector, Server, ServerConfig};
    use std::sync::Arc;

    let (epsilon, w) = (2.0, W);
    let slots = 60;
    let range = 0..slots;
    let users = cfg.fleet_users.max(1);
    let population = ldp_streams::synthetic::taxi_population(users, slots, cfg.sub_seed(&[15]));

    let mut out = format!(
        "## Server load — framed TCP loopback vs in-process ingest \
         (ε = {epsilon}, w = {w}, {users} users × {slots} slots)\n\n\
         | conns | reports | reports/s | \\|pop mean − local\\| | frames | failed | queries |\n\
         |---|---|---|---|---|---|---|\n"
    );
    for conns in [1usize, 2, 4] {
        let fleet = ClientFleet::new(FleetConfig {
            spec: PipelineSpec::sw(SessionKind::Capp),
            epsilon,
            w,
            seed: cfg.sub_seed(&[15, 1]),
            threads: conns,
        });
        // In-process reference with the same seeds.
        let local = Collector::new(CollectorConfig::default());
        fleet
            .drive(&population, range.clone(), &local)
            .expect("static config");
        let local_pop = local.snapshot().population_mean().expect("users reported");

        // Remote path: one connection per fleet worker.
        let server = Server::bind(
            Arc::new(Collector::new(CollectorConfig::default())),
            ServerConfig::default(),
        )
        .expect("bind loopback");
        let start = std::time::Instant::now();
        let accepted = drive_fleet_loopback(&fleet, &population, range.clone(), &server)
            .expect("loopback drive");
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);

        let mut client = RemoteCollector::connect(server.local_addr()).expect("query connect");
        let remote_pop = client
            .population_mean()
            .expect("population query")
            .expect("users reported");
        let stats = client.server_stats().expect("stats query");
        out.push_str(&format!(
            "| {conns} | {accepted} | {:.3e} | {:.3e} | {} | {} | {} |\n",
            accepted as f64 / elapsed,
            (remote_pop - local_pop).abs(),
            stats.frames_decoded,
            stats.frames_failed,
            stats.queries_answered,
        ));
    }
    out
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
            Box::new(ldp_baselines::SwDirect::new(1.0, W).expect("static config")),
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
        let algo = Sampling::new(PpKind::App, epsilon, w)
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
            fleet_users: 8,
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
    fn collector_scale_reports_small_batch_gap() {
        let md = collector_scale(&tiny());
        assert!(md.contains("reports/s"));
        // Three scale rows plus the two header lines.
        assert_eq!(md.lines().filter(|l| l.starts_with("| ")).count(), 3 + 1);
    }

    #[test]
    fn query_load_rows_agree_with_the_unbounded_reference() {
        let md = query_load(&tiny());
        // Three retention rows plus the header row.
        assert_eq!(md.lines().filter(|l| l.starts_with("| ")).count(), 3 + 1);
        // Same fleet seed ⇒ identical published values, so every row's
        // tail-mean gap column must be ≈ 0.
        for row in md.lines().filter(|l| l.starts_with("| ")).skip(1) {
            let gap: f64 = row
                .split('|')
                .rfind(|c| !c.trim().is_empty())
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            assert!(gap < 1e-9, "retention row drifted: {row}");
        }
    }

    #[test]
    fn server_load_rows_agree_with_the_local_reference() {
        let md = server_load(&tiny());
        // Three connection rows plus the header row.
        let rows: Vec<&str> = md.lines().filter(|l| l.starts_with("| ")).collect();
        assert_eq!(rows.len(), 3 + 1);
        for row in rows.iter().skip(1) {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let gap: f64 = cells[4].parse().expect("gap column");
            assert!(gap <= 1e-9, "remote path drifted from local: {row}");
            let failed: u64 = cells[6].parse().expect("failed column");
            assert_eq!(failed, 0, "clean run decodes every frame: {row}");
        }
    }

    #[test]
    fn pipeline_grid_covers_every_session_kind() {
        let md = pipeline_grid(&tiny());
        for session in SessionKind::ALL {
            assert!(
                md.contains(&format!("| {}+", session.label())),
                "grid missing {} rows:\n{md}",
                session.label()
            );
        }
        // One row per (session, mechanism) cell plus the header row.
        let rows = md.lines().filter(|l| l.starts_with("| ")).count();
        assert_eq!(rows, SessionKind::ALL.len() * MechanismKind::ALL.len() + 1);
    }
}
