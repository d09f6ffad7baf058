//! End-to-end pipeline tests: dataset → algorithm → collector estimate,
//! determinism, and the EM distribution estimator in the loop.

use integration_tests::test_rng;
use ldp_core::crowd;
use ldp_core::{App, Capp, Ipp, StreamMechanism};
use ldp_experiments::{AlgorithmSpec, Dataset};
use ldp_mechanisms::sw_estimate::{estimate_mean, EmConfig};
use ldp_mechanisms::{Mechanism, SquareWave};
use ldp_metrics::{mse, wasserstein_sorted};
use ldp_streams::synthetic::{power_population, taxi_population, volume};

/// The whole pipeline is deterministic given (dataset seed, RNG seed).
#[test]
fn pipeline_is_reproducible() {
    let data = volume(500, 21);
    for alg in [
        AlgorithmSpec::SwDirect,
        AlgorithmSpec::BaSw,
        AlgorithmSpec::Ipp,
        AlgorithmSpec::App,
        AlgorithmSpec::Capp { margin: None },
        AlgorithmSpec::ToPL,
        AlgorithmSpec::AppSampling,
    ] {
        let a = alg.build(1.0, 10).publish(data.values(), &mut test_rng(77));
        let b = alg.build(1.0, 10).publish(data.values(), &mut test_rng(77));
        assert_eq!(a, b, "{} is not reproducible", alg.label());
    }
}

/// Publishing a long stream and estimating its mean stays close to truth
/// for APP (the running-sum telescoping property, end to end).
///
/// Note the budget: the telescoping correction can only flow while the
/// deviation-adjusted input stays inside `[0, 1]`. At very small per-slot
/// budgets SW's output expectation is pinned near 0.5 regardless of input,
/// so on skewed data the accumulated deviation saturates against the clip
/// bound and the published mean drifts toward SW's fixed point — the
/// bias-dominated regime both the paper's and our Figure 4 numbers live
/// in. With ε/w = 2 SW is expectation-faithful and telescoping holds.
#[test]
fn app_long_stream_mean_converges() {
    let data = volume(5_000, 22);
    let truth = data.mean();
    let app = App::new(20.0, 10).unwrap();
    let mut rng = test_rng(5);
    let published = app.publish(data.values(), &mut rng);
    let est = published.iter().sum::<f64>() / published.len() as f64;
    assert!(
        (est - truth).abs() < 0.02,
        "APP long-run mean {est} vs truth {truth}"
    );
}

/// The clipping-saturation regime itself: at a tiny per-slot budget on
/// skewed data, the published mean sits near SW's fixed point rather than
/// the true mean — and CAPP's widened clip range moves it closer to truth
/// than plain APP manages.
#[test]
fn tiny_budget_mean_saturates_at_sw_fixed_point() {
    let data = volume(3_000, 27);
    let truth = data.mean(); // ≈ 0.29, far from SW's ≈ 0.5 fixed point
    let app = App::new(1.0, 20).unwrap(); // ε/w = 0.05
    let mut rng = test_rng(28);
    let published = app.publish(data.values(), &mut rng);
    let est = published.iter().sum::<f64>() / published.len() as f64;
    assert!(
        (est - 0.5).abs() < 0.1,
        "expected saturation near 0.5, got {est} (truth {truth})"
    );
}

/// The EM distribution estimator integrates with direct SW collection:
/// collector-side mean from raw reports via EM tracks the population mean.
#[test]
fn em_estimator_recovers_population_mean_from_sw_reports() {
    let population = taxi_population(200, 50, 23);
    let sw = SquareWave::new(1.0).unwrap();
    let mut rng = test_rng(6);
    // Each user reports slot 0 once with the full budget.
    let reports: Vec<f64> = population
        .iter()
        .map(|u| sw.perturb(u.values()[0], &mut rng))
        .collect();
    let est = estimate_mean(&sw, &reports, &EmConfig::default());
    let truth: f64 =
        population.iter().map(|u| u.values()[0]).sum::<f64>() / population.len() as f64;
    assert!((est - truth).abs() < 0.1, "EM mean {est} vs truth {truth}");
}

/// Crowd-level pipeline: estimated mean distribution converges to the true
/// one as the budget grows (Theorem 5's premise, end to end).
#[test]
fn crowd_distribution_tightens_with_budget() {
    let population = power_population(300, 96, 24);
    let range = 10..40;
    let truth = crowd::true_population_means(&population, range.clone());
    let mut rng = test_rng(7);
    let distances: Vec<f64> = [0.5, 4.0, 32.0]
        .iter()
        .map(|&eps| {
            let algo = App::new(eps, 30).unwrap();
            let est =
                crowd::estimated_population_means(&population, range.clone(), &algo, &mut rng);
            wasserstein_sorted(&est, &truth)
        })
        .collect();
    assert!(
        distances[2] < distances[0],
        "distance should fall with budget: {distances:?}"
    );
}

/// Smoothing improves pointwise stream quality end to end (Lemma IV.1).
#[test]
fn smoothing_reduces_stream_mse() {
    let data = volume(2_000, 25);
    let app_raw = App::new(2.0, 10).unwrap().with_smoothing(0);
    let app_smooth = App::new(2.0, 10).unwrap();
    let mut rng = test_rng(8);
    let trials = 10;
    let (mut err_raw, mut err_smooth) = (0.0, 0.0);
    for _ in 0..trials {
        err_raw += mse(&app_raw.publish(data.values(), &mut rng), data.values());
        err_smooth += mse(&app_smooth.publish(data.values(), &mut rng), data.values());
    }
    assert!(
        err_smooth < err_raw,
        "smoothed MSE {err_smooth} should be below raw {err_raw}"
    );
}

/// All three PP algorithms preserve the stream length on every dataset.
#[test]
fn pp_algorithms_preserve_length_on_all_datasets() {
    let mut rng = test_rng(9);
    for ds in [
        Dataset::C6h6,
        Dataset::Volume,
        Dataset::Taxi,
        Dataset::Power,
    ] {
        let data = ds.materialize(10, 26);
        let sub = data.random_subsequence(40, &mut rng).to_vec();
        for publisher in [
            Box::new(Ipp::new(1.0, 10).unwrap()) as Box<dyn StreamMechanism>,
            Box::new(App::new(1.0, 10).unwrap()),
            Box::new(Capp::new(1.0, 10).unwrap()),
        ] {
            assert_eq!(publisher.publish(&sub, &mut rng).len(), 40);
        }
    }
}
