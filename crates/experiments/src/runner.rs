//! Trial runner: repeats a configuration over random subsequences,
//! spreading trials across threads.

use crate::algorithms::AlgorithmSpec;
use crate::datasets::DatasetData;
use ldp_core::crowd;
use ldp_metrics::{cosine_distance, wasserstein_cdf_sum, Summary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bins used by the crowd-level Wasserstein distance (Fig 8).
const WASSERSTEIN_BINS: usize = 50;

/// One experiment cell: an (ε, w, q) point averaged over `trials` random
/// subsequences.
#[derive(Debug, Clone, Copy)]
pub struct TrialSpec {
    /// Window budget ε.
    pub epsilon: f64,
    /// Window size w.
    pub w: usize,
    /// Query (subsequence) length q.
    pub q: usize,
    /// Number of random subsequences.
    pub trials: usize,
    /// Deterministic seed for this cell.
    pub seed: u64,
}

/// Metric computed per trial between the published and true subsequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Squared error of the subsequence mean (averaged over trials → MSE).
    MeanSquaredError,
    /// Cosine distance between the published and true streams.
    CosineDistance,
}

/// The threads a cell's trials are spread over.
fn workers() -> usize {
    ldp_collector::default_parallelism().min(8)
}

/// The mean of `value` over the cell's trials. Trial `i` draws from its
/// own generator, seeded by `(trial.seed, i)`, and the values are averaged
/// in trial order, so the result is a function of the cell alone: the
/// `workers` threads only decide who computes which trial. Each thread
/// keeps one `S` (reused buffers) across its trials.
fn mean_over_trials<S: Default>(
    trial: &TrialSpec,
    workers: usize,
    value: impl Fn(&mut S, &mut StdRng) -> f64 + Sync,
) -> f64 {
    let mut values = vec![0.0; trial.trials];
    let chunk = trial.trials.div_ceil(workers).max(1);
    std::thread::scope(|scope| {
        for (c, out) in values.chunks_mut(chunk).enumerate() {
            let value = &value;
            scope.spawn(move || {
                let mut state = S::default();
                for (j, v) in out.iter_mut().enumerate() {
                    let i = (c * chunk + j) as u64;
                    let mut rng =
                        StdRng::seed_from_u64(trial.seed ^ i.wrapping_mul(TRIAL_SEED_MIX));
                    *v = value(&mut state, &mut rng);
                }
            });
        }
    });
    values.into_iter().collect::<Summary>().mean()
}

/// Odd multiplier spreading trial indices over the seed's bits.
const TRIAL_SEED_MIX: u64 = 0xD1B5_4A32_D192_ED03;

/// Runs one experiment cell and returns the trial-averaged metric.
///
/// Every arm publishes the unit-scale subsequence; the published and true
/// streams are then mapped onto [`AlgorithmSpec::metric_domain`] (`[−1,1]`
/// for Fig 9's Laplace/SR/PM cells) and the metric is computed there,
/// matching the paper's setup.
#[must_use]
pub fn subsequence_metric(
    data: &DatasetData,
    spec: AlgorithmSpec,
    trial: &TrialSpec,
    metric: Metric,
) -> f64 {
    subsequence_metric_on(workers(), data, spec, trial, metric)
}

fn subsequence_metric_on(
    workers: usize,
    data: &DatasetData,
    spec: AlgorithmSpec,
    trial: &TrialSpec,
    metric: Metric,
) -> f64 {
    let algo = spec.build(trial.epsilon, trial.w);
    let dom = spec.metric_domain();
    // Both buffers are reused across a thread's trials: the publish path
    // writes through `StreamMechanism::publish_into`.
    mean_over_trials(
        trial,
        workers,
        |(truth, published): &mut (Vec<f64>, Vec<f64>), rng| {
            let raw = data.random_subsequence(trial.q, rng);
            algo.publish_into(raw, published, rng);
            truth.clear();
            truth.extend(raw.iter().map(|&x| dom.denormalize(x)));
            for y in published.iter_mut() {
                *y = dom.denormalize(*y);
            }
            match metric {
                Metric::MeanSquaredError => {
                    let m_est = published.iter().sum::<f64>() / published.len() as f64;
                    let m_true = truth.iter().sum::<f64>() / truth.len() as f64;
                    (m_est - m_true) * (m_est - m_true)
                }
                Metric::CosineDistance => cosine_distance(published, truth),
            }
        },
    )
}

/// One crowd-level cell: every trial draws a random `q`-slot range, every
/// user publishes it, and `score` compares the estimated per-user means
/// with the true ones.
fn crowd_cell(
    data: &DatasetData,
    spec: AlgorithmSpec,
    trial: &TrialSpec,
    score: impl Fn(&[f64], &[f64]) -> f64 + Sync,
) -> f64 {
    let population = data.population();
    let len = population.users()[0].len();
    assert!(len >= trial.q, "user streams shorter than q");
    let algo = spec.build(trial.epsilon, trial.w);
    mean_over_trials(trial, workers(), |(): &mut (), rng| {
        let start = rng.gen_range(0..=len - trial.q);
        let range = start..start + trial.q;
        let est = crowd::estimated_population_means(population, range.clone(), algo.as_ref(), rng);
        score(&est, &crowd::true_population_means(population, range))
    })
}

/// Runs one crowd-level cell (Fig 8): every user publishes the same query
/// range privately, the collector forms the distribution of estimated
/// per-user means, and the Wasserstein distance to the true distribution is
/// averaged over `trials` random ranges.
///
/// # Panics
/// Panics if the dataset is single-user.
#[must_use]
pub fn crowd_wasserstein(data: &DatasetData, spec: AlgorithmSpec, trial: &TrialSpec) -> f64 {
    crowd_cell(data, spec, trial, |est, truth| {
        wasserstein_cdf_sum(est, truth, WASSERSTEIN_BINS)
    })
}

/// Runs one crowd-averaged mean-estimation cell (the paper's Table I
/// protocol for the multi-user Taxi dataset): every user publishes the
/// same window, the collector averages the per-user published means into
/// one population-mean estimate, and its squared error is averaged over
/// `trials` random windows. Per-user noise averages out over the
/// population, so the magnitudes are ~`users`× smaller than the per-user
/// metric.
///
/// # Panics
/// Panics if the dataset is single-user.
#[must_use]
pub fn population_mean_mse(data: &DatasetData, spec: AlgorithmSpec, trial: &TrialSpec) -> f64 {
    crowd_cell(data, spec, trial, |est, truth| {
        let est_mean = est.iter().sum::<f64>() / est.len() as f64;
        let true_mean = truth.iter().sum::<f64>() / truth.len() as f64;
        (est_mean - true_mean) * (est_mean - true_mean)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;

    fn spec(trials: usize) -> TrialSpec {
        TrialSpec {
            epsilon: 1.0,
            w: 10,
            q: 10,
            trials,
            seed: 99,
        }
    }

    #[test]
    fn a_cell_does_not_depend_on_its_worker_count() {
        // Trial i draws from its own generator and values are averaged in
        // trial order, so 1 and 3 threads compute the same bits (7 trials:
        // chunks of 7 vs 3 + 3 + 1).
        let data = Dataset::C6h6.materialize(1, 3);
        for spec_ in [AlgorithmSpec::App, AlgorithmSpec::SwDirect] {
            let t = spec(7);
            let one = subsequence_metric_on(1, &data, spec_, &t, Metric::MeanSquaredError);
            let three = subsequence_metric_on(3, &data, spec_, &t, Metric::MeanSquaredError);
            assert_eq!(one.to_bits(), three.to_bits(), "{}", spec_.label());
        }
    }

    #[test]
    fn metric_is_deterministic_in_seed() {
        let data = Dataset::C6h6.materialize(1, 3);
        let a = subsequence_metric(
            &data,
            AlgorithmSpec::App,
            &spec(8),
            Metric::MeanSquaredError,
        );
        let b = subsequence_metric(
            &data,
            AlgorithmSpec::App,
            &spec(8),
            Metric::MeanSquaredError,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn mse_decreases_with_budget() {
        let data = Dataset::C6h6.materialize(1, 3);
        let lo = subsequence_metric(
            &data,
            AlgorithmSpec::App,
            &TrialSpec {
                epsilon: 0.5,
                trials: 40,
                ..spec(0)
            },
            Metric::MeanSquaredError,
        );
        let hi = subsequence_metric(
            &data,
            AlgorithmSpec::App,
            &TrialSpec {
                epsilon: 20.0,
                trials: 40,
                ..spec(0)
            },
            Metric::MeanSquaredError,
        );
        assert!(hi < lo, "ε=20 MSE {hi} should be below ε=0.5 MSE {lo}");
    }

    #[test]
    fn crowd_runner_produces_finite_distance() {
        let data = Dataset::Taxi.materialize(40, 5);
        let d = crowd_wasserstein(&data, AlgorithmSpec::App, &spec(3));
        assert!(d.is_finite() && d >= 0.0);
    }

    #[test]
    fn population_mean_mse_is_much_smaller_than_per_user() {
        // Noise averages across users: the crowd-averaged metric must be
        // far below the per-user metric on the same configuration.
        let data = Dataset::Taxi.materialize(150, 5);
        let t = spec(10);
        let crowd = population_mean_mse(&data, AlgorithmSpec::SwDirect, &t);
        let per_user =
            subsequence_metric(&data, AlgorithmSpec::SwDirect, &t, Metric::MeanSquaredError);
        assert!(
            crowd < per_user / 5.0,
            "crowd {crowd} should be ≪ per-user {per_user}"
        );
    }

    #[test]
    fn symmetric_domain_metric_runs() {
        let data = Dataset::Volume.materialize(1, 7);
        let v = subsequence_metric(
            &data,
            AlgorithmSpec::Cell(ldp_core::PipelineSpec::new(
                ldp_core::SessionKind::SwDirect,
                ldp_mechanisms::MechanismKind::Laplace,
            )),
            &spec(5),
            Metric::CosineDistance,
        );
        assert!(v.is_finite());
    }
}
