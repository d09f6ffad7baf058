//! Crowd-level statistics (paper §IV-C "Crowd-level statistics" and
//! Theorem 5, evaluated in Figure 8).
//!
//! The collector first estimates each user's subsequence mean from that
//! user's privately published stream, then studies the *distribution* of
//! those per-user means across the population. Theorem 5 (a DKW-style
//! argument) shows that if every individual estimate is within β of its
//! true value, the empirical distribution of estimates converges uniformly
//! to the true mean distribution — so better individual estimators yield
//! better crowd-level characterizations.

use crate::publisher::StreamMechanism;
use ldp_streams::Population;
use rand::RngCore;
use std::ops::Range;

/// Per-user estimated subsequence means: runs `algo` independently on each
/// user's subsequence and returns the published means — the collector-side
/// estimator `M̂(i,j)` of the paper's problem definition (0 for an empty
/// range). One buffer is reused for every user's published stream.
///
/// # Panics
/// Panics if `range` is out of bounds for any user.
#[must_use]
pub fn estimated_population_means(
    population: &Population,
    range: Range<usize>,
    algo: &dyn StreamMechanism,
    rng: &mut dyn RngCore,
) -> Vec<f64> {
    let mut published = Vec::new();
    population
        .iter()
        .map(|user| {
            algo.publish_into(user.subsequence(range.clone()), &mut published, rng);
            if published.is_empty() {
                return 0.0;
            }
            published.iter().sum::<f64>() / published.len() as f64
        })
        .collect()
}

/// Ground-truth per-user subsequence means (no privacy).
#[must_use]
pub fn true_population_means(population: &Population, range: Range<usize>) -> Vec<f64> {
    population.subsequence_means(range)
}

/// Ground-truth population mean over a window: the average of the per-user
/// subsequence means (what a collector's windowed crowd estimate targets).
#[must_use]
pub fn true_windowed_population_mean(population: &Population, range: Range<usize>) -> f64 {
    let means = population.subsequence_means(range);
    if means.is_empty() {
        return 0.0;
    }
    means.iter().sum::<f64>() / means.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_streams::synthetic::taxi_population;
    use rand::{RngCore, SeedableRng};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// Identity "mechanism" for plumbing tests.
    struct Identity;
    impl StreamMechanism for Identity {
        fn publish_into(&self, xs: &[f64], out: &mut Vec<f64>, _rng: &mut dyn RngCore) {
            out.clear();
            out.extend_from_slice(xs);
        }
    }

    #[test]
    fn identity_recovers_true_means() {
        let pop = taxi_population(20, 50, 1);
        let est = estimated_population_means(&pop, 10..40, &Identity, &mut rng(1));
        let truth = true_population_means(&pop, 10..40);
        for (a, b) in est.iter().zip(&truth) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn an_empty_range_estimates_zero() {
        let pop = taxi_population(3, 10, 1);
        let est = estimated_population_means(&pop, 4..4, &Identity, &mut rng(1));
        assert_eq!(est, vec![0.0; 3]);
    }

    #[test]
    fn private_means_approach_truth_with_budget() {
        let pop = taxi_population(150, 60, 2);
        let range = 0..30;
        let truth = true_population_means(&pop, range.clone());
        let lo = crate::App::new(0.3, 30).unwrap();
        let hi = crate::App::new(30.0, 30).unwrap();
        let mut r = rng(3);
        let d_lo = ldp_metrics::wasserstein_sorted(
            &estimated_population_means(&pop, range.clone(), &lo, &mut r),
            &truth,
        );
        let d_hi = ldp_metrics::wasserstein_sorted(
            &estimated_population_means(&pop, range, &hi, &mut r),
            &truth,
        );
        assert!(
            d_hi < d_lo,
            "more budget should shrink the crowd distance: {d_hi} vs {d_lo}"
        );
    }
}
