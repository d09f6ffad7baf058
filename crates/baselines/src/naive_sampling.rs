//! Naive sampling: segment means perturbed directly with SW — the
//! "Sampling" arm of Figures 6–8, i.e. PP-S without the perturbation-
//! parameterization feedback.

use ldp_core::{Result, Sampling, SessionKind, StreamMechanism};
use rand::RngCore;

/// Sampling without deviation feedback.
#[derive(Debug, Clone)]
pub struct NaiveSampling {
    inner: Sampling,
}

impl NaiveSampling {
    /// Creates the baseline with window budget `epsilon`, window size `w`,
    /// and the same automatic segment-count optimizer the PP-S variants
    /// use (so the comparison isolates the feedback, not the sampling).
    ///
    /// # Errors
    /// Returns an error if `epsilon` is invalid or `w == 0`.
    pub fn new(epsilon: f64, w: usize) -> Result<Self> {
        Ok(Self {
            inner: Sampling::new(SessionKind::SwDirect, epsilon, w)?,
        })
    }

    /// Fixes the number of segments instead of optimizing it.
    #[must_use]
    pub fn with_sample_count(mut self, ns: usize) -> Self {
        self.inner = self.inner.with_sample_count(ns);
        self
    }
}

impl StreamMechanism for NaiveSampling {
    fn publish(&self, xs: &[f64], rng: &mut dyn RngCore) -> Vec<f64> {
        self.inner.publish(xs, rng)
    }

    fn name(&self) -> &'static str {
        "Sampling"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn output_is_segment_replicated() {
        let s = NaiveSampling::new(1.0, 10).unwrap().with_sample_count(4);
        let xs: Vec<f64> = (0..40).map(|i| i as f64 / 40.0).collect();
        let out = s.publish(&xs, &mut rng(1));
        assert_eq!(out.len(), 40);
        for chunk in out.chunks(10) {
            assert!(chunk.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn loses_to_app_sampling_for_mean_estimation() {
        // PP-S's feedback should beat naive sampling (Fig 6 ordering).
        let (eps, w, q) = (1.0, 20, 30);
        let xs: Vec<f64> = (0..q)
            .map(|i| 0.35 + 0.3 * (i as f64 / 5.0).sin())
            .collect();
        let truth = xs.iter().sum::<f64>() / q as f64;
        let naive = NaiveSampling::new(eps, w).unwrap();
        let apps = Sampling::new(SessionKind::App, eps, w).unwrap();
        let mut r = rng(2);
        let trials = 500;
        let (mut err_n, mut err_a) = (0.0, 0.0);
        for _ in 0..trials {
            let m_n = naive.publish(&xs, &mut r).iter().sum::<f64>() / q as f64;
            err_n += (m_n - truth).powi(2);
            let m_a = apps.publish(&xs, &mut r).iter().sum::<f64>() / q as f64;
            err_a += (m_a - truth).powi(2);
        }
        assert!(
            err_a < err_n * 1.1,
            "APP-S MSE {} should not lose to naive sampling {}",
            err_a / trials as f64,
            err_n / trials as f64
        );
    }
}
