//! The Laplace mechanism adapted to the local model.
//!
//! Inputs live in `[−1, 1]` (sensitivity 2), outputs on the whole real line:
//! `A(v) = v + Lap(2/ε)`. The unbounded output range is exactly why the
//! paper finds Laplace inferior to SW for stream publication at small ε —
//! perturbed values fall far outside `[−1, 1]` and clipping back discards
//! most of the signal.

use crate::domain::Domain;
use crate::error::{check_epsilon, MechanismError};
use crate::traits::Mechanism;
use rand::{Rng, RngCore};

/// Additive Laplace noise mechanism on `[−1, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct Laplace {
    epsilon: f64,
    scale: f64,
    input: Domain,
}

impl Laplace {
    /// Creates a Laplace mechanism with budget `epsilon` on `[−1, 1]`.
    ///
    /// # Errors
    /// Returns [`MechanismError::InvalidEpsilon`] unless `0 < ε < ∞`.
    pub fn new(epsilon: f64) -> Result<Self, MechanismError> {
        Self::with_domain(epsilon, Domain::SYMMETRIC)
    }

    /// Creates a Laplace mechanism on an arbitrary bounded input domain;
    /// the noise scale is `width(domain)/ε`.
    ///
    /// # Errors
    /// Returns an error for an invalid budget or unbounded domain.
    pub fn with_domain(epsilon: f64, input: Domain) -> Result<Self, MechanismError> {
        check_epsilon(epsilon)?;
        if !input.width().is_finite() {
            return Err(MechanismError::InvalidDomain {
                lo: input.lo(),
                hi: input.hi(),
            });
        }
        Ok(Self {
            epsilon,
            scale: input.width() / epsilon,
            input,
        })
    }

    /// The noise scale `Δ/ε`.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Output variance (input-independent): `Var[A(v)] = 2·scale²`.
    #[must_use]
    pub fn output_variance(&self) -> f64 {
        2.0 * self.scale * self.scale
    }

    /// Draws one report for input `v` (clamped to the input domain): `v`
    /// plus one `Lap(0, scale)` sample via inverse CDF. The sampler behind
    /// [`Mechanism::perturb`], generic so a concrete RNG inlines.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, v: f64, rng: &mut R) -> f64 {
        // u uniform in (−1/2, 1/2]; noise = −scale·sgn(u)·ln(1 − 2|u|)
        let u: f64 = rng.gen::<f64>() - 0.5;
        let noise = -self.scale * u.signum() * (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE).ln();
        self.input.clip(v) + noise
    }
}

impl Mechanism for Laplace {
    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn input_domain(&self) -> Domain {
        self.input
    }

    fn output_domain(&self) -> Domain {
        Domain::REAL
    }

    fn perturb(&self, v: f64, rng: &mut dyn RngCore) -> f64 {
        self.sample(v, rng)
    }

    fn density(&self, x: f64, y: f64) -> f64 {
        let x = self.input.clip(x);
        (-(y - x).abs() / self.scale).exp() / (2.0 * self.scale)
    }

    fn expected_output(&self, x: f64) -> f64 {
        self.input.clip(x)
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
    fn rejects_invalid_parameters() {
        assert!(Laplace::new(0.0).is_err());
        assert!(Laplace::with_domain(1.0, Domain::REAL).is_err());
    }

    #[test]
    fn scale_is_sensitivity_over_epsilon() {
        let lap = Laplace::new(2.0).unwrap();
        assert!((lap.scale() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unbiased_over_many_samples() {
        let lap = Laplace::new(1.0).unwrap();
        let mut r = rng(11);
        for &x in &[-1.0, -0.2, 0.5, 1.0] {
            let n = 200_000;
            let m: f64 = (0..n).map(|_| lap.perturb(x, &mut r)).sum::<f64>() / n as f64;
            assert!((m - x).abs() < 0.03, "x={x}: mean {m}");
        }
    }

    #[test]
    fn empirical_variance_matches_2_scale_squared() {
        let lap = Laplace::new(1.0).unwrap();
        let mut r = rng(13);
        let n = 300_000;
        let xs: Vec<f64> = (0..n).map(|_| lap.perturb(0.0, &mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        let expect = 2.0 * lap.scale() * lap.scale();
        assert!((var - expect).abs() / expect < 0.05, "{var} vs {expect}");
    }

    #[test]
    fn density_integrates_to_one() {
        let lap = Laplace::new(0.8).unwrap();
        // numeric trapezoid over a wide range
        let (lo, hi, n) = (-60.0, 60.0, 400_000);
        let h = (hi - lo) / n as f64;
        let total: f64 = (0..=n)
            .map(|i| {
                let y = lo + i as f64 * h;
                let w = if i == 0 || i == n { 0.5 } else { 1.0 };
                w * lap.density(0.3, y)
            })
            .sum::<f64>()
            * h;
        assert!((total - 1.0).abs() < 1e-3, "integral {total}");
    }

    #[test]
    fn density_ratio_respects_ldp_bound() {
        let eps = 0.9;
        let lap = Laplace::new(eps).unwrap();
        let bound = eps.exp() * (1.0 + 1e-9);
        for i in 0..=10 {
            for j in 0..=10 {
                let x1 = -1.0 + 0.2 * i as f64;
                let x2 = -1.0 + 0.2 * j as f64;
                for k in -50..=50 {
                    let y = k as f64 / 10.0;
                    let ratio = lap.density(x1, y) / lap.density(x2, y);
                    assert!(ratio <= bound, "ratio {ratio} at x1={x1} x2={x2} y={y}");
                }
            }
        }
    }
}
