//! Stochastic Rounding (SR) — Duchi et al.'s two-point mechanism.
//!
//! Inputs live in `[−1, 1]`; the output is one of exactly two values `±C`
//! with `C = (e^ε + 1)/(e^ε − 1)`, chosen so the mechanism is unbiased:
//!
//! `P[A(v) = +C] = 1/2 + v/(2C)`.
//!
//! Because the output alphabet has only two symbols, SR discards nearly all
//! temporal detail of a stream — the paper's Figure 9 shows it trailing SW
//! for publication even though its mean estimates are unbiased.

use crate::domain::Domain;
use crate::error::{check_epsilon, MechanismError};
use crate::traits::Mechanism;
use rand::{Rng, RngCore};

/// Duchi et al.'s binary mechanism on `[−1, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct StochasticRounding {
    epsilon: f64,
    c: f64,
}

impl StochasticRounding {
    /// Creates an SR mechanism with budget `epsilon`.
    ///
    /// # Errors
    /// Returns [`MechanismError::InvalidEpsilon`] unless `0 < ε < ∞`.
    pub fn new(epsilon: f64) -> Result<Self, MechanismError> {
        check_epsilon(epsilon)?;
        let e = epsilon.exp();
        Ok(Self {
            epsilon,
            c: (e + 1.0) / (e - 1.0),
        })
    }

    /// The output magnitude `C`.
    #[must_use]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Probability of emitting `+C` for (clamped) input `v`.
    #[must_use]
    pub fn prob_positive(&self, v: f64) -> f64 {
        let v = Domain::SYMMETRIC.clip(v);
        0.5 + v / (2.0 * self.c)
    }

    /// Draws one report for input `v` (clamped to `[−1, 1]`): `+C` with
    /// probability [`Self::prob_positive`], else `−C`. The sampler behind
    /// [`Mechanism::perturb`], generic so a concrete RNG inlines.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, v: f64, rng: &mut R) -> f64 {
        if rng.gen::<f64>() < self.prob_positive(v) {
            self.c
        } else {
            -self.c
        }
    }

    /// Output variance for (clamped) input `v`: since the output is `±C`
    /// with mean `v`, `Var[A(v)] = C² − v²`.
    #[must_use]
    pub fn output_variance(&self, v: f64) -> f64 {
        let v = Domain::SYMMETRIC.clip(v);
        self.c * self.c - v * v
    }
}

impl Mechanism for StochasticRounding {
    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn input_domain(&self) -> Domain {
        Domain::SYMMETRIC
    }

    fn output_domain(&self) -> Domain {
        Domain::new(-self.c, self.c).expect("C > 0")
    }

    fn perturb(&self, v: f64, rng: &mut dyn RngCore) -> f64 {
        self.sample(v, rng)
    }

    /// Probability *mass* of the two-point output (not a density).
    fn density(&self, x: f64, y: f64) -> f64 {
        let pp = self.prob_positive(x);
        if y == self.c {
            pp
        } else if y == -self.c {
            1.0 - pp
        } else {
            0.0
        }
    }

    fn expected_output(&self, x: f64) -> f64 {
        Domain::SYMMETRIC.clip(x)
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
    fn rejects_invalid_epsilon() {
        assert!(StochasticRounding::new(-0.1).is_err());
    }

    #[test]
    fn outputs_are_exactly_plus_minus_c() {
        let sr = StochasticRounding::new(1.0).unwrap();
        let mut r = rng(2);
        for _ in 0..200 {
            let y = sr.perturb(0.3, &mut r);
            assert!(y == sr.c() || y == -sr.c());
        }
    }

    #[test]
    fn unbiased_over_many_samples() {
        let sr = StochasticRounding::new(1.0).unwrap();
        let mut r = rng(3);
        for &x in &[-1.0, -0.4, 0.0, 0.7, 1.0] {
            let n = 300_000;
            let m: f64 = (0..n).map(|_| sr.perturb(x, &mut r)).sum::<f64>() / n as f64;
            assert!((m - x).abs() < 0.02, "x={x}: mean {m}");
        }
    }

    #[test]
    fn probability_stays_in_unit_interval() {
        let sr = StochasticRounding::new(0.1).unwrap();
        for i in 0..=20 {
            let v = -1.0 + 0.1 * i as f64;
            let p = sr.prob_positive(v);
            assert!((0.0..=1.0).contains(&p), "p={p} at v={v}");
        }
    }

    #[test]
    fn mass_ratio_equals_e_epsilon_at_extremes() {
        let eps = 1.7;
        let sr = StochasticRounding::new(eps).unwrap();
        let ratio = sr.prob_positive(1.0) / sr.prob_positive(-1.0);
        assert!((ratio - eps.exp()).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn mass_ratio_respects_ldp_bound_everywhere() {
        let eps = 0.6;
        let sr = StochasticRounding::new(eps).unwrap();
        let bound = eps.exp() * (1.0 + 1e-12);
        for i in 0..=40 {
            for j in 0..=40 {
                let x1 = -1.0 + i as f64 / 20.0;
                let x2 = -1.0 + j as f64 / 20.0;
                for &y in &[sr.c(), -sr.c()] {
                    let r = sr.density(x1, y) / sr.density(x2, y);
                    assert!(r <= bound, "ratio {r}");
                }
            }
        }
    }

    #[test]
    fn c_grows_as_epsilon_shrinks() {
        let c_small = StochasticRounding::new(0.1).unwrap().c();
        let c_large = StochasticRounding::new(3.0).unwrap().c();
        assert!(c_small > c_large);
        assert!(c_large > 1.0);
    }
}
