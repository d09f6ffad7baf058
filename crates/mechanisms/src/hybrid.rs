//! The Hybrid Mechanism (HM) of Wang et al. (ICDE 2019).
//!
//! HM flips an ε-dependent coin and applies either the Piecewise Mechanism
//! or Duchi et al.'s SR: for ε > 0.61 it uses PM with probability
//! `α = 1 − e^{−ε/2}`, otherwise it always uses SR. Both branches receive
//! the full budget, so the mixture still satisfies ε-LDP (each branch does,
//! and the coin is input-independent).
//!
//! HM is the perturbation primitive of the ToPL baseline; its output range
//! is PM's `[−C, C]`, which at tiny per-slot budgets dwarfs SW's bounded
//! `(−1/2, 3/2)` — the source of ToPL's large Table I errors.

use crate::domain::Domain;
use crate::error::MechanismError;
use crate::piecewise::Piecewise;
use crate::sr::StochasticRounding;
use crate::traits::Mechanism;
use rand::{Rng, RngCore};

/// Budget threshold above which HM mixes in the Piecewise Mechanism.
pub const PM_THRESHOLD: f64 = 0.61;

/// The Hybrid Mechanism on `[−1, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct Hybrid {
    epsilon: f64,
    alpha: f64,
    pm: Piecewise,
    sr: StochasticRounding,
}

impl Hybrid {
    /// Creates an HM instance with budget `epsilon`.
    ///
    /// # Errors
    /// Returns [`MechanismError::InvalidEpsilon`] unless `0 < ε < ∞`.
    pub fn new(epsilon: f64) -> Result<Self, MechanismError> {
        let pm = Piecewise::new(epsilon)?;
        let sr = StochasticRounding::new(epsilon)?;
        let alpha = if epsilon > PM_THRESHOLD {
            1.0 - (-epsilon / 2.0).exp()
        } else {
            0.0
        };
        Ok(Self {
            epsilon,
            alpha,
            pm,
            sr,
        })
    }

    /// Probability of routing a value through PM.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Draws one report for input `v` (clamped to `[−1, 1]`): flips the
    /// α-coin (skipped below the PM threshold, where `α = 0`) and samples
    /// the chosen branch. The sampler behind [`Mechanism::perturb`],
    /// generic so a concrete RNG inlines.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, v: f64, rng: &mut R) -> f64 {
        if self.alpha > 0.0 && rng.gen::<f64>() < self.alpha {
            self.pm.sample(v, rng)
        } else {
            self.sr.sample(v, rng)
        }
    }

    /// Output variance for (clamped) input `v`. Both branches are unbiased
    /// with mean `v`, so the mixture variance is the mixture of the branch
    /// variances: `α·Var_PM + (1−α)·Var_SR`.
    #[must_use]
    pub fn output_variance(&self, v: f64) -> f64 {
        self.alpha * self.pm.output_variance(v) + (1.0 - self.alpha) * self.sr.output_variance(v)
    }
}

impl Mechanism for Hybrid {
    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn input_domain(&self) -> Domain {
        Domain::SYMMETRIC
    }

    fn output_domain(&self) -> Domain {
        // PM's range contains SR's (C_pm ≥ C_sr for all ε).
        let c = self.pm.c().max(self.sr.c());
        Domain::new(-c, c).expect("C > 0")
    }

    fn perturb(&self, v: f64, rng: &mut dyn RngCore) -> f64 {
        self.sample(v, rng)
    }

    /// Mixture density; at SR's two atoms this is dominated by the discrete
    /// mass so we report the mixture mass there (the PM density contributes
    /// zero probability at single points).
    fn density(&self, x: f64, y: f64) -> f64 {
        let sr_part = self.sr.density(x, y);
        if sr_part > 0.0 {
            (1.0 - self.alpha) * sr_part
        } else {
            self.alpha * self.pm.density(x, y)
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
    fn alpha_is_zero_below_threshold() {
        let hm = Hybrid::new(0.5).unwrap();
        assert_eq!(hm.alpha(), 0.0);
    }

    #[test]
    fn alpha_positive_above_threshold() {
        let hm = Hybrid::new(1.0).unwrap();
        assert!((hm.alpha() - (1.0 - (-0.5f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn small_budget_behaves_exactly_like_sr() {
        let eps = 0.3;
        let hm = Hybrid::new(eps).unwrap();
        let sr = StochasticRounding::new(eps).unwrap();
        let mut r1 = rng(8);
        for _ in 0..100 {
            let y = hm.perturb(0.4, &mut r1);
            assert!(y == sr.c() || y == -sr.c());
        }
    }

    #[test]
    fn unbiased_over_many_samples() {
        let hm = Hybrid::new(1.5).unwrap();
        let mut r = rng(10);
        for &x in &[-0.8, 0.0, 0.6] {
            let n = 300_000;
            let m: f64 = (0..n).map(|_| hm.perturb(x, &mut r)).sum::<f64>() / n as f64;
            assert!((m - x).abs() < 0.05, "x={x}: mean {m}");
        }
    }

    #[test]
    fn outputs_stay_in_output_domain() {
        let hm = Hybrid::new(2.0).unwrap();
        let dom = hm.output_domain();
        let mut r = rng(12);
        for i in 0..1000 {
            let v = -1.0 + 2.0 * (i % 101) as f64 / 100.0;
            assert!(dom.contains(hm.perturb(v, &mut r)));
        }
    }

    #[test]
    fn mixture_density_ratio_respects_ldp_bound() {
        let eps = 1.4;
        let hm = Hybrid::new(eps).unwrap();
        let bound = eps.exp() * (1.0 + 1e-9);
        let c = hm.output_domain().hi();
        let sr_c = StochasticRounding::new(eps).unwrap().c();
        let mut ys: Vec<f64> = (0..=50).map(|k| -c + k as f64 * 2.0 * c / 50.0).collect();
        ys.push(sr_c);
        ys.push(-sr_c);
        for i in 0..=8 {
            for j in 0..=8 {
                let x1 = -1.0 + 0.25 * i as f64;
                let x2 = -1.0 + 0.25 * j as f64;
                for &y in &ys {
                    let f2 = hm.density(x2, y);
                    if f2 > 0.0 {
                        let ratio = hm.density(x1, y) / f2;
                        assert!(ratio <= bound, "ratio {ratio} at ({x1},{x2},{y})");
                    }
                }
            }
        }
    }
}
