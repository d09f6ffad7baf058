//! The Piecewise Mechanism (PM) of Wang et al. (ICDE 2019).
//!
//! Inputs live in `[−1, 1]`; outputs in `[−C, C]` with
//! `C = (e^{ε/2} + 1)/(e^{ε/2} − 1)`. The output density is a high plateau
//! `p` on a length-`(C−1)` window `[ℓ(v), r(v)]` centred (affinely) on the
//! input, and `p/e^ε` elsewhere:
//!
//! ```text
//! ℓ(v) = (C+1)/2·v − (C−1)/2,   r(v) = ℓ(v) + C − 1,
//! p    = (e^ε − e^{ε/2}) / (2e^{ε/2} + 2).
//! ```
//!
//! PM is unbiased, but its output range `C` explodes as ε shrinks
//! (`C ≈ 4/ε`), e.g. ε = 0.01 gives outputs in roughly `[−400, 400]` — the
//! behaviour the paper cites when explaining why SW wins at small budgets.

use crate::domain::Domain;
use crate::error::{check_epsilon, MechanismError};
use crate::traits::Mechanism;
use rand::{Rng, RngCore};

/// The Piecewise Mechanism on `[−1, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct Piecewise {
    epsilon: f64,
    c: f64,
    p_high: f64,
}

impl Piecewise {
    /// Creates a PM instance with budget `epsilon`.
    ///
    /// # Errors
    /// Returns [`MechanismError::InvalidEpsilon`] unless `0 < ε < ∞`.
    pub fn new(epsilon: f64) -> Result<Self, MechanismError> {
        check_epsilon(epsilon)?;
        let eh = (epsilon / 2.0).exp();
        let c = (eh + 1.0) / (eh - 1.0);
        let p_high = (epsilon.exp() - eh) / (2.0 * eh + 2.0);
        Ok(Self { epsilon, c, p_high })
    }

    /// Output range bound `C`.
    #[must_use]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Plateau density `p`.
    #[must_use]
    pub fn p_high(&self) -> f64 {
        self.p_high
    }

    /// Plateau interval `[ℓ(v), r(v)]` for (clamped) input `v`.
    #[must_use]
    pub fn plateau(&self, v: f64) -> (f64, f64) {
        let v = Domain::SYMMETRIC.clip(v);
        let l = (self.c + 1.0) / 2.0 * v - (self.c - 1.0) / 2.0;
        (l, l + self.c - 1.0)
    }

    /// Draws one report for input `v` (clamped to `[−1, 1]`). The sampler
    /// behind [`Mechanism::perturb`], generic so a concrete RNG inlines.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, v: f64, rng: &mut R) -> f64 {
        let (l, r) = self.plateau(v);
        // Mass on the plateau: p·(C−1) = e^{ε/2}/(e^{ε/2}+1).
        let plateau_mass = self.p_high * (self.c - 1.0);
        if rng.gen::<f64>() < plateau_mass {
            l + (r - l) * rng.gen::<f64>()
        } else {
            // Uniform over [−C, ℓ) ∪ (r, C], total width C + 1.
            let left = l + self.c; // width of the left tail
            let total = self.c + 1.0;
            let u = rng.gen::<f64>() * total;
            if u < left {
                -self.c + u
            } else {
                r + (u - left)
            }
        }
    }

    /// Output variance for (clamped) input `v` (Wang et al. ICDE 2019):
    /// `Var[A(v)] = v²/(e^{ε/2} − 1) + (e^{ε/2} + 3)/(3(e^{ε/2} − 1)²)`.
    #[must_use]
    pub fn output_variance(&self, v: f64) -> f64 {
        let v = Domain::SYMMETRIC.clip(v);
        let eh = (self.epsilon / 2.0).exp();
        v * v / (eh - 1.0) + (eh + 3.0) / (3.0 * (eh - 1.0) * (eh - 1.0))
    }
}

impl Mechanism for Piecewise {
    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn input_domain(&self) -> Domain {
        Domain::SYMMETRIC
    }

    fn output_domain(&self) -> Domain {
        Domain::new(-self.c, self.c).expect("C > 1")
    }

    fn perturb(&self, v: f64, rng: &mut dyn RngCore) -> f64 {
        self.sample(v, rng)
    }

    fn density(&self, x: f64, y: f64) -> f64 {
        if y < -self.c || y > self.c {
            return 0.0;
        }
        let (l, r) = self.plateau(x);
        if y >= l && y <= r {
            self.p_high
        } else {
            self.p_high / self.epsilon.exp()
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
        assert!(Piecewise::new(0.0).is_err());
    }

    #[test]
    fn density_integrates_to_one() {
        for &eps in &[0.5, 1.0, 2.0] {
            let pm = Piecewise::new(eps).unwrap();
            // plateau mass + tail mass must be 1
            let plateau = pm.p_high() * (pm.c() - 1.0);
            let tails = pm.p_high() / eps.exp() * (pm.c() + 1.0);
            assert!(
                (plateau + tails - 1.0).abs() < 1e-12,
                "eps={eps}: total {}",
                plateau + tails
            );
        }
    }

    #[test]
    fn outputs_stay_in_range() {
        let pm = Piecewise::new(1.0).unwrap();
        let mut r = rng(4);
        for i in 0..2000 {
            let v = -1.0 + 2.0 * (i % 101) as f64 / 100.0;
            let y = pm.perturb(v, &mut r);
            assert!(y.abs() <= pm.c() + 1e-12);
        }
    }

    #[test]
    fn unbiased_over_many_samples() {
        let pm = Piecewise::new(1.2).unwrap();
        let mut r = rng(6);
        for &x in &[-0.9, 0.0, 0.5, 1.0] {
            let n = 300_000;
            let m: f64 = (0..n).map(|_| pm.perturb(x, &mut r)).sum::<f64>() / n as f64;
            assert!((m - x).abs() < 0.05, "x={x}: mean {m}");
        }
    }

    #[test]
    fn range_explodes_for_tiny_epsilon() {
        // The paper quotes outputs near ±400 for ε = 0.01.
        let pm = Piecewise::new(0.01).unwrap();
        assert!(pm.c() > 350.0 && pm.c() < 450.0, "C = {}", pm.c());
    }

    #[test]
    fn density_ratio_respects_ldp_bound() {
        let eps = 1.1;
        let pm = Piecewise::new(eps).unwrap();
        let bound = eps.exp() * (1.0 + 1e-9);
        for i in 0..=10 {
            for j in 0..=10 {
                let x1 = -1.0 + 0.2 * i as f64;
                let x2 = -1.0 + 0.2 * j as f64;
                for k in 0..=80 {
                    let y = -pm.c() + k as f64 * 2.0 * pm.c() / 80.0;
                    let f2 = pm.density(x2, y);
                    if f2 > 0.0 {
                        let ratio = pm.density(x1, y) / f2;
                        assert!(ratio <= bound, "ratio {ratio}");
                    }
                }
            }
        }
    }

    #[test]
    fn plateau_is_inside_output_range() {
        let pm = Piecewise::new(0.7).unwrap();
        for &v in &[-1.0, 0.0, 1.0] {
            let (l, r) = pm.plateau(v);
            assert!(l >= -pm.c() - 1e-12 && r <= pm.c() + 1e-12);
            assert!((r - l) - (pm.c() - 1.0) < 1e-12);
        }
    }
}
