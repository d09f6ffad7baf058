//! Mechanism-generic perturbation backend for the feedback algorithms.
//!
//! The paper's feedback rules (IPP / APP / CAPP) operate on unit-scale
//! streams `x ∈ [0, 1]`, but the five LDP mechanisms disagree about
//! domains: SW takes `[0, 1]` natively, while SR / PM / Laplace / HM take
//! `[−1, 1]`. [`UnitBackend`] hides that difference behind one
//! allocation-free call, [`UnitBackend::report_unit`], so the publication
//! kernel `App` / `Capp` / `Ipp` / `OnlineSession` share runs its
//! deviation loop over *any* [`MechanismKind`].
//!
//! # Debiasing routes
//!
//! A feedback loop needs reports that are comparable to the input on the
//! unit scale — otherwise the deviation `x − x'` it feeds back is
//! systematically wrong. Two routes:
//!
//! * **Direct path (SR / PM / Laplace / HM).** The native report `y` is
//!   mapped through the inverse of the affine expectation map
//!   `E[y] = α·x + β` (coefficients read off [`Mechanism::expected_output`]
//!   at the domain endpoints), then affinely rescaled from the native
//!   input domain onto `[0, 1]`. These mechanisms are unbiased
//!   (`α = 1, β = 0`), so the inversion is the identity and the report is
//!   unbiased on the unit scale too — but the route is computed, not
//!   assumed, so a future biased mechanism is debiased automatically.
//! * **Estimator path (SW).** SW's bias is *not* inverted per report: the
//!   paper's algorithms deliberately feed the raw SW output back (the
//!   deviation telescopes the bias away) and reconstruct distributions
//!   downstream with [`ldp_mechanisms::sw_estimate`]. The backend pins
//!   `α = 1, β = 0` for SW, keeping every SW pipeline bit-identical to
//!   the pre-backend implementation.

use crate::Result;
use ldp_mechanisms::{AnyMechanism, Domain, Mechanism, MechanismKind};
use rand::RngCore;

/// A mechanism plus the affine maps that translate between the unit scale
/// `[0, 1]` and the mechanism's native input scale (see [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub struct UnitBackend {
    mech: AnyMechanism,
    /// Native input domain (`[0,1]` for SW, `[−1,1]` for the rest).
    input: Domain,
    /// `1/α` of the affine expectation map `E[y] = α·x + β` (1 for SW —
    /// estimator path — and for all unbiased mechanisms).
    inv_gain: f64,
    /// `β` of the expectation map (0 on both current routes).
    offset: f64,
}

impl UnitBackend {
    /// Builds a backend for `kind` at privacy budget `epsilon`.
    ///
    /// # Errors
    /// Returns an error unless `0 < ε < ∞`.
    pub fn new(kind: MechanismKind, epsilon: f64) -> Result<Self> {
        let mech = kind.build(epsilon)?;
        let input = mech.input_domain();
        let (gain, offset) = if kind == MechanismKind::SquareWave {
            // Estimator path: raw SW reports; bias handled by the feedback
            // loop and the sw_estimate reconstruction, never per report.
            (1.0, 0.0)
        } else {
            // Direct path: invert E[y] = α·x + β, read off the endpoints.
            let (lo, hi) = (input.lo(), input.hi());
            let a = (mech.expected_output(hi) - mech.expected_output(lo)) / (hi - lo);
            (a, mech.expected_output(lo) - a * lo)
        };
        Ok(Self {
            mech,
            input,
            inv_gain: 1.0 / gain,
            offset,
        })
    }

    /// The backend's mechanism kind.
    #[must_use]
    pub fn kind(&self) -> MechanismKind {
        self.mech.kind()
    }

    /// The privacy budget ε of the wrapped mechanism.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.mech.epsilon()
    }

    /// Perturbs a unit-scale value and returns the unit-scale report.
    ///
    /// `x01` is affinely mapped into the native input domain (and clamped
    /// there by the mechanism itself), perturbed, debiased per the routes
    /// above, and mapped back. No heap allocation. SW is unit-native on the
    /// estimator path (`α = 1, β = 0`), so both maps are the identity and
    /// are skipped: for SW this is exactly `sw.sample(x01, rng)`.
    ///
    /// Generic over the generator: a concrete RNG inlines into the caller;
    /// `&mut dyn RngCore` compiles to the same code behind virtual draws.
    /// The SW route — the paper's pipeline, and the one the fleet runs at
    /// scale — is always inlined, so a lane loop over it contains no call;
    /// the other four mechanisms share one out-of-line body.
    #[inline(always)]
    pub fn report_unit<R: RngCore + ?Sized>(&self, x01: f64, rng: &mut R) -> f64 {
        match &self.mech {
            AnyMechanism::Sw(sw) => sw.sample(x01, rng),
            _ => self.report_mapped(x01, rng),
        }
    }

    /// The direct path of [`Self::report_unit`]: both affine maps applied.
    fn report_mapped<R: RngCore + ?Sized>(&self, x01: f64, rng: &mut R) -> f64 {
        let y = self.mech.sample(self.input.denormalize(x01), rng);
        self.input.normalize((y - self.offset) * self.inv_gain)
    }

    /// Expected unit-scale report `E[report_unit(x01)]` (equals `x01` on
    /// the direct path; SW's affine contraction on the estimator path).
    #[must_use]
    pub fn expected_unit_report(&self, x01: f64) -> f64 {
        let e = self.mech.expected_output(self.input.denormalize(x01));
        self.input.normalize((e - self.offset) * self.inv_gain)
    }

    /// Variance of the unit-scale report at `x01`, from the mechanism's
    /// closed-form output variance rescaled onto the unit interval.
    #[must_use]
    pub fn unit_report_variance(&self, x01: f64) -> f64 {
        let native = self.mech.output_variance(self.input.denormalize(x01));
        let scale = self.inv_gain / self.input.width();
        native * scale * scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_mechanisms::SquareWave;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn sw_backend_is_bit_identical_to_raw_sw() {
        let backend = UnitBackend::new(MechanismKind::SquareWave, 0.4).unwrap();
        let sw = SquareWave::new(0.4).unwrap();
        let (mut r1, mut r2) = (rng(1), rng(1));
        for i in 0..500 {
            let x = (i % 101) as f64 / 100.0;
            assert_eq!(backend.report_unit(x, &mut r1), sw.perturb(x, &mut r2));
        }
    }

    #[test]
    fn direct_path_reports_are_unbiased_on_unit_scale() {
        for kind in MechanismKind::ALL {
            if !kind.is_unbiased() {
                continue;
            }
            let backend = UnitBackend::new(kind, 1.0).unwrap();
            for &x in &[0.0, 0.3, 0.5, 1.0] {
                assert!(
                    (backend.expected_unit_report(x) - x).abs() < 1e-12,
                    "{kind}: E[report_unit({x})] = {}",
                    backend.expected_unit_report(x)
                );
            }
            // Empirical spot check.
            let mut r = rng(7);
            let n = 120_000;
            let m: f64 = (0..n)
                .map(|_| backend.report_unit(0.7, &mut r))
                .sum::<f64>()
                / n as f64;
            assert!((m - 0.7).abs() < 0.05, "{kind}: empirical mean {m}");
        }
    }

    #[test]
    fn sw_estimator_path_keeps_sw_bias() {
        let backend = UnitBackend::new(MechanismKind::SquareWave, 0.5).unwrap();
        let sw = SquareWave::new(0.5).unwrap();
        assert_eq!(backend.expected_unit_report(1.0), sw.expected_output(1.0));
        assert!((backend.expected_unit_report(1.0) - 1.0).abs() > 1e-3);
    }

    #[test]
    fn unit_variance_rescales_symmetric_mechanisms_by_a_quarter() {
        let backend = UnitBackend::new(MechanismKind::Laplace, 2.0).unwrap();
        // Native scale = 2/ε = 1 ⇒ native var = 2; unit var = 2/4.
        assert!((backend.unit_report_variance(0.5) - 0.5).abs() < 1e-12);
        let sw = UnitBackend::new(MechanismKind::SquareWave, 2.0).unwrap();
        assert!(
            (sw.unit_report_variance(1.0) - SquareWave::new(2.0).unwrap().output_variance(1.0))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn rejects_invalid_budget_for_every_kind() {
        for kind in MechanismKind::ALL {
            assert!(UnitBackend::new(kind, f64::NAN).is_err());
        }
    }
}
