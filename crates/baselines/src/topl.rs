//! ToPL (Wang et al., CCS 2021): threshold-optimized publication with the
//! Hybrid Mechanism.
//!
//! ToPL publishes a stream in two phases:
//!
//! 1. **Range estimation** — an initial prefix of the stream is collected
//!    with SW and the collector fits a clipping threshold θ that removes
//!    outliers (we use the EM-reconstructed distribution's upper quantile).
//! 2. **Value perturbation** — remaining values are clipped to `[0, θ]`,
//!    mapped onto `[−1, 1]`, and perturbed with the Hybrid Mechanism (an
//!    unbiased PM/SR mixture).
//!
//! Run at the w-event-comparable per-slot budget `ε/w` (as in the paper's
//! Table I), HM's output range `±C ≈ ±4w/ε` dwarfs SW's bounded
//! `(−1/2, 3/2)`, which is why the paper measures ToPL's MSE at 100×+ that
//! of the SW-based algorithms. Implementing it end-to-end reproduces that
//! gap mechanically rather than by assumption.

use ldp_core::{slot_budget, Result, StreamMechanism};
use ldp_mechanisms::sw_estimate::{estimate_distribution, EmConfig};
use ldp_mechanisms::{Hybrid, Mechanism, MechanismError, SquareWave};
use rand::RngCore;

/// Fraction of the stream used by the range-estimation phase.
const PHASE1_FRACTION: f64 = 0.2;
/// Upper quantile kept by the threshold fit.
const THRESHOLD_QUANTILE: f64 = 0.98;

/// The ToPL baseline.
#[derive(Debug, Clone, Copy)]
pub struct ToPL {
    slot_epsilon: f64,
}

impl ToPL {
    /// Creates ToPL with window budget `epsilon` and window size `w`
    /// (per-slot budget `ε/w`, the allocation used for Table I).
    ///
    /// # Errors
    /// Returns an error if `epsilon` is invalid or `w == 0`.
    pub fn new(epsilon: f64, w: usize) -> Result<Self> {
        Self::with_slot_budget(slot_budget(epsilon, w)?)
    }

    /// Creates ToPL spending exactly `slot_epsilon` per slot; an invalid
    /// budget is an error.
    fn with_slot_budget(slot_epsilon: f64) -> Result<Self> {
        if !(slot_epsilon.is_finite() && slot_epsilon > 0.0) {
            return Err(MechanismError::InvalidEpsilon(slot_epsilon));
        }
        Ok(Self { slot_epsilon })
    }

    /// Per-slot privacy budget.
    #[must_use]
    pub fn slot_epsilon(&self) -> f64 {
        self.slot_epsilon
    }

    /// Fits the clipping threshold θ from SW reports of the phase-1 prefix.
    fn fit_threshold(&self, reports: &[f64]) -> f64 {
        if reports.is_empty() {
            return 1.0;
        }
        let sw = SquareWave::new(self.slot_epsilon).expect("validated");
        let cfg = EmConfig {
            input_bins: 32,
            output_bins: 64,
            max_iters: 100,
            tolerance: 1e-6,
        };
        let hist = estimate_distribution(&sw, reports, &cfg);
        let mut cum = 0.0;
        for (i, &mass) in hist.iter().enumerate() {
            cum += mass;
            if cum >= THRESHOLD_QUANTILE {
                // Upper edge of bin i.
                return ((i + 1) as f64 / hist.len() as f64).max(1e-3);
            }
        }
        1.0
    }
}

impl StreamMechanism for ToPL {
    /// Phase 1's SW reports fill the head of `out`, θ is fitted over
    /// them, and phase 2's HM reports follow. The EM fit allocates its
    /// histograms on every call; the rest reuses `out`.
    fn publish_into(&self, xs: &[f64], out: &mut Vec<f64>, rng: &mut dyn RngCore) {
        out.clear();
        if xs.is_empty() {
            return;
        }
        let sw = SquareWave::new(self.slot_epsilon).expect("validated");
        let hm = Hybrid::new(self.slot_epsilon).expect("validated");

        let phase1_len = ((xs.len() as f64 * PHASE1_FRACTION).ceil() as usize).clamp(1, xs.len());
        out.reserve(xs.len());
        out.extend(xs[..phase1_len].iter().map(|&x| sw.perturb(x, rng)));
        let theta = self.fit_threshold(&out[..phase1_len]);

        for &x in &xs[phase1_len..] {
            // Clip to [0, θ], map onto [−1, 1], perturb, map back.
            let clipped = x.clamp(0.0, theta);
            let sym = 2.0 * clipped / theta - 1.0;
            let noisy = hm.perturb(sym, rng);
            out.push((noisy + 1.0) * theta / 2.0);
        }
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
    fn rejects_invalid_config() {
        assert_eq!(
            ToPL::new(1.0, 0).unwrap_err(),
            MechanismError::InvalidWindow(0)
        );
        assert!(ToPL::with_slot_budget(0.0).is_err());
    }

    #[test]
    fn output_length_matches_input() {
        let t = ToPL::new(1.0, 20).unwrap();
        assert_eq!(t.publish(&vec![0.5; 60], &mut rng(1)).len(), 60);
    }

    #[test]
    fn empty_stream_publishes_empty() {
        let t = ToPL::new(1.0, 20).unwrap();
        assert!(t.publish(&[], &mut rng(2)).is_empty());
    }

    #[test]
    fn hm_phase_produces_large_range_at_small_budget() {
        // ε/w = 0.05 ⇒ SR magnitude C = (e^ε+1)/(e^ε−1) ≈ 40; after the
        // affine map back to [0, θ] values still stray far outside [0, 1].
        let t = ToPL::new(1.0, 20).unwrap();
        let out = t.publish(&vec![0.5; 400], &mut rng(3));
        let max = out.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(max > 3.0, "expected far-out HM outputs, max {max}");
    }

    #[test]
    fn mse_is_orders_of_magnitude_worse_than_sw_direct() {
        // The Table I gap: ToPL ≫ SW-direct for mean estimation at ε/w ≤ 0.05.
        let (eps, w) = (1.0, 20);
        let xs: Vec<f64> = (0..w).map(|i| 0.4 + 0.01 * i as f64).collect();
        let truth = xs.iter().sum::<f64>() / xs.len() as f64;
        let topl = ToPL::new(eps, w).unwrap();
        let sw = ldp_core::Direct::new(eps, w).unwrap();
        let mut r = rng(4);
        let trials = 200;
        let (mut err_t, mut err_s) = (0.0, 0.0);
        for _ in 0..trials {
            let m_t = topl.publish(&xs, &mut r).iter().sum::<f64>() / w as f64;
            err_t += (m_t - truth).powi(2);
            let m_s = sw.publish(&xs, &mut r).iter().sum::<f64>() / w as f64;
            err_s += (m_s - truth).powi(2);
        }
        assert!(
            err_t > 20.0 * err_s,
            "ToPL MSE {} should dwarf SW-direct {}",
            err_t / trials as f64,
            err_s / trials as f64
        );
    }

    #[test]
    fn threshold_stays_in_unit_range() {
        let t = ToPL::new(2.0, 10).unwrap();
        let sw = SquareWave::new(0.2).unwrap();
        let mut r = rng(5);
        let reports: Vec<f64> = (0..500).map(|_| sw.perturb(0.3, &mut r)).collect();
        let theta = t.fit_threshold(&reports);
        assert!(theta > 0.0 && theta <= 1.0, "theta {theta}");
    }
}
