//! Iterative Perturbation Parameterization (IPP, paper §III-C).
//!
//! The strawman dual-utilization algorithm: at slot `t` the user perturbs
//! `clip(x_t + d_{t−1}, [0,1])` where `d_{t−1} = x_{t−1} − x'_{t−1}` is the
//! deviation of the *previous* report. Lemma III.1 shows this always
//! achieves lower mean deviation than perturbing `x_t` directly.

use crate::accountant::slot_budget;
use crate::kernel::Kernel;
use crate::online::{PipelineSpec, SessionKind};
use crate::publisher::StreamMechanism;
use crate::Result;
use ldp_mechanisms::MechanismKind;
use rand::RngCore;

/// The IPP algorithm over any LDP mechanism (SW by default).
#[derive(Debug, Clone, Copy)]
pub struct Ipp {
    kernel: Kernel,
}

impl Ipp {
    /// Creates IPP over SW with total window budget `epsilon` and window
    /// size `w`; each slot is perturbed with `ε/w` (w-event accounting,
    /// Theorem 3).
    ///
    /// # Errors
    /// Returns an error if `epsilon` is invalid or `w == 0`.
    pub fn new(epsilon: f64, w: usize) -> Result<Self> {
        Self::of_mechanism(MechanismKind::SquareWave, epsilon, w)
    }

    /// Creates IPP over an arbitrary perturbation mechanism.
    ///
    /// # Errors
    /// Returns an error if `epsilon` is invalid or `w == 0`.
    pub fn of_mechanism(kind: MechanismKind, epsilon: f64, w: usize) -> Result<Self> {
        let spec = PipelineSpec::new(SessionKind::Ipp, kind);
        Ok(Self {
            kernel: Kernel::of_spec(spec, slot_budget(epsilon, w)?)?,
        })
    }
}

impl StreamMechanism for Ipp {
    fn publish_into(&self, xs: &[f64], out: &mut Vec<f64>, rng: &mut dyn RngCore) {
        self.kernel.publish_into(xs, out, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_mechanisms::{Mechanism, MechanismError, SquareWave};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn rejects_zero_window() {
        let err = Ipp::new(1.0, 0).unwrap_err();
        assert_eq!(err, MechanismError::InvalidWindow(0));
        assert!(err.to_string().contains("window size w"), "{err}");
    }

    #[test]
    fn slot_budget_is_total_over_w() {
        assert!((slot_budget(3.0, 10).unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn output_length_matches_input() {
        let ipp = Ipp::new(2.0, 5).unwrap();
        let xs = vec![0.5; 37];
        assert_eq!(ipp.publish(&xs, &mut rng(1)).len(), 37);
    }

    #[test]
    fn outputs_lie_in_sw_output_domain() {
        let ipp = Ipp::new(1.0, 10).unwrap();
        let dom = SquareWave::new(slot_budget(1.0, 10).unwrap())
            .unwrap()
            .output_domain();
        let xs: Vec<f64> = (0..200).map(|i| (i % 10) as f64 / 10.0).collect();
        for y in ipp.publish(&xs, &mut rng(2)) {
            assert!(dom.contains(y));
        }
    }

    #[test]
    fn empty_stream_publishes_empty() {
        let ipp = Ipp::new(1.0, 5).unwrap();
        assert!(ipp.publish(&[], &mut rng(3)).is_empty());
    }

    #[test]
    fn mean_estimation_beats_direct_sw_on_average() {
        // Lemma III.1: IPP's mean deviation is below direct SW's.
        let eps = 1.0;
        let w = 20;
        let xs: Vec<f64> = (0..w)
            .map(|i| 0.3 + 0.4 * (i as f64 / 5.0).sin().abs())
            .collect();
        let truth = xs.iter().sum::<f64>() / xs.len() as f64;
        let ipp = Ipp::new(eps, w).unwrap();
        let sw = SquareWave::new(eps / w as f64).unwrap();
        let mut r = rng(4);
        let trials = 400;
        let (mut err_ipp, mut err_sw) = (0.0, 0.0);
        for _ in 0..trials {
            let pub_ipp = ipp.publish(&xs, &mut r);
            let m_ipp = pub_ipp.iter().sum::<f64>() / w as f64;
            err_ipp += (m_ipp - truth).powi(2);
            let pub_sw: Vec<f64> = xs.iter().map(|&x| sw.perturb(x, &mut r)).collect();
            let m_sw = pub_sw.iter().sum::<f64>() / w as f64;
            err_sw += (m_sw - truth).powi(2);
        }
        assert!(
            err_ipp < err_sw,
            "IPP MSE {} should beat SW-direct {}",
            err_ipp / trials as f64,
            err_sw / trials as f64
        );
    }

    #[test]
    fn deviation_feedback_changes_inputs() {
        // With feedback, successive perturbations are correlated with past
        // outputs; verify the published stream is not identical to a direct
        // SW run with the same RNG stream (sanity that feedback is active).
        let ipp = Ipp::new(1.0, 4).unwrap();
        let sw = SquareWave::new(0.25).unwrap();
        let xs = vec![0.5; 50];
        let a = ipp.publish(&xs, &mut rng(7));
        let b: Vec<f64> = {
            let mut r = rng(7);
            xs.iter().map(|&x| sw.perturb(x, &mut r)).collect()
        };
        assert_ne!(a, b);
    }
}
