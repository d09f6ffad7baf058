//! The mechanism-direct publisher: the rule [`SessionKind::SwDirect`]
//! names, with no deviation feedback.
//!
//! Every value is perturbed on its own with budget `ε/w` and published as
//! is. Over SW ([`Direct::new`]) this is the "SW-direct" arm of every
//! figure; over Laplace, SR and PM it is the
//! "Mechanism-direct" comparator of Figure 9 (paper §IV-C). It runs the
//! same kernel as the feedback rules, so a direct arm and an APP arm over
//! one mechanism differ only in the feedback.

use crate::accountant::slot_budget;
use crate::kernel::Kernel;
use crate::online::{PipelineSpec, SessionKind};
use crate::publisher::StreamMechanism;
use crate::Result;
use ldp_mechanisms::MechanismKind;
use rand::RngCore;

/// Publishes each value independently through one mechanism.
#[derive(Debug, Clone, Copy)]
pub struct Direct {
    kernel: Kernel,
}

impl Direct {
    /// Creates SW-direct with total window budget `epsilon` and window
    /// size `w`: each slot perturbed by SW with budget `ε/w`.
    ///
    /// # Errors
    /// Returns an error if `epsilon` is invalid or `w == 0`.
    pub fn new(epsilon: f64, w: usize) -> Result<Self> {
        Self::of_mechanism(MechanismKind::SquareWave, epsilon, w)
    }

    /// Creates the direct publisher over `kind` with total window budget
    /// `epsilon` and window size `w` (per-slot budget `ε/w`).
    ///
    /// # Errors
    /// Returns an error if `epsilon` is invalid or `w == 0`.
    pub fn of_mechanism(kind: MechanismKind, epsilon: f64, w: usize) -> Result<Self> {
        let spec = PipelineSpec::new(SessionKind::SwDirect, kind);
        Ok(Self {
            kernel: Kernel::of_spec(spec, slot_budget(epsilon, w)?)?,
        })
    }
}

impl StreamMechanism for Direct {
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
    fn direct_length_matches() {
        let d = Direct::of_mechanism(MechanismKind::SquareWave, 1.0, 1).unwrap();
        assert_eq!(d.publish(&[0.5; 13], &mut rng(1)).len(), 13);
    }

    #[test]
    fn output_length_and_range() {
        let sw = Direct::new(1.0, 10).unwrap();
        let dom = SquareWave::new(0.1).unwrap().output_domain();
        let out = sw.publish(&vec![0.5; 100], &mut rng(1));
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|&y| dom.contains(y)));
    }

    #[test]
    fn rejects_zero_window() {
        let err = Direct::new(1.0, 0).unwrap_err();
        assert_eq!(err, MechanismError::InvalidWindow(0));
        assert!(err.to_string().contains("window size w"), "{err}");
    }

    #[test]
    fn slots_are_perturbed_independently() {
        // Unlike the PP family, the same RNG stream on a constant input
        // gives i.i.d. SW draws — their variance matches SW's closed form.
        let sw = Direct::new(20.0, 10).unwrap();
        let out = sw.publish(&vec![0.5; 50_000], &mut rng(2));
        let mean = out.iter().sum::<f64>() / out.len() as f64;
        let var = out.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / out.len() as f64;
        let expect = SquareWave::new(2.0).unwrap().output_variance(0.5);
        assert!((var - expect).abs() / expect < 0.05, "{var} vs {expect}");
    }
}
