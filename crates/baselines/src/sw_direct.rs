//! The naive baseline: Square Wave applied independently to every value.

use ldp_core::{Direct, Result, StreamMechanism};
use ldp_mechanisms::MechanismKind;
use rand::RngCore;

/// SW-direct: each slot perturbed with budget `ε/w`, no feedback, no
/// post-processing — the SW cell of [`ldp_core::Direct`].
#[derive(Debug, Clone, Copy)]
pub struct SwDirect {
    inner: Direct,
}

impl SwDirect {
    /// Creates SW-direct with window budget `epsilon` and window size `w`.
    ///
    /// # Errors
    /// Returns an error if `epsilon` is invalid or `w == 0`.
    pub fn new(epsilon: f64, w: usize) -> Result<Self> {
        Ok(Self {
            inner: Direct::of_mechanism(MechanismKind::SquareWave, epsilon, w)?,
        })
    }

    /// Per-slot privacy budget.
    #[must_use]
    pub fn slot_epsilon(&self) -> f64 {
        self.inner.slot_epsilon()
    }
}

impl StreamMechanism for SwDirect {
    fn publish(&self, xs: &[f64], rng: &mut dyn RngCore) -> Vec<f64> {
        self.inner.publish(xs, rng)
    }

    fn publish_into(&self, xs: &[f64], out: &mut Vec<f64>, rng: &mut dyn RngCore) {
        self.inner.publish_into(xs, out, rng);
    }

    fn name(&self) -> &'static str {
        "SW-direct"
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
    fn output_length_and_range() {
        let sw = SwDirect::new(1.0, 10).unwrap();
        let dom = SquareWave::new(0.1).unwrap().output_domain();
        let out = sw.publish(&vec![0.5; 100], &mut rng(1));
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|&y| dom.contains(y)));
    }

    #[test]
    fn rejects_zero_window() {
        let err = SwDirect::new(1.0, 0).unwrap_err();
        assert_eq!(err, MechanismError::InvalidWindow(0));
        assert!(err.to_string().contains("window size w"), "{err}");
    }

    #[test]
    fn slots_are_perturbed_independently() {
        // Unlike the PP family, the same RNG stream on a constant input
        // gives i.i.d. SW draws — their variance matches SW's closed form.
        let sw = SwDirect::new(20.0, 10).unwrap();
        let out = sw.publish(&vec![0.5; 50_000], &mut rng(2));
        let mean = out.iter().sum::<f64>() / out.len() as f64;
        let var = out.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / out.len() as f64;
        let expect = SquareWave::new(2.0).unwrap().output_variance(0.5);
        assert!((var - expect).abs() / expect < 0.05, "{var} vs {expect}");
    }
}
