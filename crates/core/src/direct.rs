//! The mechanism-direct publisher: the rule [`SessionKind::SwDirect`]
//! names, with no deviation feedback.
//!
//! Every value is perturbed on its own with budget `ε/w` and published as
//! is. Over SW this is the "SW-direct" arm of every figure
//! (`ldp_baselines::SwDirect`); over Laplace, SR and PM it is the
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

    /// Per-slot privacy budget.
    #[must_use]
    pub fn slot_epsilon(&self) -> f64 {
        self.kernel.backend().epsilon()
    }
}

impl StreamMechanism for Direct {
    fn publish(&self, xs: &[f64], rng: &mut dyn RngCore) -> Vec<f64> {
        let mut out = Vec::with_capacity(xs.len());
        self.publish_into(xs, &mut out, rng);
        out
    }

    /// Allocation-free override: no post-processing, so the kernel writes
    /// straight into the reused buffer.
    fn publish_into(&self, xs: &[f64], out: &mut Vec<f64>, rng: &mut dyn RngCore) {
        self.kernel.publish_into(xs, out, rng);
    }

    fn name(&self) -> &'static str {
        "direct"
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
    fn direct_length_matches() {
        let d = Direct::of_mechanism(MechanismKind::SquareWave, 1.0, 1).unwrap();
        assert_eq!(d.publish(&[0.5; 13], &mut rng(1)).len(), 13);
    }
}
