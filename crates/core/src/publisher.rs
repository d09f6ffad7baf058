//! The common interface of every stream publication algorithm.

use rand::RngCore;

/// A mechanism that privately publishes an entire stream (or subsequence).
///
/// Implementors are the paper's algorithms ([`crate::Ipp`],
/// [`crate::App`], [`crate::Capp`], [`crate::Sampling`]), the
/// mechanism-direct comparator [`crate::Direct`] (SW-direct over SW) and
/// the baselines in `ldp-baselines` (BA-SW, ToPL). The naive "Sampling"
/// arm is [`crate::Sampling`] over [`crate::SessionKind::SwDirect`].
/// Publishers carry no name; reports label their arms. The output always
/// has the same length as the input so the collector can compute
/// subsequence statistics slot by slot.
pub trait StreamMechanism {
    /// Publishes a private version of the stream `xs`.
    fn publish(&self, xs: &[f64], rng: &mut dyn RngCore) -> Vec<f64>;

    /// Publishes into a caller-owned buffer, so trial loops and fleet
    /// drivers don't allocate a fresh `Vec` per call.
    ///
    /// The default moves [`Self::publish`]'s result into `out` (no copy,
    /// but the old buffer is dropped); algorithms without post-processing
    /// (IPP, the direct publishers, BA-SW) override it to write straight
    /// into `out`, genuinely reusing its capacity.
    fn publish_into(&self, xs: &[f64], out: &mut Vec<f64>, rng: &mut dyn RngCore) {
        *out = self.publish(xs, rng);
    }

    /// Convenience: the mean of the published stream, the collector-side
    /// estimator `M̂(i,j)` from the paper's problem definition.
    fn estimate_mean(&self, xs: &[f64], rng: &mut dyn RngCore) -> f64 {
        let out = self.publish(xs, rng);
        if out.is_empty() {
            return 0.0;
        }
        out.iter().sum::<f64>() / out.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A no-noise identity publisher used to pin trait defaults.
    struct Identity;

    impl StreamMechanism for Identity {
        fn publish(&self, xs: &[f64], _rng: &mut dyn RngCore) -> Vec<f64> {
            xs.to_vec()
        }
    }

    #[test]
    fn estimate_mean_defaults_to_published_mean() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let m = Identity.estimate_mean(&[0.2, 0.4, 0.6], &mut rng);
        assert!((m - 0.4).abs() < 1e-12);
    }

    #[test]
    fn estimate_mean_of_empty_is_zero() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert_eq!(Identity.estimate_mean(&[], &mut rng), 0.0);
    }

    #[test]
    fn publish_into_default_clears_and_fills_the_buffer() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut buf = vec![7.0; 10];
        Identity.publish_into(&[0.1, 0.2], &mut buf, &mut rng);
        assert_eq!(buf, vec![0.1, 0.2]);
    }
}
