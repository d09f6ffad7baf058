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
///
/// [`Self::publish_into`] is the one method an implementation writes;
/// every publisher fills the caller's buffer and, once that buffer has
/// warmed up, allocates nothing (ToPL's EM threshold fit excepted).
pub trait StreamMechanism {
    /// Publishes a private version of the stream `xs` into `out` (cleared
    /// first; its capacity is reused), so trial loops and fleet drivers
    /// don't allocate per call.
    fn publish_into(&self, xs: &[f64], out: &mut Vec<f64>, rng: &mut dyn RngCore);

    /// Convenience: [`Self::publish_into`] into a fresh `Vec`.
    fn publish(&self, xs: &[f64], rng: &mut dyn RngCore) -> Vec<f64> {
        let mut out = Vec::new();
        self.publish_into(xs, &mut out, rng);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A no-noise identity publisher used to pin the provided method.
    struct Identity;

    impl StreamMechanism for Identity {
        fn publish_into(&self, xs: &[f64], out: &mut Vec<f64>, _rng: &mut dyn RngCore) {
            out.clear();
            out.extend_from_slice(xs);
        }
    }

    #[test]
    fn publish_is_publish_into_a_fresh_buffer() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert_eq!(Identity.publish(&[0.1, 0.2], &mut rng), vec![0.1, 0.2]);
        assert!(Identity.publish(&[], &mut rng).is_empty());
    }
}
