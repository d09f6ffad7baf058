//! The common interface implemented by every numeric LDP mechanism.

use crate::domain::Domain;
use rand::RngCore;

/// A randomized mechanism `A` satisfying ε-LDP: for any inputs `x, x'` in
/// the input domain and any output `y`, `f(y|x) ≤ e^ε · f(y|x')`, where `f`
/// is the output density (or probability mass, for discrete mechanisms).
///
/// Implementations clamp out-of-domain inputs to the input domain before
/// perturbing — this matches the paper's algorithms, which always clip
/// deviation-adjusted inputs, and keeps the privacy guarantee intact
/// (clipping is a deterministic pre-processing step).
pub trait Mechanism {
    /// The privacy budget ε this instance was constructed with.
    fn epsilon(&self) -> f64;

    /// Domain that inputs are clamped into.
    fn input_domain(&self) -> Domain;

    /// Domain the perturbed outputs live in.
    fn output_domain(&self) -> Domain;

    /// Perturbs a single value. Every mechanism in this crate implements
    /// it as a call to its inherent, RNG-generic `sample` (the trait stays
    /// object-safe; callers holding a concrete generator call `sample`
    /// directly and get it inlined).
    fn perturb(&self, v: f64, rng: &mut dyn RngCore) -> f64;

    /// Output density `f(y | x)` (probability mass for discrete mechanisms).
    ///
    /// Used by tests to check the LDP inequality pointwise and by
    /// estimation routines; `x` is clamped like in [`Self::perturb`].
    fn density(&self, x: f64, y: f64) -> f64;

    /// Expected output `E[A(x)]` for a clamped input `x`.
    ///
    /// SW is biased (its expectation is an affine contraction of `x`);
    /// the additive / piecewise mechanisms are unbiased.
    fn expected_output(&self, x: f64) -> f64;

    /// Perturbs `vs[i]` into `out[i]` for every element, in order, without
    /// allocating — the batch primitive of the client→collector hot path.
    ///
    /// The default loops over [`Self::perturb`], which for this crate's
    /// mechanisms is the inlined `sample` (per-call constants hoist out of
    /// the loop), so none of them overrides it. An override must consume
    /// the RNG stream exactly like sequential `perturb` calls so batch and
    /// slot-at-a-time paths stay seed-for-seed identical (the
    /// dispatch-parity tests pin this).
    ///
    /// # Panics
    /// Panics if `vs.len() != out.len()`.
    fn perturb_into(&self, vs: &[f64], out: &mut [f64], rng: &mut dyn RngCore) {
        assert_eq!(vs.len(), out.len(), "perturb_into: length mismatch");
        for (y, &v) in out.iter_mut().zip(vs) {
            *y = self.perturb(v, rng);
        }
    }

    /// Perturbs every element of a slice, in order, allocating the output.
    /// Layered on [`Self::perturb_into`]; prefer `perturb_into` with a
    /// reused buffer on hot paths.
    fn perturb_slice(&self, vs: &[f64], rng: &mut dyn RngCore) -> Vec<f64> {
        let mut out = vec![0.0; vs.len()];
        self.perturb_into(vs, &mut out, rng);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SquareWave;
    use rand::SeedableRng;

    #[test]
    fn perturb_slice_matches_sequential_perturb() {
        let sw = SquareWave::new(1.0).unwrap();
        let xs = [0.1, 0.5, 0.9];
        let mut r1 = rand::rngs::StdRng::seed_from_u64(3);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(3);
        let batch = sw.perturb_slice(&xs, &mut r1);
        let seq: Vec<f64> = xs.iter().map(|&x| sw.perturb(x, &mut r2)).collect();
        assert_eq!(batch, seq);
    }

    #[test]
    fn perturb_into_reuses_buffer_and_matches_slice() {
        let sw = SquareWave::new(0.8).unwrap();
        let xs = [0.0, 0.25, 0.5, 0.75, 1.0];
        let mut out = [0.0; 5];
        let mut r1 = rand::rngs::StdRng::seed_from_u64(9);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(9);
        sw.perturb_into(&xs, &mut out, &mut r1);
        assert_eq!(out.to_vec(), sw.perturb_slice(&xs, &mut r2));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn perturb_into_rejects_mismatched_lengths() {
        let sw = SquareWave::new(1.0).unwrap();
        let mut out = [0.0; 2];
        let mut r = rand::rngs::StdRng::seed_from_u64(0);
        sw.perturb_into(&[0.5; 3], &mut out, &mut r);
    }
}
