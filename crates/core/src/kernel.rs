//! The publication step every feedback rule shares.
//!
//! IPP, APP, CAPP and the mechanism-direct baseline differ in two
//! settings only — which range the deviation-adjusted input is clipped to,
//! and how the deviation `x − x'` of a report carries into later inputs —
//! so the step `x_t + dev → clip → (normalize) → perturb → (denormalize)
//! → feed back` is written once, here, and [`Kernel::of_spec`] is the one
//! place a [`PipelineSpec`] cell picks those two settings. Every publisher
//! builds through it: the batch publishers ([`crate::Direct`],
//! [`crate::Ipp`], [`crate::App`], [`crate::Capp`]), PP-S
//! ([`crate::Sampling`], [`crate::highdim`]) and [`crate::OnlineSession`].
//!
//! Each published value depends on the one before it, so one stream is a
//! serial floating-point chain whose cost is latency, not arithmetic.
//! Streams of different users are independent, though:
//! [`Kernel::run_lanes`] advances `K` of them in lock-step so their chains
//! overlap in the pipeline. The step is generic over the generator: with
//! a concrete RNG (the fleet's `StdRng`) sampler and generator inline into
//! the lane loop; a `&mut dyn RngCore` caller compiles to the same kernel
//! with two virtual draws per value.

use crate::backend::UnitBackend;
use crate::capp::ClipBounds;
use crate::online::{PipelineSpec, SessionKind};
use crate::Result;
use ldp_mechanisms::Domain;
use rand::RngCore;

/// How a report's deviation `x − x'` carries into later inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Feedback {
    /// Not at all — the mechanism-direct baseline.
    None,
    /// The next input corrects the last deviation only (IPP).
    Last,
    /// Every input corrects the accumulated deviation (APP, CAPP).
    Accumulated,
}

/// One feedback rule over one perturbation backend.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kernel {
    backend: UnitBackend,
    feedback: Feedback,
    /// CAPP's clip range `[l, u]`, normalized onto `[0, 1]` around the
    /// perturbation. `None` clips to the unit interval itself, which
    /// needs no normalization (and keeps its division off the chain).
    pub(crate) range: Option<Domain>,
}

impl Kernel {
    /// The kernel of one pipeline cell spending `slot_epsilon` per report:
    /// the rule's feedback, CAPP's recommended clip range for the cell's
    /// mechanism, and that mechanism's unit-scale backend.
    ///
    /// # Errors
    /// Returns an error for an invalid budget.
    pub(crate) fn of_spec(spec: PipelineSpec, slot_epsilon: f64) -> Result<Self> {
        let (feedback, range) = match spec.session {
            SessionKind::SwDirect => (Feedback::None, None),
            SessionKind::Ipp => (Feedback::Last, None),
            SessionKind::App => (Feedback::Accumulated, None),
            SessionKind::Capp => {
                let bounds = ClipBounds::recommended_for(spec.mechanism, slot_epsilon)?;
                (Feedback::Accumulated, Some(bounds.domain()))
            }
        };
        Ok(Self {
            backend: UnitBackend::new(spec.mechanism, slot_epsilon)?,
            feedback,
            range,
        })
    }

    pub(crate) fn backend(&self) -> &UnitBackend {
        &self.backend
    }

    /// Publishes one value: perturbs the clipped, deviation-adjusted input
    /// and folds the new deviation into `deviation`.
    #[inline(always)]
    pub(crate) fn step<R: RngCore + ?Sized>(
        &self,
        x: f64,
        deviation: &mut f64,
        rng: &mut R,
    ) -> f64 {
        let input = x + *deviation;
        let reported = match self.range {
            None => self.backend.report_unit(Domain::UNIT.clip(input), rng),
            Some(range) => {
                let unit = range.normalize(range.clip(input));
                range.denormalize(self.backend.report_unit(unit, rng))
            }
        };
        match self.feedback {
            Feedback::None => {}
            Feedback::Last => *deviation = x - reported,
            Feedback::Accumulated => *deviation += x - reported,
        }
        reported
    }

    /// Publishes one whole stream from zero deviation into `out` (cleared
    /// first; its capacity is reused).
    pub(crate) fn publish_into<R: RngCore + ?Sized>(
        &self,
        xs: &[f64],
        out: &mut Vec<f64>,
        rng: &mut R,
    ) {
        out.clear();
        out.resize(xs.len(), 0.0);
        self.fill(xs, out, rng);
    }

    /// Publishes one whole stream from zero deviation into `out`, which
    /// has `xs`'s length.
    pub(crate) fn fill<R: RngCore + ?Sized>(&self, xs: &[f64], out: &mut [f64], rng: &mut R) {
        Self::run_lanes(&[*self], &mut [0.0], [xs], [out], [rng]);
    }

    /// Publishes `K` independent streams in lock-step: at every slot each
    /// lane takes one [`Self::step`] with its own kernel, deviation and
    /// generator, writing `outs[k][t]` from `xs[k][t]`. Lane `k` computes
    /// exactly what a lone `run_lanes::<1>` over its inputs computes — the
    /// lanes share nothing — but their dependency chains interleave.
    ///
    /// # Panics
    /// Panics unless all `2·K` slices have the same length.
    pub(crate) fn run_lanes<const K: usize, R: RngCore + ?Sized>(
        kernels: &[Kernel; K],
        deviations: &mut [f64; K],
        xs: [&[f64]; K],
        outs: [&mut [f64]; K],
        rngs: [&mut R; K],
    ) {
        let n = xs.first().map_or(0, |x| x.len());
        for k in 0..K {
            assert!(
                xs[k].len() == n && outs[k].len() == n,
                "run_lanes: lane {k} length mismatch"
            );
        }
        for t in 0..n {
            for k in 0..K {
                outs[k][t] = kernels[k].step(xs[k][t], &mut deviations[k], &mut *rngs[k]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The APP feedback loop is mechanism-agnostic (paper §IV-C,
    //! "Extension to other mechanisms", evaluated in Figure 9): whatever
    //! mechanism produced the report, the user knows the deviation exactly
    //! and adds the accumulated deviation to the next input. The kernel
    //! runs that loop on the unit scale, the backend mapping each input
    //! onto the mechanism's native domain; this pins that the unit-scale
    //! loop is the paper's native-domain loop.

    use super::*;
    use crate::smoothing::sma;
    use crate::{App, StreamMechanism};
    use ldp_mechanisms::{Mechanism, MechanismKind};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// The APP loop written on `M`'s native input domain, as §IV-C states
    /// it: the reference the unit-scale kernel is checked against.
    fn native_app(mech: &impl Mechanism, xs: &[f64], rng: &mut dyn RngCore) -> Vec<f64> {
        let dom = mech.input_domain();
        let mut acc_dev = 0.0;
        xs.iter()
            .map(|&x| {
                let reported = mech.perturb(dom.clip(x + acc_dev), rng);
                acc_dev += x - reported;
                reported
            })
            .collect()
    }

    /// A native-domain signal on `[−1, 1]` and its unit-scale image.
    fn signal(n: usize) -> (Vec<f64>, Vec<f64>) {
        let native: Vec<f64> = (0..n).map(|i| 0.5 * (i as f64 / 11.0).sin()).collect();
        let unit = native.iter().map(|&x| (x + 1.0) / 2.0).collect();
        (native, unit)
    }

    #[test]
    fn kernel_app_is_the_native_domain_loop() {
        // Figure 9's Laplace/SR/PM/HM arms publish on the unit scale and
        // are mapped back onto [−1, 1] for the metric.
        let (native, unit) = signal(3_000);
        let exact = [MechanismKind::StochasticRounding, MechanismKind::Hybrid];
        for kind in exact
            .into_iter()
            .chain([MechanismKind::Laplace, MechanismKind::Piecewise])
        {
            let mech = kind.build(0.1).unwrap(); // Figure 9's ε = 1, w = 10
            let dom = mech.input_domain();
            let close = |y: f64, r: f64| (y - r).abs() <= 1e-12 * r.abs().max(1.0);

            // Step by step, fed the reference's own accumulated deviation,
            // every report mapped back is the reference's.
            let kernel = Kernel::of_spec(PipelineSpec::new(SessionKind::App, kind), 0.1).unwrap();
            let (mut r_ref, mut r_kernel) = (rng(1), rng(1));
            let mut acc_dev = 0.0;
            for (t, (&x, &x01)) in native.iter().zip(&unit).enumerate() {
                let r = mech.perturb(dom.clip(x + acc_dev), &mut r_ref);
                let mut dev01 = acc_dev / dom.width();
                let y = dom.denormalize(kernel.step(x01, &mut dev01, &mut r_kernel));
                assert!(close(y, r), "{kind} step {t}: {y} vs {r}");
                acc_dev += x - r;
            }

            // Whole smoothed streams, as Figure 9 publishes them. PM is
            // left out: an unclipped plateau report moves with its input
            // at slope (C + 1)/2 ≈ 20 here, so any rounding difference in
            // the running deviation grows about 20× per such step and the
            // two loops part after a few hundred slots.
            if kind == MechanismKind::Piecewise {
                continue;
            }
            let reference = sma(&native_app(&mech, &native, &mut rng(2)), 3);
            let app = App::of_mechanism(kind, 1.0, 10).unwrap();
            let got = app.publish(&unit, &mut rng(2));
            assert_eq!(got.len(), reference.len());
            for (t, (&y, &r)) in got.iter().zip(&reference).enumerate() {
                let y = dom.denormalize(y);
                if exact.contains(&kind) {
                    assert_eq!(y, r, "{kind} slot {t}");
                } else {
                    assert!(close(y, r), "{kind} slot {t}: {y} vs {r}");
                }
            }
        }
    }
}
