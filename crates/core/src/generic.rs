//! Perturbation parameterization over other mechanisms (paper §IV-C,
//! "Extension to other mechanisms", evaluated in Figure 9), checked on the
//! publication path every pipeline cell runs.
//!
//! The APP feedback loop is mechanism-agnostic: whatever mechanism `M`
//! produced the report, the user knows the deviation exactly and adds the
//! accumulated deviation to the next input. [`crate::App`] and
//! [`crate::Direct`] run that loop for any [`MechanismKind`] on the unit
//! scale, the backend mapping each input onto `M`'s native domain. These
//! tests pin that the unit-scale loop is the paper's native-domain loop.

#[cfg(test)]
mod tests {
    use crate::kernel::Kernel;
    use crate::smoothing::sma;
    use crate::{App, Direct, PipelineSpec, SessionKind, StreamMechanism};
    use ldp_mechanisms::{Mechanism, MechanismKind, Piecewise, StochasticRounding};
    use rand::{RngCore, SeedableRng};

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

    #[test]
    fn direct_length_matches() {
        let d = Direct::of_mechanism(MechanismKind::SquareWave, 1.0, 1).unwrap();
        assert_eq!(d.publish(&[0.5; 13], &mut rng(1)).len(), 13);
    }

    #[test]
    fn generic_app_over_laplace_tracks_running_sum() {
        let g = App::of_mechanism(MechanismKind::Laplace, 1.0, 1)
            .unwrap()
            .with_smoothing(0);
        let (_, xs) = signal(200);
        let out = g.publish_raw(&xs, &mut rng(2));
        // Telescoping: Σx − Σy = final accumulated deviation. One Laplace
        // draw has native scale 2 (unit scale 1), so the drift stays
        // modest (not O(n)).
        let drift = (xs.iter().sum::<f64>() - out.iter().sum::<f64>()).abs();
        assert!(drift < 15.0, "drift {drift}");
    }

    #[test]
    fn generic_app_beats_direct_for_mean_under_laplace() {
        let g = App::of_mechanism(MechanismKind::Laplace, 0.4, 1)
            .unwrap()
            .with_smoothing(0);
        let d = Direct::of_mechanism(MechanismKind::Laplace, 0.4, 1).unwrap();
        let xs: Vec<f64> = (0..40).map(|i| 0.25 + (i as f64 / 80.0)).collect();
        let truth = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut r = rng(3);
        let trials = 400;
        let (mut err_g, mut err_d) = (0.0, 0.0);
        for _ in 0..trials {
            let mg = g.publish_raw(&xs, &mut r).iter().sum::<f64>() / xs.len() as f64;
            err_g += (mg - truth).powi(2);
            let md = d.publish(&xs, &mut r).iter().sum::<f64>() / xs.len() as f64;
            err_d += (md - truth).powi(2);
        }
        assert!(
            err_g < err_d,
            "APP(Laplace) MSE {} should beat direct {}",
            err_g / trials as f64,
            err_d / trials as f64
        );
    }

    #[test]
    fn generic_app_over_sr_emits_only_atoms() {
        let sr = StochasticRounding::new(0.8).unwrap();
        let g = App::of_mechanism(MechanismKind::StochasticRounding, 0.8, 1)
            .unwrap()
            .with_smoothing(0);
        let dom = sr.input_domain();
        for y in g.publish_raw(&[0.55; 50], &mut rng(4)) {
            assert!(y == dom.normalize(sr.c()) || y == dom.normalize(-sr.c()));
        }
    }

    #[test]
    fn generic_app_over_pm_stays_in_pm_range() {
        let pm = Piecewise::new(1.0).unwrap();
        let g = App::of_mechanism(MechanismKind::Piecewise, 1.0, 1)
            .unwrap()
            .with_smoothing(0);
        let dom = pm.input_domain();
        for y in g.publish_raw(&[0.5; 100], &mut rng(5)) {
            assert!(dom.denormalize(y).abs() <= pm.c() + 1e-9);
        }
    }

    #[test]
    fn smoothing_default_is_three() {
        let g = App::of_mechanism(MechanismKind::Laplace, 1.0, 1).unwrap();
        let xs = vec![0.5; 30];
        assert_eq!(
            g.publish(&xs, &mut rng(6)),
            sma(&g.publish_raw(&xs, &mut rng(6)), 3)
        );
    }
}
