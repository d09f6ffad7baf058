//! Privacy-facing integration tests: w-event accounting schedules and the
//! pointwise ε-LDP density bound for every mechanism.

use integration_tests::test_rng;
use ldp_core::{optimal_sample_count, Sampling, SessionKind, StreamMechanism, WEventAccountant};
use ldp_mechanisms::{Hybrid, Laplace, Mechanism, Piecewise, SquareWave, StochasticRounding};
use ldp_streams::are_w_neighboring;

/// Every mechanism's output density must satisfy f(y|x) ≤ e^ε·f(y|x')
/// pointwise over an input × input × output grid.
#[test]
fn all_mechanisms_satisfy_pointwise_ldp_bound() {
    let eps: f64 = 0.8;
    let bound = eps.exp() * (1.0 + 1e-9);
    let mechanisms: Vec<(&str, Box<dyn Mechanism>)> = vec![
        ("sw", Box::new(SquareWave::new(eps).unwrap())),
        ("laplace", Box::new(Laplace::new(eps).unwrap())),
        ("sr", Box::new(StochasticRounding::new(eps).unwrap())),
        ("pm", Box::new(Piecewise::new(eps).unwrap())),
        ("hm", Box::new(Hybrid::new(eps).unwrap())),
    ];
    for (name, mech) in &mechanisms {
        let dom = mech.input_domain();
        let out = mech.output_domain();
        let (olo, ohi) = if out.width().is_finite() {
            (out.lo(), out.hi())
        } else {
            (-10.0, 10.0)
        };
        let mut ys: Vec<f64> = (0..=40)
            .map(|k| olo + (ohi - olo) * k as f64 / 40.0)
            .collect();
        // Include SR's atoms exactly.
        if let Ok(sr) = StochasticRounding::new(eps) {
            ys.push(sr.c());
            ys.push(-sr.c());
        }
        for i in 0..=10 {
            for j in 0..=10 {
                let x1 = dom.lo() + dom.width() * i as f64 / 10.0;
                let x2 = dom.lo() + dom.width() * j as f64 / 10.0;
                for &y in &ys {
                    let f1 = mech.density(x1, y);
                    let f2 = mech.density(x2, y);
                    if f2 > 0.0 {
                        assert!(
                            f1 / f2 <= bound,
                            "{name}: ratio {} at x1={x1} x2={x2} y={y}",
                            f1 / f2
                        );
                    } else {
                        assert_eq!(f1, 0.0, "{name}: support mismatch at y={y}");
                    }
                }
            }
        }
    }
}

/// The uniform ε/w schedule used by IPP/APP/CAPP/SW-direct exactly fills
/// (and never exceeds) the window budget.
#[test]
fn per_slot_schedule_satisfies_w_event() {
    let (eps, w, len) = (2.0, 15, 200);
    let mut acc = WEventAccountant::new(w, eps);
    for _ in 0..len {
        acc.record(eps / w as f64);
    }
    assert!(acc.satisfies_w_event());
    assert!((acc.max_window_spend() - eps).abs() < 1e-9);
}

/// The PP-S schedule (one upload per segment at ε/n_w) also respects the
/// window budget for every (q, ns) combination the optimizer can pick.
#[test]
fn sampling_schedule_satisfies_w_event() {
    let eps = 1.0;
    for &(w, q) in &[(10usize, 30usize), (20, 40), (30, 10), (5, 100)] {
        let ns = optimal_sample_count(eps, w, q);
        let seg_len = (q / ns).max(1);
        let sampler = Sampling::new(SessionKind::App, eps, w).unwrap();
        let eps_upload = sampler.upload_epsilon(q);
        let mut acc = WEventAccountant::new(w, eps);
        for t in 0..q {
            // Uploads land at the first slot of each segment.
            acc.record(if t % seg_len == 0 && t / seg_len < ns {
                eps_upload
            } else {
                0.0
            });
        }
        assert!(
            acc.satisfies_w_event(),
            "w={w} q={q} ns={ns}: window spend {}",
            acc.max_window_spend()
        );
    }
}

/// Definition 2 sanity on real streams: perturbing a w-length burst of a
/// stream yields a w-neighboring stream; spreading the change does not.
#[test]
fn w_neighboring_matches_definition_on_streams() {
    let base = ldp_streams::synthetic::sinusoidal(100, 0.05);
    let mut burst = base.values().to_vec();
    for slot in burst.iter_mut().skip(40).take(10) {
        *slot = 1.0 - *slot;
    }
    assert!(are_w_neighboring(base.values(), &burst, 10));
    assert!(!are_w_neighboring(base.values(), &burst, 9));
}

/// Clipping/normalization in CAPP is deterministic pre-processing: two
/// streams differing in one window produce outputs whose supports coincide
/// (no value leaks through support mismatch).
#[test]
fn capp_outputs_share_support_for_neighboring_streams() {
    let capp = ldp_core::Capp::new(1.0, 10).unwrap().with_smoothing(1);
    let mut rng = test_rng(3);
    let a = vec![0.2; 50];
    let mut b = a.clone();
    for slot in b.iter_mut().skip(20).take(10) {
        *slot = 0.9;
    }
    let out_a = capp.publish(&a, &mut rng);
    let out_b = capp.publish(&b, &mut rng);
    let bounds = capp.bounds();
    let sw_b = SquareWave::new(0.1).unwrap().b();
    let width = bounds.u() - bounds.l();
    let (lo, hi) = (bounds.l() - sw_b * width, bounds.u() + sw_b * width);
    for y in out_a.iter().chain(&out_b) {
        assert!(*y >= lo - 1e-9 && *y <= hi + 1e-9);
    }
}
