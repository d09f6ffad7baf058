//! Property-based tests over the public API: randomized budgets, windows,
//! and streams must never break the structural invariants.

use ldp_core::{
    optimal_sample_count, sma, App, Capp, ClipBounds, Ipp, Sampling, SessionKind, StreamMechanism,
    WEventAccountant,
};
use ldp_mechanisms::{Mechanism, SquareWave};
use ldp_streams::are_w_neighboring;
use proptest::prelude::*;
use rand::SeedableRng;

fn stream_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..=1.0f64, 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Publication never changes the stream length and never emits NaN.
    #[test]
    fn publish_preserves_length_and_finiteness(
        xs in stream_strategy(),
        eps in 0.05..5.0f64,
        w in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let algos: Vec<Box<dyn StreamMechanism>> = vec![
            Box::new(Ipp::new(eps, w).unwrap()),
            Box::new(App::new(eps, w).unwrap()),
            Box::new(Capp::new(eps, w).unwrap()),
            Box::new(Sampling::new(SessionKind::App, eps, w).unwrap()),
        ];
        for algo in algos {
            let out = algo.publish(&xs, &mut rng);
            prop_assert_eq!(out.len(), xs.len());
            prop_assert!(out.iter().all(|y| y.is_finite()));
        }
    }

    /// SW outputs always stay in [−b, 1+b], for any ε and any input.
    #[test]
    fn sw_outputs_in_domain(eps in 0.01..8.0f64, x in -2.0..3.0f64, seed in 0u64..500) {
        let sw = SquareWave::new(eps).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let y = sw.perturb(x, &mut rng);
        prop_assert!(sw.output_domain().contains(y));
    }

    /// SW's exact moment integration matches the paper's closed forms for
    /// every ε: E[SW(x)] from raw_moment and the worst-case deviation
    /// variance.
    #[test]
    fn sw_moments_match_closed_forms(eps in 0.02..6.0f64, x in 0.0..=1.0f64) {
        let sw = SquareWave::new(eps).unwrap();
        prop_assert!((sw.raw_moment(x, 1) - sw.expected_output(x)).abs() < 1e-9);
        prop_assert!(
            (sw.output_variance(1.0) - sw.worst_case_deviation_variance()).abs() < 1e-8
        );
        // deviation mean closed form vs direct difference
        prop_assert!((sw.deviation_mean(x) - (x - sw.expected_output(x))).abs() < 1e-9);
    }

    /// SMA output is bounded by the input extrema, preserves length, and
    /// is, bit for bit, the centred windowed mean: slot `t` averages
    /// `xs[t − k ..= t + k]` clipped to the stream, `k = window / 2`
    /// (`window <= 1` is the identity). Windows reach past Ablation 1's 15.
    #[test]
    fn sma_bounded_by_extrema(xs in stream_strategy(), window in 0usize..17) {
        let out = sma(&xs, window);
        prop_assert_eq!(out.len(), xs.len());
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(out.iter().all(|&y| y >= lo - 1e-12 && y <= hi + 1e-12));
        let k = if window <= 1 { 0 } else { window / 2 };
        for (t, y) in out.iter().enumerate() {
            let lo = t.saturating_sub(k);
            let hi = (t + k + 1).min(xs.len());
            let mean = xs[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            prop_assert_eq!(y.to_bits(), mean.to_bits(), "slot {} of {}", t, xs.len());
        }
    }

    /// The clip-bound recommendation is always a valid range, for any
    /// plausible per-slot budget.
    #[test]
    fn clip_bounds_always_valid(slot_eps in 0.001..10.0f64) {
        let b = ClipBounds::recommended(slot_eps).unwrap();
        prop_assert!(b.l() < b.u());
        prop_assert!(b.margin() > -0.5);
    }

    /// The n_s optimizer returns a segment count in [1, q].
    #[test]
    fn sample_count_in_range(eps in 0.1..5.0f64, w in 1usize..50, q in 0usize..200) {
        let ns = optimal_sample_count(eps, w, q);
        prop_assert!(ns >= 1);
        prop_assert!(ns <= q.max(1));
    }

    /// The accountant accepts a uniform ε/w schedule and flags anything
    /// denser.
    #[test]
    fn accountant_uniform_schedule(eps in 0.1..4.0f64, w in 1usize..30, n in 1usize..100) {
        let mut ok = WEventAccountant::new(w, eps);
        let mut over = WEventAccountant::new(w, eps);
        for _ in 0..n {
            ok.record(eps / w as f64);
            over.record(eps / w as f64 * 1.5);
        }
        prop_assert!(ok.satisfies_w_event());
        if n >= w && w > 1 {
            prop_assert!(!over.satisfies_w_event());
        }
    }

    /// w-neighboring is symmetric and monotone in w.
    #[test]
    fn w_neighboring_symmetric_and_monotone(
        a in stream_strategy(),
        flips in proptest::collection::vec(any::<bool>(), 1..120),
        w in 1usize..20,
    ) {
        let b: Vec<f64> = a
            .iter()
            .zip(flips.iter().chain(std::iter::repeat(&false)))
            .map(|(&x, &f)| if f { 1.0 - x } else { x })
            .collect();
        let fwd = are_w_neighboring(&a, &b, w);
        let bwd = are_w_neighboring(&b, &a, w);
        prop_assert_eq!(fwd, bwd);
        if fwd {
            prop_assert!(are_w_neighboring(&a, &b, w + 1));
        }
    }

    /// Accumulated deviation telescopes: for APP the publication drift
    /// |Σx − Σy| is bounded by the worst single-step deviation magnitude
    /// times a small constant, never O(n).
    #[test]
    fn app_drift_stays_bounded(xs in proptest::collection::vec(0.2..=0.8f64, 30..200), seed in 0u64..200) {
        let app = App::new(4.0, 10).unwrap().with_smoothing(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let out = app.publish(&xs, &mut rng);
        let drift = (xs.iter().sum::<f64>() - out.iter().sum::<f64>()).abs();
        // One SW draw at ε = 0.4 deviates by < 2; clipping can stack a few.
        prop_assert!(drift < 20.0, "drift {} on n={}", drift, xs.len());
    }
}
