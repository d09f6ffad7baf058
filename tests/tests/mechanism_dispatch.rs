//! Mechanism-dispatch parity and pipeline-grid guarantees.
//!
//! The mechanism-generic pipeline rides on two invariants:
//!
//! 1. **Dispatch parity** — routing a mechanism through
//!    [`MechanismKind::build`] / [`AnyMechanism`] must be seed-for-seed
//!    identical to calling the concrete type directly, for the scalar,
//!    batch-into, and batch-alloc sampling paths alike. The fleet and the
//!    figure reproductions both publish through the one kernel over the
//!    dispatched mechanism, so this is what ties every published bit to
//!    the concrete mechanisms the paper defines.
//! 2. **w-event safety of every grid cell** — an [`OnlineSession`] for
//!    any `(SessionKind, MechanismKind)` pair spends at most ε in any
//!    window of `w` slots, because the budget schedule is set by the
//!    session, not by the mechanism.
//! 3. **Publication parity** — every way of driving the one publication
//!    kernel gives the same bits: a concrete generator and the same seed
//!    behind `&mut dyn RngCore`, one report at a time and whole batches,
//!    one session alone and `K` sessions in lock-step lanes.

use integration_tests::test_rng;
use ldp_core::online::{OnlineSession, PipelineSpec};
use ldp_mechanisms::{
    Hybrid, Laplace, Mechanism, MechanismKind, Piecewise, SquareWave, StochasticRounding,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngCore;

/// Test inputs spanning the unit domain (clamping covers the symmetric
/// mechanisms' wider domain: the backend hands them native-scale values).
fn unit_inputs() -> Vec<f64> {
    (0..64).map(|i| i as f64 / 63.0).collect()
}

fn native_inputs(kind: MechanismKind, eps: f64) -> Vec<f64> {
    let dom = kind.build(eps).unwrap().input_domain();
    unit_inputs().iter().map(|&x| dom.denormalize(x)).collect()
}

/// Sequential concrete perturb calls for a kind, consuming `rng` exactly
/// like the dispatched path should.
fn concrete_sequential(kind: MechanismKind, eps: f64, xs: &[f64], seed: u64) -> Vec<f64> {
    let mut rng = test_rng(seed);
    match kind {
        MechanismKind::SquareWave => {
            let m = SquareWave::new(eps).unwrap();
            xs.iter().map(|&x| m.perturb(x, &mut rng)).collect()
        }
        MechanismKind::StochasticRounding => {
            let m = StochasticRounding::new(eps).unwrap();
            xs.iter().map(|&x| m.perturb(x, &mut rng)).collect()
        }
        MechanismKind::Piecewise => {
            let m = Piecewise::new(eps).unwrap();
            xs.iter().map(|&x| m.perturb(x, &mut rng)).collect()
        }
        MechanismKind::Laplace => {
            let m = Laplace::new(eps).unwrap();
            xs.iter().map(|&x| m.perturb(x, &mut rng)).collect()
        }
        MechanismKind::Hybrid => {
            let m = Hybrid::new(eps).unwrap();
            xs.iter().map(|&x| m.perturb(x, &mut rng)).collect()
        }
    }
}

/// Dispatch parity across all three sampling paths, for every kind and a
/// spread of budgets (including ones straddling the Hybrid PM threshold).
#[test]
fn dispatched_sampling_is_seed_identical_to_concrete() {
    for kind in MechanismKind::ALL {
        for &eps in &[0.1, 0.61, 1.0, 3.0] {
            let xs = native_inputs(kind, eps);
            let reference = concrete_sequential(kind, eps, &xs, 42);

            let any = kind.build(eps).unwrap();
            // Scalar dispatch.
            let mut rng = test_rng(42);
            let scalar: Vec<f64> = xs.iter().map(|&x| any.perturb(x, &mut rng)).collect();
            assert_eq!(scalar, reference, "{kind} ε={eps}: scalar dispatch");

            // Batch-into dispatch.
            let mut out = vec![0.0; xs.len()];
            any.perturb_into(&xs, &mut out, &mut test_rng(42));
            assert_eq!(out, reference, "{kind} ε={eps}: perturb_into");

            // Batch-alloc dispatch.
            assert_eq!(
                any.perturb_slice(&xs, &mut test_rng(42)),
                reference,
                "{kind} ε={eps}: perturb_slice"
            );
        }
    }
}

/// The generic `sample` with a concrete generator and the object-safe
/// `perturb` behind `&mut dyn RngCore` are one sampler: same outputs and
/// the same number of draws, value by value, for every mechanism.
#[test]
fn concrete_and_dyn_generators_draw_identically_for_every_mechanism() {
    for kind in MechanismKind::ALL {
        for &eps in &[0.1, 0.61, 1.0, 3.0] {
            let any = kind.build(eps).unwrap();
            let mut concrete = test_rng(7);
            let mut erased = test_rng(7);
            for x in native_inputs(kind, eps) {
                let direct = any.sample(x, &mut concrete);
                let dynamic = any.perturb(x, &mut erased as &mut dyn RngCore);
                assert_eq!(direct.to_bits(), dynamic.to_bits(), "{kind} ε={eps} x={x}");
                let mut probe = (concrete.clone(), erased.clone());
                assert_eq!(
                    probe.0.next_u64(),
                    probe.1.next_u64(),
                    "{kind} ε={eps} x={x}: generators out of step"
                );
            }
        }
    }
}

/// The moment interfaces agree through dispatch too: the density at the
/// expected output and the ε accessor survive the enum round trip.
#[test]
fn dispatched_metadata_matches_concrete() {
    for kind in MechanismKind::ALL {
        let eps = 1.2;
        let any = kind.build(eps).unwrap();
        assert_eq!(any.epsilon(), eps, "{kind}");
        let x = any.input_domain().denormalize(0.75);
        assert!(any.output_domain().contains(any.expected_output(x)) || !kind.is_unbiased());
        // A mechanism must put positive density (or mass) somewhere.
        let y = any.perturb(x, &mut test_rng(1));
        assert!(
            any.density(x, y) > 0.0,
            "{kind}: zero density at own sample"
        );
    }
}

/// Everything observable about a session after a run, as bits: slots
/// published, the deviation it would feed into the next report, and the
/// ledger's current and maximum window spend.
type SessionState = (usize, u64, u64, u64);

fn session_state(session: &OnlineSession) -> SessionState {
    let ledger = session.accountant();
    (
        session.slots_published(),
        session.pending_deviation().to_bits(),
        ledger.current_window_spend().to_bits(),
        ledger.max_window_spend().to_bits(),
    )
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `K` sessions in lock-step — generators passed concretely, and again
/// type-erased — against the per-lane references.
fn assert_lanes_match<const K: usize>(
    spec: PipelineSpec,
    eps: f64,
    w: usize,
    seed: u64,
    streams: &[Vec<f64>],
    reference: &[(Vec<u64>, SessionState)],
) {
    let new_sessions = || -> [OnlineSession; K] {
        std::array::from_fn(|_| OnlineSession::of_spec(spec, eps, w).unwrap())
    };
    let xs: [&[f64]; K] = std::array::from_fn(|k| streams[k].as_slice());

    let mut sessions = new_sessions();
    let mut rngs: [StdRng; K] = std::array::from_fn(|k| test_rng(seed + k as u64));
    // Stale contents: the lanes must clear their buffers.
    let mut outs: [Vec<f64>; K] = std::array::from_fn(|k| vec![9.0; k]);
    OnlineSession::report_lanes_into(sessions.each_mut(), xs, outs.each_mut(), rngs.each_mut());

    let mut erased_sessions = new_sessions();
    let mut erased_rngs: [StdRng; K] = std::array::from_fn(|k| test_rng(seed + k as u64));
    let mut erased_outs: [Vec<f64>; K] = std::array::from_fn(|_| Vec::new());
    OnlineSession::report_lanes_into(
        erased_sessions.each_mut(),
        xs,
        erased_outs.each_mut(),
        erased_rngs.each_mut().map(|rng| rng as &mut dyn RngCore),
    );

    for k in 0..K {
        let label = format!("{} K={K} lane {k}", spec.label());
        assert_eq!(bits(&outs[k]), reference[k].0, "{label}: values");
        assert_eq!(
            session_state(&sessions[k]),
            reference[k].1,
            "{label}: state"
        );
        assert_eq!(bits(&erased_outs[k]), reference[k].0, "{label}: dyn values");
        assert_eq!(
            session_state(&erased_sessions[k]),
            reference[k].1,
            "{label}: dyn state"
        );
        assert_eq!(
            rngs[k].next_u64(),
            erased_rngs[k].next_u64(),
            "{label}: generators out of step"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Over the whole pipeline grid, lock-step lanes (K = 1, 2, 4) leave
    /// every lane bit-identical — values, pending deviation, ledger — to
    /// that user's own session reporting one value at a time, and to its
    /// own `report_all_into` batch; two consecutive batches carry the
    /// feedback state across the call boundary.
    #[test]
    fn lock_step_lanes_match_separate_sessions_bit_for_bit(
        eps in 0.1..6.0f64,
        w in 1usize..16,
        slots in 0usize..90,
        seed in 0u64..500,
    ) {
        // Inputs stray outside [0, 1] so the clip stage is exercised.
        let streams: Vec<Vec<f64>> = (0..4)
            .map(|k| {
                (0..slots)
                    .map(|t| 0.5 + 0.7 * ((t * (k + 2)) as f64 / 9.0).sin())
                    .collect()
            })
            .collect();
        for spec in PipelineSpec::grid() {
            let reference: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(k, xs)| {
                    let mut session = OnlineSession::of_spec(spec, eps, w).unwrap();
                    let mut rng = test_rng(seed + k as u64);
                    let ys: Vec<f64> = xs.iter().map(|&x| session.report(x, &mut rng)).collect();
                    (bits(&ys), session_state(&session))
                })
                .collect();

            for (k, xs) in streams.iter().enumerate() {
                let mut session = OnlineSession::of_spec(spec, eps, w).unwrap();
                let mut rng = test_rng(seed + k as u64);
                let (head, tail) = xs.split_at(slots / 3);
                let mut out = Vec::new();
                session.report_all_into(head, &mut out, &mut rng);
                let mut ys = out.clone();
                session.report_all_into(tail, &mut out, &mut rng);
                ys.extend_from_slice(&out);
                prop_assert_eq!(bits(&ys), reference[k].0.clone(), "{}: batches", spec.label());
                prop_assert_eq!(session_state(&session), reference[k].1);
            }

            assert_lanes_match::<1>(spec, eps, w, seed, &streams, &reference);
            assert_lanes_match::<2>(spec, eps, w, seed, &streams, &reference);
            assert_lanes_match::<4>(spec, eps, w, seed, &streams, &reference);
        }
    }

    /// Every (SessionKind, MechanismKind) cell preserves the w-event
    /// guarantee under arbitrary budgets, windows, and stream lengths —
    /// and its budget schedule saturates the window, so the check is
    /// tight rather than vacuous.
    #[test]
    fn every_pipeline_cell_preserves_the_w_event_guarantee(
        eps in 0.1..6.0f64,
        w in 1usize..32,
        slots in 1usize..200,
        seed in 0u64..500,
    ) {
        for spec in PipelineSpec::grid() {
            let mut session = OnlineSession::of_spec(spec, eps, w).unwrap();
            let mut rng = test_rng(seed);
            for t in 0..slots {
                let x = 0.5 + 0.4 * ((t as f64) / 9.0).sin();
                let y = session.report(x, &mut rng);
                prop_assert!(y.is_finite(), "{}: non-finite report", spec.label());
            }
            let acc = session.accountant();
            prop_assert!(
                acc.satisfies_w_event(),
                "{} violates the w-event guarantee",
                spec.label()
            );
            prop_assert!(acc.max_window_spend() <= eps * (1.0 + 1e-9));
            if slots >= w {
                prop_assert!(
                    acc.max_window_spend() >= eps * (1.0 - 1e-9),
                    "{}: schedule should saturate the window budget",
                    spec.label()
                );
            }
        }
    }

    /// Unbiased backends stay unbiased through the whole unit-scale
    /// pipeline: a direct (no-feedback) session's reports average to the
    /// input.
    #[test]
    fn direct_sessions_over_unbiased_backends_center_on_the_input(
        x in 0.05..0.95f64,
        seed in 0u64..100,
    ) {
        use ldp_core::online::SessionKind;
        for mechanism in MechanismKind::ALL {
            if !mechanism.is_unbiased() {
                continue;
            }
            let spec = PipelineSpec::new(SessionKind::SwDirect, mechanism);
            // Generous ε (slot budget 10) so 400 samples give a tight
            // empirical mean, while staying well inside f64 range for
            // PM/HM whose parameters hold e^ε.
            let mut session = OnlineSession::of_spec(spec, 40.0, 4).unwrap();
            let mut rng = test_rng(seed);
            let n = 400;
            let mean: f64 = (0..n).map(|_| session.report(x, &mut rng)).sum::<f64>() / n as f64;
            prop_assert!(
                (mean - x).abs() < 0.1,
                "{}: empirical mean {mean} far from input {x}",
                spec.label()
            );
        }
    }
}
