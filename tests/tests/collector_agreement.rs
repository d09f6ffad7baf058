//! The two guarantees the collector subsystem rides on:
//!
//! 1. **Privacy** — an [`OnlineSession`] of any kind, run for any number
//!    of slots, never spends more than ε inside any window of `w` slots
//!    (the w-event guarantee, checked through its `WEventAccountant`).
//! 2. **Correctness** — a [`Collector`] snapshot built from fleet uploads
//!    agrees with the offline batch path
//!    (`crowd::estimated_population_means`) on per-user means and
//!    windowed population means.

use integration_tests::test_rng;
use ldp_collector::{
    ClientFleet, Collector, CollectorConfig, FleetConfig, ReportBatch, ReseedingSession,
};
use ldp_core::online::{OnlineSession, PipelineSpec, SessionKind};
use ldp_core::{crowd, StreamMechanism, WEventAccountant};
use ldp_streams::synthetic::{power_population, taxi_population};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Long-running sessions of every kind satisfy the w-event guarantee:
    /// every window of `w` slots spends at most ε (and the schedule
    /// saturates the budget once `w` slots have passed, so the guarantee
    /// is tight, not vacuous).
    #[test]
    fn online_sessions_never_exceed_window_budget(
        eps in 0.1..6.0f64,
        w in 1usize..40,
        slots in 1usize..300,
        seed in 0u64..500,
    ) {
        for spec in PipelineSpec::grid() {
            let mut session = OnlineSession::of_spec(spec, eps, w).unwrap();
            let mut rng = test_rng(seed);
            for t in 0..slots {
                let x = 0.5 + 0.4 * ((t as f64) / 9.0).sin();
                let _ = session.report(x, &mut rng);
            }
            let acc = session.accountant();
            prop_assert!(acc.satisfies_w_event(), "{} violates w-event", spec.label());
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

    /// The accountant flags any schedule denser than ε/w, so the session
    /// invariant above is a real check, not an accountant blind spot.
    #[test]
    fn accountant_rejects_overdense_schedules(
        eps in 0.1..4.0f64,
        w in 2usize..30,
        overshoot in 1.01..3.0f64,
    ) {
        let mut acc = WEventAccountant::new(w, eps);
        for _ in 0..(2 * w) {
            acc.record(eps / w as f64 * overshoot);
        }
        prop_assert!(!acc.satisfies_w_event());
    }
}

/// Fleet → collector snapshots reproduce the offline batch path exactly
/// for EVERY pipeline cell (all 4 SessionKinds × all 5 MechanismKinds):
/// per-user means match `crowd::estimated_population_means` and the
/// windowed population mean matches the batch average, within 1e-9.
#[test]
fn snapshot_matches_batch_crowd_path_for_every_grid_cell() {
    let (users, slots) = (60, 40);
    let (epsilon, w, seed) = (2.5, 12, 0xBEEF);
    let range = 5..35;
    for spec in PipelineSpec::grid() {
        let population = taxi_population(users, slots, 31);
        let collector = Collector::new(CollectorConfig {
            shards: 6,
            ..CollectorConfig::default()
        });
        let fleet = ClientFleet::new(FleetConfig {
            spec,
            epsilon,
            w,
            seed,
            threads: 5,
        });
        let reports = fleet.drive(&population, range.clone(), &collector).unwrap();
        assert_eq!(reports as usize, users * range.len());
        assert_eq!(collector.rejected_reports(), 0, "{}", spec.label());

        let adapter = ReseedingSession::new(spec, epsilon, w, seed).unwrap();
        let batch = crowd::estimated_population_means(
            &population,
            range.clone(),
            &adapter,
            &mut test_rng(0),
        );

        let snapshot = collector.snapshot();
        assert_eq!(
            snapshot.total_reports(),
            reports,
            "{}: the collector holds exactly what the fleet uploaded",
            spec.label()
        );
        let online = snapshot.per_user_means();
        assert_eq!(online.len(), batch.len());
        for (u, (a, b)) in online.iter().zip(&batch).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "{}: user {u} online {a} vs batch {b}",
                spec.label()
            );
        }

        let batch_mean = batch.iter().sum::<f64>() / batch.len() as f64;
        let windowed = snapshot.windowed_mean(0..range.len()).unwrap();
        assert!(
            (windowed - batch_mean).abs() < 1e-9,
            "{}: windowed {windowed} vs batch {batch_mean}",
            spec.label()
        );
    }
}

/// Incremental ingestion is order- and batching-insensitive: slicing the
/// same reports into different batch shapes yields identical snapshots.
#[test]
fn ingestion_is_batching_insensitive() {
    let population = power_population(40, 30, 17);
    let whole = Collector::new(CollectorConfig {
        shards: 3,
        ..CollectorConfig::default()
    });
    let sliced = Collector::new(CollectorConfig {
        shards: 3,
        ..CollectorConfig::default()
    });
    let fleet = ClientFleet::new(FleetConfig {
        spec: PipelineSpec::sw(SessionKind::App),
        epsilon: 1.5,
        w: 6,
        seed: 9,
        threads: 1,
    });
    fleet.drive(&population, 0..30, &whole).unwrap();

    // Replay the same published values in per-slot mini-batches. The
    // adapter reseeds per publish call, so iterating users in order
    // reproduces the fleet's per-user streams.
    let adapter = ReseedingSession::new(PipelineSpec::sw(SessionKind::App), 1.5, 6, 9).unwrap();
    for (user, stream) in population.iter().enumerate() {
        let published = adapter.publish(stream.subsequence(0..30), &mut test_rng(0));
        for (slot, &value) in published.iter().enumerate() {
            let mut batch = ReportBatch::new();
            batch.push(user as u64, slot as u64, value);
            sliced.ingest(&batch);
        }
    }

    let (a, b) = (whole.snapshot(), sliced.snapshot());
    assert_eq!(a.total_reports(), b.total_reports());
    assert_eq!(a.per_user_means(), b.per_user_means());
    for slot in 0..30 {
        assert!((a.slot_mean(slot).unwrap() - b.slot_mean(slot).unwrap()).abs() < 1e-12);
    }
}

/// The crowd estimate actually converges: with a healthy budget the
/// collector's windowed population mean lands near the ground truth.
#[test]
fn windowed_population_mean_tracks_truth() {
    let population = taxi_population(400, 80, 23);
    let range = 10..70;
    let collector = Collector::default();
    let fleet = ClientFleet::new(FleetConfig {
        spec: PipelineSpec::sw(SessionKind::Capp),
        epsilon: 4.0,
        w: 10,
        seed: 1,
        threads: 8,
    });
    fleet.drive(&population, range.clone(), &collector).unwrap();
    let truth = crowd::true_windowed_population_mean(&population, range.clone());
    let online = collector.snapshot().windowed_mean(0..range.len()).unwrap();
    assert!(
        (online - truth).abs() < 0.05,
        "online {online} vs truth {truth}"
    );
}
