//! Integration guarantees of the live windowed query engine:
//!
//! 1. **Liveness under contention** — query threads never corrupt or stall
//!    ingest: `total_reports` is monotone while both run, and the final
//!    drained view agrees with a full locking snapshot.
//! 2. **One merge** — at quiescence a refreshed view *is* the locking
//!    snapshot, bit for bit, however many refreshes assembled it.
//! 3. **Retention boundary** — a collector with bounded [`SlotRetention`]
//!    answers every query over its retained range identically (≤ 1e-9) to
//!    an unbounded collector fed the same reports, while holding per-slot
//!    memory at O(R) on streams far longer than the window.

use ldp_collector::{
    ClientFleet, Collector, CollectorConfig, FleetConfig, QueryEngine, ReportBatch, SlotRetention,
    SlotStats,
};
use ldp_core::online::{OnlineSession, PipelineSpec, SessionKind};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// N ingest threads race a query thread. The query thread checks that the
/// accepted counter is monotone (the old implementation summed per-shard
/// counters under successive locks and could tear), that view versions
/// are monotone, and that every view it sees is internally sane.
#[test]
fn concurrent_ingest_while_query_stress() {
    let (threads, batches, per_batch) = (4u64, 200u64, 50u64);
    let collector = Collector::new(CollectorConfig {
        shards: 4,
        retention: SlotRetention::Last(32),
        ..CollectorConfig::default()
    });
    let engine = QueryEngine::new(&collector);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let checker = {
            let (collector, engine, done) = (&collector, &engine, &done);
            scope.spawn(move || {
                let mut last_total = 0u64;
                let mut last_version = 0u64;
                let mut last_view_total = 0u64;
                while !done.load(Ordering::Acquire) {
                    let total = collector.total_reports();
                    assert!(total >= last_total, "total_reports went backwards");
                    last_total = total;
                    engine.refresh();
                    let view = engine.view();
                    assert!(view.version() >= last_version, "view version regressed");
                    last_version = view.version();
                    assert!(
                        view.total_reports() >= last_view_total,
                        "published view lost reports"
                    );
                    last_view_total = view.total_reports();
                    if let Some(m) = view.population_mean() {
                        assert!(m.is_finite());
                    }
                    let retained = view.slot_count();
                    assert!(retained <= 32, "retention bound violated: {retained}");
                }
            })
        };
        let ingest: Vec<_> = (0..threads)
            .map(|t| {
                let collector = &collector;
                scope.spawn(move || {
                    let mut batch = ReportBatch::new();
                    for b in 0..batches {
                        batch.clear();
                        for i in 0..per_batch {
                            let user = t * batches * per_batch + b * per_batch + i;
                            batch.push(user, b, (i % 10) as f64 / 10.0);
                        }
                        assert_eq!(collector.ingest(&batch) as u64, per_batch);
                    }
                })
            })
            .collect();
        for h in ingest {
            h.join().unwrap();
        }
        done.store(true, Ordering::Release);
        checker.join().unwrap();
    });
    let expected = threads * batches * per_batch;
    assert_eq!(collector.total_reports(), expected);
    engine.refresh();
    let view = engine.view();
    let snapshot = collector.snapshot();
    assert_eq!(view.total_reports(), expected);
    assert_eq!(snapshot.total_reports(), expected);
    assert_eq!(view.user_count(), snapshot.user_count() as u64);
    assert_eq!(engine.per_user_means(), snapshot.per_user_means());
}

/// The view and the snapshot are assembled by one function from the same
/// per-shard parts in the same order, so after any number of ingest +
/// refresh cycles — crowd frames that change every shard, and single-user
/// uploads that change one of 16 — their slot tables, frozen prefixes and
/// scalar ledgers are equal **bit for bit**. (A refresh that subtracted the
/// changed shards' old contributions and added the new ones drifted from
/// the third sparse refresh on.)
#[test]
fn refreshed_view_is_bit_identical_to_a_snapshot() {
    let bits = |s: &SlotStats| (s.count, s.sum.to_bits(), s.sum_sq.to_bits());
    for retention in [SlotRetention::Unbounded, SlotRetention::Last(24)] {
        let collector = Collector::new(CollectorConfig {
            shards: 16,
            retention,
            ..CollectorConfig::default()
        });
        let engine = QueryEngine::new(&collector);
        let value = |i: u64| 0.013 + 0.1 * (i % 7) as f64 + 1e-3 * (i % 11) as f64;
        let mut batch = ReportBatch::new();
        for cycle in 0..300u64 {
            let slot = cycle / 3;
            if cycle % 10 == 0 {
                // A crowd frame: one slot of many users, every shard moves.
                batch.clear();
                for user in 0..200u64 {
                    batch.push(user, slot, value(user + cycle));
                }
                collector.ingest(&batch);
                assert_eq!(engine.refresh(), 16, "cycle {cycle}");
            } else {
                // A single-user upload: one shard moves.
                let stream: Vec<f64> = (0..5).map(|i| value(cycle * 5 + i)).collect();
                collector.ingest(&ReportBatch::from_stream(cycle % 40, slot, &stream));
                assert_eq!(engine.refresh(), 1, "cycle {cycle}");
            }
        }
        let (view, snap) = (engine.view(), collector.snapshot());
        assert_eq!(view.retained_base(), snap.retained_base(), "{retention:?}");
        assert_eq!(view.slot_end(), snap.slot_end());
        assert_eq!(view.total_reports(), snap.total_reports());
        assert_eq!(
            view.user_mean_sum().to_bits(),
            snap.user_mean_sum().to_bits()
        );
        assert_eq!(bits(view.frozen()), bits(snap.frozen()), "{retention:?}");
        assert_eq!(view.slot_count(), snap.slot_count());
        for (i, (v, s)) in view.slots().iter().zip(snap.slots()).enumerate() {
            assert_eq!(bits(v), bits(s), "{retention:?}: retained slot {i}");
        }
    }
}

/// A long stream (≥ 100× the retention window) holds collector memory at
/// O(R) and session ledger memory at O(w), with lifetime totals exact.
#[test]
fn long_stream_memory_stays_flat() {
    let (w, r, slots) = (4usize, 8u64, 800u64);
    let collector = Collector::new(CollectorConfig {
        shards: 2,
        retention: SlotRetention::Last(r),
        ..CollectorConfig::default()
    });
    let mut session = OnlineSession::of_spec(PipelineSpec::sw(SessionKind::Capp), 1.0, w).unwrap();
    let mut rng = integration_tests::test_rng(3);
    let mut batch = ReportBatch::new();
    for slot in 0..slots {
        let y = session.report(0.5, &mut rng);
        batch.clear();
        batch.push(1, slot, y);
        collector.ingest(&batch);
    }
    // Session side: the w-event ledger holds after 200× w slots…
    assert_eq!(session.slots_published(), slots as usize);
    assert!(session.accountant().satisfies_w_event());
    // …and the collector side retains only R slots of a 100× R stream.
    let snap = collector.snapshot();
    assert!(snap.slot_count() as u64 <= r);
    assert_eq!(snap.slot_end(), slots);
    assert_eq!(snap.total_reports(), slots);
    assert_eq!(
        snap.frozen().count + snap.slots().iter().map(|s| s.count).sum::<u64>(),
        slots,
        "every expired report is preserved in the frozen prefix"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Retention boundary: every query over the retained range of a
    /// bounded collector — served through the live query engine — agrees
    /// with an unbounded collector fed the exact same fleet, to ≤ 1e-9.
    #[test]
    fn retained_queries_agree_with_unbounded_collector(
        users in 5usize..20,
        slots in 30usize..80,
        w in 2usize..8,
        r_mult in 1u64..4,
        seed in 0u64..1000,
    ) {
        let r = (w as u64) * r_mult;
        let population = ldp_streams::synthetic::taxi_population(users, slots, seed);
        let fleet = ClientFleet::new(FleetConfig {
            spec: PipelineSpec::sw(SessionKind::Capp),
            epsilon: 2.0,
            w,
            seed,
            threads: 3,
        });
        let unbounded = Collector::new(CollectorConfig {
            shards: 3,
            ..CollectorConfig::default()
        });
        let bounded = Collector::new(CollectorConfig {
            shards: 3,
            retention: SlotRetention::Last(r),
            ..CollectorConfig::default()
        });
        fleet.drive(&population, 0..slots, &unbounded).unwrap();
        fleet.drive(&population, 0..slots, &bounded).unwrap();

        let reference = unbounded.snapshot();
        let engine = QueryEngine::new(&bounded);
        let view = engine.view();

        prop_assert!(view.slot_count() as u64 <= r, "memory bound violated");
        prop_assert_eq!(view.total_reports(), reference.total_reports());
        prop_assert_eq!(view.slot_end(), reference.slot_end());

        // Per-slot agreement over the retained range.
        for slot in view.retained_base()..view.slot_end() {
            let live = view.slot_mean(slot as usize).unwrap();
            let full = reference.slot_mean(slot as usize).unwrap();
            prop_assert!((live - full).abs() < 1e-9, "slot {}: {} vs {}", slot, live, full);
        }
        // Windowed queries over any retained subrange agree.
        let base = view.retained_base() as usize;
        let end = view.slot_end() as usize;
        let live = view.windowed_mean(base..end).unwrap();
        let full = reference.windowed_mean(base..end).unwrap();
        prop_assert!((live - full).abs() < 1e-9, "window: {} vs {}", live, full);
        // Crowd-level queries are retention-independent (user sums are
        // lifetime state).
        let live_pop = view.population_mean().unwrap();
        let full_pop = reference.population_mean().unwrap();
        prop_assert!((live_pop - full_pop).abs() < 1e-9);
        let (a, b) = (engine.per_user_means(), reference.per_user_means());
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        // Queries that reach below the retained range answer `None`, never
        // a silently wrong number.
        if base > 0 {
            prop_assert_eq!(view.slot_mean(base - 1), None);
            prop_assert_eq!(view.windowed_mean(base - 1..end), None);
        }
    }
}
