//! Equivalence and liveness guarantees of the work-stealing parallel
//! shard fold:
//!
//! 1. Parallel fold ≡ serial fold: identical per-batch `IngestOutcome`
//!    ledgers and **bit-identical** collector state — per-user means,
//!    slot sums/sum-of-squares, and the incremental `mean_sum` behind
//!    the live population mean are compared exactly (`to_bits`), not
//!    ≤1e-9 — across worker counts 1/2/8, on hostile columns, single
//!    batches and multi-batch streams alike. Within a batch each shard's
//!    run is folded by exactly one thread in index order, so which
//!    thread stole which run must not be observable in any bit.
//! 2. Shutdown loses nothing: stopping the pool while submitter threads
//!    are mid-stream never strands a run — every batch's ledger stays
//!    exact and every report lands.
//!
//! Only a batch of at least [`PARALLEL_FOLD_MIN`] accepted reports goes
//! to the pool, so every batch meant for it here is sized past that.

use ldp_collector::{
    Collector, CollectorConfig, IngestOutcome, QueryEngine, ReportBatch, PARALLEL_FOLD_MIN,
};
use proptest::prelude::*;

/// Rows of [`hostile_columns`] that clear [`PARALLEL_FOLD_MIN`]: about
/// 57 % of its rows are accepted, so twice the threshold clears it with
/// a wide margin.
const POOL_ROWS: usize = 2 * PARALLEL_FOLD_MIN;

/// Deterministic hostile columns: ~1/7 non-finite values, ~1/5 slots at
/// or beyond the collector bound, user ids spread across shards.
fn hostile_columns(n: usize, seed: u64, max_slots: u64) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
    let mut users = Vec::with_capacity(n);
    let mut slots = Vec::with_capacity(n);
    let mut values = Vec::with_capacity(n);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDEAD_BEEF;
    for _ in 0..n {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        users.push(state >> 48);
        slots.push(match state % 5 {
            0 => max_slots + (state >> 20) % 1000, // dropped
            _ => (state >> 8) % max_slots,
        });
        values.push(match state % 7 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => ((state >> 13) % 4096) as f64 / 4096.0 - 0.5,
        });
    }
    (users, slots, values)
}

fn collector(shards: usize, workers: usize) -> Collector {
    Collector::new(CollectorConfig {
        shards,
        max_slots: 64,
        ingest_workers: workers,
        ..CollectorConfig::default()
    })
}

/// Asserts two collectors hold bit-identical state: exact ledgers, exact
/// per-user means, exact slot statistics, and an exactly equal live
/// population mean (the incremental per-shard `mean_sum` scalar).
fn assert_bit_identical(serial: &Collector, parallel: &Collector, label: &str) {
    assert_eq!(serial.total_reports(), parallel.total_reports(), "{label}");
    assert_eq!(
        serial.dropped_reports(),
        parallel.dropped_reports(),
        "{label}"
    );
    assert_eq!(
        serial.rejected_reports(),
        parallel.rejected_reports(),
        "{label}"
    );
    let (a, b) = (serial.snapshot(), parallel.snapshot());
    assert_eq!(serial.per_user_rows(), parallel.per_user_rows(), "{label}");
    let means_a: Vec<u64> = a.per_user_means().iter().map(|m| m.to_bits()).collect();
    let means_b: Vec<u64> = b.per_user_means().iter().map(|m| m.to_bits()).collect();
    assert_eq!(means_a, means_b, "{label}: per-user means bit-identical");
    assert_eq!(a.slot_count(), b.slot_count(), "{label}");
    for (x, y) in a.slots().iter().zip(b.slots()) {
        assert_eq!(x.count, y.count, "{label}");
        assert_eq!(x.sum.to_bits(), y.sum.to_bits(), "{label}");
        assert_eq!(x.sum_sq.to_bits(), y.sum_sq.to_bits(), "{label}");
    }
    assert_eq!(serial.per_user_rows(), parallel.per_user_rows(), "{label}");
    // The live path's population mean comes from the incremental
    // per-shard mean-sum scalar maintained at ingest — exact, not ≤1e-9.
    let (qa, qb) = (QueryEngine::new(serial), QueryEngine::new(parallel));
    qa.refresh();
    qb.refresh();
    assert_eq!(
        qa.view().population_mean().map(f64::to_bits),
        qb.view().population_mean().map(f64::to_bits),
        "{label}: live mean_sum bit-identical"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_fold_matches_serial_fold_bit_for_bit(
        n in POOL_ROWS..POOL_ROWS + 3000,
        seed in 0u64..10_000,
        shards in 2usize..9,
    ) {
        let (users, slots, values) = hostile_columns(n, seed, 64);
        let batch = ReportBatch::from_columns(users, slots, values);
        let serial = collector(shards, 0);
        let serial_outcome = serial.ingest_outcome(&batch);
        prop_assert_eq!(
            serial_outcome.accepted + serial_outcome.dropped + serial_outcome.rejected,
            n as u64
        );
        for workers in [1usize, 2, 8] {
            let parallel = collector(shards, workers);
            let outcome = parallel.ingest_outcome(&batch);
            prop_assert_eq!(serial_outcome, outcome, "workers = {}", workers);
            let runs = parallel.telemetry().snapshot().counter("collector.pool.runs");
            prop_assert!(runs.unwrap_or(0) >= 2, "workers = {}: the pool folded", workers);
            assert_bit_identical(&serial, &parallel, &format!("workers = {workers}"));
        }
    }

    #[test]
    fn multi_batch_streams_agree_across_worker_counts(
        batches in 2usize..6,
        n in POOL_ROWS..POOL_ROWS + 600,
        seed in 0u64..10_000,
    ) {
        // Several batches through the same pool: descriptors, scratch and
        // injector are re-used batch over batch; ledgers and state must
        // keep agreeing with a serial collector fed the same stream.
        let serial = collector(4, 0);
        let parallel = collector(4, 2);
        for b in 0..batches {
            let (users, slots, values) = hostile_columns(n, seed ^ (b as u64) << 32, 64);
            let batch = ReportBatch::from_columns(users, slots, values);
            let serial_outcome = serial.ingest_outcome(&batch);
            let parallel_outcome = parallel.ingest_outcome(&batch);
            prop_assert_eq!(serial_outcome, parallel_outcome, "batch {}", b);
        }
        assert_bit_identical(&serial, &parallel, "multi-batch stream");
    }
}

/// The pool engages for real (not silently falling back to the serial
/// path): runs flow through the injector and the parallel-fold histogram
/// records every dispatched batch.
#[test]
fn pool_dispatch_is_observable_in_telemetry() {
    let c = collector(4, 2);
    let (users, slots, values) = hostile_columns(POOL_ROWS, 7, 64);
    let batch = ReportBatch::from_columns(users, slots, values);
    for _ in 0..5 {
        c.ingest_outcome(&batch);
    }
    let snap = c.telemetry().snapshot();
    // 4 shards × 5 batches, every shard touched by the spread users.
    assert_eq!(snap.counter("collector.pool.runs"), Some(20));
    assert_eq!(
        snap.histogram("collector.ingest.fold_parallel_nanos")
            .expect("histogram registered")
            .count(),
        5
    );
    // Injector drained: the live depth gauge must read zero at rest.
    assert_eq!(snap.gauge("collector.pool.queue_depth"), Some(0));
}

/// Single-user uploads fold as runs on the submitting thread — no routing
/// pass, no pool — while mixed batches around them go through the pool.
/// Interleaved, the two paths must leave the state a serial collector
/// reaches, bit for bit, and the run path must add nothing to the pool's
/// work. A mixed batch that merely *starts and ends* on one user is still
/// a mixed batch (routed, and below the threshold folded inline).
#[test]
fn single_user_uploads_between_mixed_batches_stay_bit_identical_and_off_the_pool() {
    let serial = collector(4, 0);
    let parallel = collector(4, 2);
    // Above every hostile user id (`state >> 48`).
    const BOOKEND: u64 = 1 << 20;
    const MIDDLE: u64 = BOOKEND + 1;
    let mut mixed_batches = 0;
    for round in 0..6u64 {
        let (users, slots, values) = hostile_columns(POOL_ROWS, round, 64);
        let mixed = ReportBatch::from_columns(users, slots, values);
        let (_, slots, values) = hostile_columns(700, 100 + round, 64);
        let upload = ReportBatch::from_columns(vec![round % 3; 700], slots, values);
        let bookended = ReportBatch::from_columns(
            vec![BOOKEND, MIDDLE, BOOKEND],
            vec![1, 2, 3],
            vec![0.25, 0.5, 0.75],
        );
        for batch in [&mixed, &upload, &bookended] {
            assert_eq!(
                serial.ingest_outcome(batch),
                parallel.ingest_outcome(batch),
                "round {round}"
            );
        }
        mixed_batches += 1;
    }
    assert_bit_identical(&serial, &parallel, "uploads between mixed batches");
    let rows = serial.per_user_rows();
    assert!(
        rows.contains(&(MIDDLE, 6, 3.0)),
        "the middle row of [BOOKEND, MIDDLE, BOOKEND] went to MIDDLE"
    );
    let snap = parallel.telemetry().snapshot();
    assert_eq!(
        snap.histogram("collector.ingest.fold_parallel_nanos")
            .expect("histogram registered")
            .count(),
        mixed_batches,
        "only the mixed batches were dispatched"
    );
}

/// Stopping the pool mid-stream must not lose or double-fold a single
/// run: submitter threads keep ingesting right through the shutdown, and
/// the final state equals a serial reference fed the same batches.
#[test]
fn pool_shutdown_mid_stream_loses_no_run() {
    const THREADS: u64 = 4;
    const BATCHES: u64 = 16;
    const REPORTS: usize = PARALLEL_FOLD_MIN;
    let parallel = Collector::new(CollectorConfig {
        shards: 4,
        max_slots: 64,
        ingest_workers: 4,
        ..CollectorConfig::default()
    });
    // Disjoint per-thread user universes, so each user's report order is
    // determined by its own thread and per-user state stays exactly
    // comparable to the serial reference below.
    let thread_batch = |t: u64, b: u64| {
        let mut batch = ReportBatch::with_capacity(REPORTS);
        let mut state = (t << 32) | (b + 1);
        for i in 0..REPORTS {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            batch.push(
                (t << 32) | (state >> 48),
                i as u64 % 64,
                ((state >> 11) % 4096) as f64 / 4096.0,
            );
        }
        batch
    };
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let parallel = &parallel;
            scope.spawn(move || {
                for b in 0..BATCHES {
                    let outcome = parallel.ingest_outcome(&thread_batch(t, b));
                    // The ledger stays exact even for batches racing the
                    // pool shutdown.
                    assert_eq!(
                        outcome,
                        IngestOutcome {
                            accepted: REPORTS as u64,
                            dropped: 0,
                            rejected: 0
                        }
                    );
                }
            });
        }
        // Drop the pool mid-stream, while submitters are in flight.
        std::thread::sleep(std::time::Duration::from_millis(2));
        parallel.stop_ingest_pool();
    });
    assert_eq!(parallel.total_reports(), THREADS * BATCHES * REPORTS as u64);

    let serial = Collector::new(CollectorConfig {
        shards: 4,
        max_slots: 64,
        ingest_workers: 0,
        ..CollectorConfig::default()
    });
    for t in 0..THREADS {
        for b in 0..BATCHES {
            serial.ingest(&thread_batch(t, b));
        }
    }
    // Per-user state is exactly comparable (disjoint users per thread);
    // cross-user slot sums depend on thread interleaving, so compare
    // counts there, not float bits.
    assert_eq!(serial.per_user_rows(), parallel.per_user_rows());
    let (a, b) = (serial.snapshot(), parallel.snapshot());
    assert_eq!(a.slot_count(), b.slot_count());
    for (x, y) in a.slots().iter().zip(b.slots()) {
        assert_eq!(x.count, y.count);
    }
}
