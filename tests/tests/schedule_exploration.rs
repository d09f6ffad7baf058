//! Schedule-exploration tests: the concurrent core under `ldp-check`'s
//! deterministic cooperative scheduler.
//!
//! Two tiers live here:
//!
//! * **Always-on** — the checker's own machinery, exercised through a
//!   distilled *known-buggy* pool fixture (completion counter released
//!   before the fold — exactly the ordering bug the real
//!   `RunDesc::fold` comment rules out): the explorer must find the
//!   injected bug, the recorded trace must replay to the identical
//!   failure, `LDP_CHECK_REPLAY` must work end to end across a process
//!   boundary, and the trace codec must round-trip (proptest).
//!   `ldp_check::sync` types work unconditionally, so these run in
//!   plain `cargo test`.
//! * **`cfg(ldp_check)`** — the *real* collector invariants: IngestPool
//!   exactly-once folds (bit-identical to serial under every explored
//!   schedule), shutdown-mid-stream losing nothing, and shard-epoch
//!   bump vs. `QueryEngine::refresh` consistency. These need the
//!   collector compiled against the instrumented facade:
//!   `RUSTFLAGS="--cfg ldp_check" cargo test --test schedule_exploration`.

use ldp_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use ldp_check::sync::{thread, Arc, Mutex};
use ldp_check::{check, explore, replay, Config, FailureKind, Trace};
use proptest::prelude::*;
use std::time::Duration;

const ITEMS: usize = 2;
const PARK: Duration = Duration::from_micros(50);

/// Distilled work-stealing pool round: a submitter enqueues `ITEMS` runs,
/// a worker drains them, the submitter parks until the completion counter
/// drains and then reads the folded result.
///
/// `buggy` injects the seeded regression: the worker releases the batch's
/// completion counter BEFORE folding its run, so a schedule that wakes
/// the submitter between the two observes `pending == 0` with a short
/// sum. The fixed variant folds first, exactly like the real
/// `RunDesc::fold`.
fn pool_round(buggy: bool) {
    let queue = Arc::new(Mutex::new((1..=ITEMS).collect::<Vec<usize>>()));
    let sum = Arc::new(AtomicUsize::new(0));
    let pending = Arc::new(AtomicUsize::new(ITEMS));
    let submitter = thread::current();

    let worker = {
        let queue = Arc::clone(&queue);
        let sum = Arc::clone(&sum);
        let pending = Arc::clone(&pending);
        thread::spawn(move || {
            for _ in 0..ITEMS {
                let item = loop {
                    if let Some(item) = queue.lock().unwrap().pop() {
                        break item;
                    }
                    thread::yield_now();
                };
                if buggy {
                    // BUG: completion released before the fold lands.
                    let prev = pending.fetch_sub(1, Ordering::AcqRel);
                    sum.fetch_add(item, Ordering::SeqCst);
                    if prev == 1 {
                        submitter.unpark();
                    }
                } else {
                    sum.fetch_add(item, Ordering::SeqCst);
                    let prev = pending.fetch_sub(1, Ordering::AcqRel);
                    if prev == 1 {
                        submitter.unpark();
                    }
                }
            }
        })
    };

    while pending.load(Ordering::Acquire) > 0 {
        thread::park_timeout(PARK);
    }
    assert_eq!(
        sum.load(Ordering::SeqCst),
        ITEMS * (ITEMS + 1) / 2,
        "batch completion released before fold"
    );
    worker.join().unwrap();
}

fn fixture_config() -> Config {
    Config::default().executions(500).seed(0xB0B)
}

#[test]
fn checker_finds_injected_pool_bug() {
    let outcome = explore(&fixture_config(), || pool_round(true));
    let failure = outcome
        .failure()
        .expect("the explorer must find the seeded completion-counter bug");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure
            .message
            .contains("batch completion released before fold"),
        "unexpected failure: {}",
        failure.message
    );
    assert!(!failure.trace.is_empty());
}

#[test]
fn injected_bug_trace_replays_identically() {
    let failure = explore(&fixture_config(), || pool_round(true))
        .failure()
        .cloned()
        .expect("explorer should find the bug");
    // Replay twice: the failing interleaving must reproduce
    // deterministically, decision for decision.
    for round in 0..2 {
        let replayed = replay(&failure.trace, || pool_round(true));
        let rf = replayed.failure().expect("replay must fail identically");
        assert_eq!(rf.kind, FailureKind::Panic, "round {round}");
        assert_eq!(rf.message, failure.message, "round {round}");
        assert_eq!(rf.trace, failure.trace, "round {round}: same decisions");
    }
}

#[test]
fn fixed_pool_fixture_passes_exploration() {
    let outcome = explore(&fixture_config(), || pool_round(false));
    assert!(
        outcome.failure().is_none(),
        "fold-before-release must survive exploration: {:?}",
        outcome.failure()
    );
}

/// The `LDP_CHECK_REPLAY` end-to-end path: a recorded trace crosses a
/// process boundary through the environment variable and still replays
/// to the same panic. The child is this same test binary running
/// [`replay_target_for_e2e_child`] (a no-op unless `LDP_CHECK_E2E_CHILD`
/// is set).
#[test]
fn ldp_check_replay_env_replays_across_processes() {
    let failure = explore(&fixture_config(), || pool_round(true))
        .failure()
        .cloned()
        .expect("explorer should find the bug");
    let exe = std::env::current_exe().expect("own test binary path");
    let output = std::process::Command::new(exe)
        .args(["replay_target_for_e2e_child", "--exact", "--nocapture"])
        .env("LDP_CHECK_REPLAY", failure.trace.to_string())
        .env("LDP_CHECK_E2E_CHILD", "1")
        .output()
        .expect("spawn child test process");
    let combined = format!(
        "{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        !output.status.success(),
        "child replay should fail; output:\n{combined}"
    );
    assert!(
        combined.contains("batch completion released before fold"),
        "child must reproduce the original assertion; output:\n{combined}"
    );
    assert!(
        combined.contains("replayed Panic"),
        "failure must be reported by the replay path, not re-exploration:\n{combined}"
    );
}

/// Child half of [`ldp_check_replay_env_replays_across_processes`];
/// passes trivially when run as part of the normal suite.
#[test]
fn replay_target_for_e2e_child() {
    if std::env::var("LDP_CHECK_E2E_CHILD").is_err() {
        return;
    }
    check("buggy-pool-fixture", &fixture_config(), || pool_round(true));
}

/// Telemetry snapshot-vs-record consistency: a recorder bumps counters
/// with explicit scheduling points between them while a reader snapshots
/// the registry. A snapshot may be stale but never torn backwards: the
/// counter it reports is monotone across snapshots and lands exactly on
/// the recorded total.
#[test]
fn telemetry_snapshot_vs_record_consistency() {
    const BUMPS: u64 = 4;
    let outcome = explore(&Config::default().executions(300).seed(0x7e1e), || {
        let registry = Arc::new(ldp_telemetry::Registry::new());
        let counter = registry.counter("check.records");
        let done = Arc::new(AtomicBool::new(false));

        let recorder = {
            let done = Arc::clone(&done);
            thread::spawn(move || {
                for _ in 0..BUMPS {
                    counter.inc();
                    thread::yield_now();
                }
                done.store(true, Ordering::Release);
            })
        };

        let mut last = 0;
        loop {
            let finished = done.load(Ordering::Acquire);
            let seen = registry
                .snapshot()
                .counter("check.records")
                .expect("counter is registered");
            assert!(seen >= last, "snapshot went backwards: {seen} after {last}");
            last = seen;
            if finished {
                break;
            }
            thread::yield_now();
        }
        recorder.join().unwrap();
        let final_seen = registry
            .snapshot()
            .counter("check.records")
            .expect("counter is registered");
        assert_eq!(final_seen, BUMPS, "every record visible after join");
    });
    assert!(outcome.failure().is_none(), "{:?}", outcome.failure());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Trace codec round trip: encode → parse → identical schedule.
    #[test]
    fn trace_codec_round_trips(decisions in proptest::collection::vec(0u32..u32::MAX, 0..200)) {
        let trace = Trace::from_decisions(decisions.clone());
        let encoded = trace.to_string();
        let parsed: Trace = encoded.parse().expect("well-formed trace must parse");
        prop_assert_eq!(parsed.decisions(), &decisions[..]);
    }
}

// ====================================================================
// Real-collector invariants: compiled only when the workspace is built
// with RUSTFLAGS="--cfg ldp_check", which routes the collector's sync
// facade to the instrumented types.
// ====================================================================

#[cfg(ldp_check)]
mod checked_collector {
    use super::*;
    use ldp_collector::{Collector, CollectorConfig, QueryEngine, ReportBatch, PARALLEL_FOLD_MIN};

    /// Executions per invariant. CI raises this to 1000+ via
    /// `LDP_CHECK_EXECUTIONS`.
    fn invariant_config(seed: u64) -> Config {
        Config::default().executions(200).seed(seed)
    }

    fn checked_collector(shards: usize, workers: usize) -> Collector {
        Collector::new(CollectorConfig {
            shards,
            max_slots: 64,
            ingest_workers: workers,
            ..CollectorConfig::default()
        })
    }

    /// The smallest batch the pool takes: [`PARALLEL_FOLD_MIN`] accepted
    /// rows. Its size adds no scheduling point — the pool hands out one
    /// run per shard, whatever the rows — and its 12 users keep each
    /// execution's tables small.
    fn pool_batch() -> ReportBatch {
        let mut batch = ReportBatch::with_capacity(PARALLEL_FOLD_MIN);
        for row in 0..PARALLEL_FOLD_MIN as u64 {
            // User ids chosen to spread across 3 shards.
            let value = ((row % 16) as f64) / 16.0 - 0.3;
            batch.push((row % 12) * 7 + 1, row % 5, value);
        }
        batch
    }

    /// IngestPool submit/steal never loses or double-folds a run, and the
    /// batch completion counter always drains: under every explored
    /// schedule a pooled fold returns an exact ledger and state
    /// bit-identical to a serial fold of the same batch.
    #[test]
    fn pool_fold_exactly_once_under_exploration() {
        check("pool-exactly-once", &invariant_config(0x9001), || {
            let batch = pool_batch();
            let serial = checked_collector(3, 0);
            let serial_outcome = serial.ingest_outcome(&batch);

            let pooled = checked_collector(3, 2);
            let outcome = pooled.ingest_outcome(&batch);
            assert_eq!(outcome, serial_outcome, "ledger must be exact");
            assert_eq!(outcome.accepted, batch.len() as u64);
            assert_eq!(pooled.total_reports(), serial.total_reports());
            let runs = pooled.telemetry().snapshot().counter("collector.pool.runs");
            assert_eq!(runs, Some(3), "one pooled run per shard");

            let (a, b) = (serial.snapshot(), pooled.snapshot());
            let bits_a: Vec<u64> = a.per_user_means().iter().map(|m| m.to_bits()).collect();
            let bits_b: Vec<u64> = b.per_user_means().iter().map(|m| m.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "per-user means bit-identical");
            assert_eq!(
                a.windowed_mean(0..5).map(f64::to_bits),
                b.windowed_mean(0..5).map(f64::to_bits),
                "windowed mean bit-identical"
            );
        });
    }

    /// Stopping the pool mid-stream loses nothing: a concurrent
    /// `stop_ingest_pool` may race the submit at any scheduling point,
    /// but the submitter's participation loop folds whatever workers no
    /// longer drain — the ledger stays exact.
    #[test]
    fn pool_shutdown_mid_stream_loses_nothing() {
        check("pool-shutdown-exact", &invariant_config(0x9002), || {
            let collector = Arc::new(checked_collector(3, 2));
            let stopper = {
                let collector = Arc::clone(&collector);
                thread::spawn(move || collector.stop_ingest_pool())
            };
            let batch = pool_batch();
            let outcome = collector.ingest_outcome(&batch);
            assert_eq!(outcome.accepted, batch.len() as u64);
            assert_eq!(collector.total_reports(), batch.len() as u64);
            stopper.join().unwrap();
        });
    }

    /// Shard-epoch bump vs. `QueryEngine::refresh`: a concurrent refresher
    /// never observes a torn view — version and total-report counts are
    /// monotone while an ingester folds, and once the ingester is done a
    /// final refresh converges exactly on the collector's books.
    #[test]
    fn epoch_refresh_never_tears_under_exploration() {
        const BATCHES: u64 = 3;
        check(
            "epoch-refresh-consistency",
            &invariant_config(0x9003),
            || {
                let collector = Arc::new(checked_collector(3, 0));
                let engine = QueryEngine::new(Arc::clone(&collector));

                let ingester = {
                    let collector = Arc::clone(&collector);
                    thread::spawn(move || {
                        for b in 0..BATCHES {
                            let batch = ReportBatch::from_stream(b * 11 + 3, 0, &[0.25, -0.125]);
                            let outcome = collector.ingest_outcome(&batch);
                            assert_eq!(outcome.accepted, 2);
                        }
                    })
                };

                let mut last_version = 0;
                let mut last_total = 0;
                for _ in 0..4 {
                    engine.refresh();
                    let view = engine.view();
                    assert!(view.version() >= last_version, "version must be monotone");
                    assert!(
                        view.total_reports() >= last_total,
                        "report count must be monotone"
                    );
                    // Note: `view.total_reports() <= collector.total_reports()`
                    // does NOT hold mid-ingest and is deliberately not asserted:
                    // the checker found (seed 0xcfd4247fc79acc76, 1000-execution
                    // sweep) that `refresh` reads the shards directly while the
                    // collector's ledger is a telemetry counter bumped *after*
                    // the folds land, so a refresh in that window briefly runs
                    // ahead. The two agree exactly at quiescence, below.
                    last_version = view.version();
                    last_total = view.total_reports();
                }

                ingester.join().unwrap();
                engine.refresh();
                let view = engine.view();
                assert_eq!(view.total_reports(), BATCHES * 2);
                assert_eq!(view.total_reports(), collector.total_reports());
                let snap = collector.snapshot();
                assert_eq!(
                    view.windowed_mean(0..2).map(f64::to_bits),
                    snap.windowed_mean(0..2).map(f64::to_bits),
                    "live view agrees with snapshot after quiescence"
                );
            },
        );
    }
}

// ====================================================================
// Kill exploration: the durability protocol under every kill the
// scheduler can reach. The log runs on a model disk whose kill predicate
// loads a checker atomic before every disk operation (every create,
// write, sync, rename, remove, listing and directory sync), so each
// operation is a place the explored schedules kill the process; then the
// power goes, keeping only what the disk made durable. Recovery must
// always yield a collector that is an exact prefix of the ingest
// history — every acked batch present, nothing double-counted.
// ====================================================================

#[cfg(ldp_check)]
mod checked_durability {
    use super::*;
    use integration_tests::ModelDisk;
    use ldp_collector::{Collector, CollectorConfig, ReportBatch};
    use ldp_server::durable::{self, FlushPolicy, WalConfig};
    use ldp_server::wire::{Frame, IngestScratch, HEADER_LEN};

    const BATCHES: u64 = 6;
    const ROWS: u64 = 12;

    fn invariant_config(seed: u64) -> Config {
        Config::default().executions(200).seed(seed)
    }

    /// A model disk whose process dies once `flag` is set. The flag is a
    /// **checker** atomic, so its load before each disk operation *is*
    /// the scheduling decision the explorer permutes against the killer
    /// thread's store; the model asks it holding none of its own locks.
    fn killable_disk(flag: &Arc<AtomicBool>) -> ModelDisk {
        let flag = Arc::clone(flag);
        ModelDisk::killed_when(move |_| flag.load(Ordering::Acquire))
    }

    /// Serial fold order: recovered state must be bit-comparable to a
    /// reference fold, so no ingest pool.
    fn collector_config() -> CollectorConfig {
        CollectorConfig {
            shards: 3,
            max_slots: 64,
            ingest_workers: 0,
            ..CollectorConfig::default()
        }
    }

    /// One-record segments: every append rolls, the fourth closed segment
    /// calls for a checkpoint, and two more batches land after it — a
    /// six-batch run crosses segment creates, a checkpoint's write,
    /// rename and prune, and appends past it, so the explorer kills at
    /// every kind of disk operation, not just write/sync.
    fn wal_config(disk: &ModelDisk) -> WalConfig {
        WalConfig::new("wal")
            .flush(FlushPolicy::Barrier)
            .segment_bytes(1)
            .disk(std::sync::Arc::new(disk.clone()))
    }

    fn batch(salt: u64) -> ReportBatch {
        let mut b = ReportBatch::new();
        for row in 0..ROWS {
            b.push(
                salt * 100 + row % 6,
                row % 5,
                ((salt * 13 + row) % 32) as f64 / 32.0,
            );
        }
        b
    }

    fn ingest_payload(salt: u64) -> Vec<u8> {
        let mut framed = Vec::new();
        Frame::encode_ingest_into(&batch(salt), &mut framed);
        framed[HEADER_LEN..].to_vec()
    }

    /// The acceptance invariant: under EVERY explored crash schedule,
    /// recovery yields exactly the first `k` batches for some `k ≥` the
    /// number of acked (barrier-completed) batches — bit-identical to a
    /// reference fold of that prefix. No acked row lost, no row folded
    /// twice, never a partial batch.
    #[test]
    fn every_crash_schedule_recovers_an_acked_prefix_exactly() {
        check(
            "wal-crash-point-recovery",
            &invariant_config(0xDEAD),
            || {
                let flag = Arc::new(AtomicBool::new(false));
                let disk = killable_disk(&flag);

                let (collector, durability, _) =
                    durable::recover(collector_config(), wal_config(&disk)).expect("fresh recover");

                // Writer: the server's per-frame protocol — append+fold, then
                // barrier, then retention — counting batches whose barrier
                // (the ack precondition) completed before the "machine died".
                let writer = {
                    let collector = Arc::clone(&collector);
                    let durability = Arc::clone(&durability);
                    thread::spawn(move || {
                        let mut scratch = IngestScratch::default();
                        let mut acked = 0u64;
                        for salt in 0..BATCHES {
                            let payload = ingest_payload(salt);
                            if durability
                                .ingest_frame(&collector, &payload, &mut scratch)
                                .is_err()
                            {
                                break;
                            }
                            if durability.barrier().is_err() {
                                break;
                            }
                            acked += 1;
                            if durability.maybe_checkpoint(&collector).is_err() {
                                break;
                            }
                        }
                        acked
                    })
                };
                // Killer: one checker-scheduled store. Every interleaving of
                // this store with the writer's disk operations is a distinct
                // kill location.
                let killer = {
                    let flag = Arc::clone(&flag);
                    thread::spawn(move || flag.store(true, Ordering::Release))
                };
                let acked = writer.join().unwrap();
                killer.join().unwrap();

                // Power loss on top of the kill: only what the disk made
                // durable survives, whatever the log believed it synced.
                let cut = disk.durable();
                drop(durability);
                drop(collector);

                let (recovered, _, _) = durable::recover(collector_config(), wal_config(&cut))
                    .expect("recovery must succeed from any crash point");
                let total = recovered.total_reports();
                assert_eq!(total % ROWS, 0, "a torn batch must never fold");
                let k = total / ROWS;
                assert!(k >= acked, "acked batch lost: {k} survived < {acked} acked");
                assert!(k <= BATCHES, "phantom batches: {k} > {BATCHES} written");

                let reference = Collector::new(collector_config());
                for salt in 0..k {
                    reference.ingest_outcome(&batch(salt));
                }
                assert_eq!(
                    recovered.total_reports(),
                    reference.total_reports(),
                    "double-counted rows after recovery"
                );
                let (a, b) = (recovered.snapshot(), reference.snapshot());
                let bits_a: Vec<u64> = a.per_user_means().iter().map(|m| m.to_bits()).collect();
                let bits_b: Vec<u64> = b.per_user_means().iter().map(|m| m.to_bits()).collect();
                assert_eq!(bits_a, bits_b, "recovered means must be bit-exact");
                assert_eq!(
                    a.windowed_mean(0..5).map(f64::to_bits),
                    b.windowed_mean(0..5).map(f64::to_bits),
                    "windowed mean bit-exact"
                );
            },
        );
    }
}
