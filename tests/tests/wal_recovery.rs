//! Write-ahead log durability: the recovery contract end to end.
//!
//! Four tiers:
//!
//! * **Record codec (proptest)** — encode → decode round-trips exactly;
//!   every torn-tail cut and every single-bit flip is refused at or
//!   before the damaged record, never decoded as garbage.
//! * **Replay idempotence** — recovering the same directory any number of
//!   times yields bit-identical collectors: no record is ever
//!   double-counted, with or without an interleaved checkpoint.
//! * **Server round trip** — a durable loopback [`Server`] driven over
//!   real TCP, shut down cleanly, recovers to the exact pre-shutdown
//!   state: ledger tallies exact, per-user means bit-identical,
//!   wire-served metrics carrying the WAL books.
//! * **Power loss** — `simulate_power_loss` (buffered bytes vanish, the
//!   active segment truncates to the fsync high-water mark) loses only
//!   what no ack ever covered: every synced batch survives exactly.

use ldp_collector::{Collector, CollectorConfig, ReportBatch};
use ldp_server::durable::{self, Durability, FlushPolicy, WalConfig};
use ldp_server::wire::{Frame, IngestScratch, HEADER_LEN};
use ldp_server::{RemoteCollector, Server, ServerConfig};
use ldp_wal::record::{decode_record, encode_record, encoded_len, RecordKind};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// Fresh per-test WAL directory (pid + counter: parallel test threads and
/// leftover dirs from a killed run cannot collide).
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ldp-wal-it-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wal_config(dir: &PathBuf) -> WalConfig {
    WalConfig::new(dir).flush(FlushPolicy::Barrier)
}

/// Serial collector config: deterministic fold order so recovered state
/// can be compared bit-for-bit against a reference fold.
fn collector_config() -> CollectorConfig {
    CollectorConfig {
        shards: 3,
        ingest_workers: 0,
        ..CollectorConfig::default()
    }
}

/// A deterministic batch; `salt` varies users/values so batches are
/// distinguishable in the recovered state.
fn batch(salt: u64) -> ReportBatch {
    let mut b = ReportBatch::new();
    for row in 0..16u64 {
        let user = salt * 100 + row % 8;
        let slot = row % 4;
        let value = ((salt * 31 + row * 7) % 64) as f64 / 64.0;
        assert!(b.push(user, slot, value));
    }
    b
}

/// The raw ingest frame *payload* for a batch — what the server appends
/// to the WAL and what recovery replays.
fn ingest_payload(b: &ReportBatch) -> Vec<u8> {
    let mut framed = Vec::new();
    Frame::encode_ingest_into(b, &mut framed);
    framed[HEADER_LEN..].to_vec()
}

/// Drives `n` batches through the durability layer the way a server
/// connection thread does (append → fold), with a barrier at the end.
fn ingest_batches(d: &Durability, collector: &Collector, salts: std::ops::Range<u64>) {
    let mut scratch = IngestScratch::default();
    for salt in salts {
        let payload = ingest_payload(&batch(salt));
        d.ingest_frame(collector, &payload, &mut scratch)
            .expect("durable ingest");
    }
    d.barrier().expect("barrier");
}

fn user_mean_bits(c: &Collector) -> Vec<u64> {
    c.snapshot()
        .per_user_means()
        .iter()
        .map(|m| m.to_bits())
        .collect()
}

fn assert_same_state(a: &Collector, b: &Collector, what: &str) {
    assert_eq!(a.total_reports(), b.total_reports(), "{what}: accepted");
    assert_eq!(a.dropped_reports(), b.dropped_reports(), "{what}: dropped");
    assert_eq!(
        a.rejected_reports(),
        b.rejected_reports(),
        "{what}: rejected"
    );
    assert_eq!(
        a.upstream_rejected_reports(),
        b.upstream_rejected_reports(),
        "{what}: upstream-rejected"
    );
    assert_eq!(
        user_mean_bits(a),
        user_mean_bits(b),
        "{what}: per-user means must be bit-identical"
    );
    let (sa, sb) = (a.snapshot(), b.snapshot());
    assert_eq!(
        sa.windowed_mean(0..4).map(f64::to_bits),
        sb.windowed_mean(0..4).map(f64::to_bits),
        "{what}: windowed mean must be bit-identical"
    );
}

// ====================================================================
// Replay idempotence
// ====================================================================

/// Recovering the same log twice — and a third time after the second
/// recovery — yields bit-identical collectors, and both match a reference
/// collector that folded the same batches directly: nothing lost, nothing
/// double-counted.
#[test]
fn repeated_recovery_is_idempotent_and_matches_direct_fold() {
    let dir = temp_dir("idem");
    const BATCHES: u64 = 8;
    {
        let (collector, d, report) =
            durable::recover(collector_config(), wal_config(&dir)).expect("fresh recover");
        assert_eq!(report.replayed_records, 0);
        ingest_batches(&d, &collector, 0..BATCHES);
        // No seal: models a crash after the barrier.
    }
    let reference = Collector::new(collector_config());
    for salt in 0..BATCHES {
        reference.ingest_outcome(&batch(salt));
    }

    let (first, _, r1) = durable::recover(collector_config(), wal_config(&dir)).expect("recover 1");
    assert_eq!(r1.replayed_records, BATCHES);
    assert_eq!(r1.replayed_rows, BATCHES * 16);
    assert!(!r1.clean);
    let (second, _, r2) =
        durable::recover(collector_config(), wal_config(&dir)).expect("recover 2");
    assert_eq!(
        r2.replayed_records, BATCHES,
        "replay must not consume the log"
    );
    assert_same_state(&first, &second, "recover twice");
    assert_same_state(&first, &reference, "recovery vs direct fold");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint mid-stream splits recovery into restore + replay; records
/// at or below the covered sequence are filtered, so the checkpointed
/// prefix is never folded twice.
#[test]
fn checkpoint_plus_replay_never_double_counts() {
    let dir = temp_dir("ckpt");
    {
        let (collector, d, _) =
            durable::recover(collector_config(), wal_config(&dir)).expect("fresh recover");
        ingest_batches(&d, &collector, 0..5);
        d.checkpoint_now(&collector).expect("checkpoint");
        ingest_batches(&d, &collector, 5..8);
    }
    let reference = Collector::new(collector_config());
    for salt in 0..8 {
        reference.ingest_outcome(&batch(salt));
    }
    let (recovered, _, report) =
        durable::recover(collector_config(), wal_config(&dir)).expect("recover");
    assert_eq!(
        report.replayed_records, 3,
        "only the post-checkpoint tail replays"
    );
    assert_eq!(recovered.total_reports(), 8 * 16);
    assert_same_state(&recovered, &reference, "checkpoint + replay");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A recovered collector keeps ingesting correctly: recovery leaves the
/// log appendable and the state continuable, and a second recovery sees
/// the combined history.
#[test]
fn recovery_then_more_ingest_then_recovery_again() {
    let dir = temp_dir("cont");
    {
        let (collector, d, _) = durable::recover(collector_config(), wal_config(&dir)).unwrap();
        ingest_batches(&d, &collector, 0..3);
    }
    {
        let (collector, d, report) =
            durable::recover(collector_config(), wal_config(&dir)).unwrap();
        assert_eq!(report.replayed_records, 3);
        ingest_batches(&d, &collector, 3..6);
    }
    let reference = Collector::new(collector_config());
    for salt in 0..6 {
        reference.ingest_outcome(&batch(salt));
    }
    let (recovered, _, report) = durable::recover(collector_config(), wal_config(&dir)).unwrap();
    assert_eq!(report.replayed_records, 6);
    assert_same_state(&recovered, &reference, "recover, continue, recover");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ====================================================================
// Server round trip over real TCP
// ====================================================================

/// The headline guarantee: a durable server driven over loopback TCP,
/// shut down cleanly, recovers to the exact pre-shutdown state — and the
/// server's wire-served metrics carry the WAL books.
#[test]
fn durable_server_clean_shutdown_recovers_exact_state() {
    let dir = temp_dir("srv");
    const BATCHES: u64 = 6;
    let (pre_totals, pre_means) = {
        let (collector, d, _) =
            durable::recover(collector_config(), wal_config(&dir)).expect("fresh recover");
        let server = Server::bind_durable(Arc::clone(&collector), d, ServerConfig::default())
            .expect("bind durable server");
        let mut client = RemoteCollector::connect(server.local_addr()).expect("connect");
        for salt in 0..BATCHES {
            client.ingest(&batch(salt)).expect("ingest");
        }
        let ack = client.sync().expect("sync");
        assert_eq!(ack.accepted, BATCHES * 16);
        let metrics = client.metrics().expect("metrics");
        assert_eq!(metrics.counter("wal.appended_records"), Some(BATCHES));
        assert!(metrics.counter("wal.appended_bytes") > Some(0));
        drop(client);
        let totals = collector.total_reports();
        let means = user_mean_bits(&collector);
        drop(server); // graceful: joins threads, checkpoints, seals
        (totals, means)
    };

    let (recovered, d2, report) =
        durable::recover(collector_config(), wal_config(&dir)).expect("recover");
    assert!(report.clean, "sealed shutdown must recover clean");
    assert_eq!(report.replayed_records, 0, "seal means zero replay");
    assert_eq!(recovered.total_reports(), pre_totals);
    assert_eq!(user_mean_bits(&recovered), pre_means);

    // The recovered server serves — and a fresh client sees the restored
    // ledger through the wire.
    let server = Server::bind_durable(Arc::clone(&recovered), d2, ServerConfig::default())
        .expect("rebind recovered server");
    let mut client = RemoteCollector::connect(server.local_addr()).expect("reconnect");
    assert_eq!(client.summary().expect("summary").total_reports, pre_totals);
    drop(client);
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Power loss mid-stream: unsynced pipelined frames vanish, but **every
/// batch covered by an ack survives exactly** — the recovered state is
/// bit-identical to a direct fold of the acked prefix.
#[test]
fn power_loss_preserves_every_acked_batch_exactly() {
    let dir = temp_dir("ploss");
    const ACKED: u64 = 3;
    {
        let (collector, d, _) =
            durable::recover(collector_config(), wal_config(&dir)).expect("fresh recover");
        let server = Server::bind_durable(
            Arc::clone(&collector),
            Arc::clone(&d),
            ServerConfig::default(),
        )
        .expect("bind durable server");
        let mut client = RemoteCollector::connect(server.local_addr()).expect("connect");
        for salt in 0..ACKED {
            client.ingest(&batch(salt)).expect("ingest");
        }
        let ack = client.sync().expect("sync");
        assert_eq!(ack.accepted, ACKED * 16);
        // Two more pipelined frames, never synced. The metrics query (FIFO
        // behind them on the connection) proves the server folded and
        // appended them before the power cut — they are lost from the
        // *log tail*, not unsent.
        client.ingest(&batch(ACKED)).expect("ingest");
        client.ingest(&batch(ACKED + 1)).expect("ingest");
        let metrics = client.metrics().expect("metrics");
        assert_eq!(metrics.counter("wal.appended_records"), Some(ACKED + 2));
        d.simulate_power_loss().expect("power loss");
        drop(client);
        drop(server); // shutdown's seal fails on the dead log (counted), harmless
    }
    let reference = Collector::new(collector_config());
    for salt in 0..ACKED {
        reference.ingest_outcome(&batch(salt));
    }
    let (recovered, _, report) =
        durable::recover(collector_config(), wal_config(&dir)).expect("recover");
    assert_eq!(
        report.replayed_records, ACKED,
        "exactly the fsynced (acked) prefix survives"
    );
    assert!(!report.clean);
    assert_same_state(&recovered, &reference, "post-power-loss state");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An ingest frame that the WAL refuses is answered with UNAVAILABLE and
/// never folded — the fail-closed side of "ack implies durable".
#[test]
fn dead_log_fails_closed_over_the_wire() {
    let dir = temp_dir("dead");
    let (collector, d, _) =
        durable::recover(collector_config(), wal_config(&dir)).expect("fresh recover");
    let server = Server::bind_durable(
        Arc::clone(&collector),
        Arc::clone(&d),
        ServerConfig::default(),
    )
    .expect("bind durable server");
    d.simulate_power_loss().expect("kill the log");
    let mut client = RemoteCollector::connect(server.local_addr()).expect("connect");
    // The frame reaches a server whose log is dead: it must refuse (the
    // error surfaces on the sync read; the connection is closed), and the
    // collector must not have folded the frame.
    let _ = client.ingest(&batch(0));
    assert!(client.sync().is_err(), "no ack may cover an unlogged frame");
    assert_eq!(collector.total_reports(), 0, "refused frame must not fold");
    drop(client);
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ====================================================================
// Record codec properties
// ====================================================================

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Encode → decode is the identity, and the encoded length matches
    /// the accounting helper.
    #[test]
    fn record_codec_round_trips(
        seq in 1u64..u64::MAX,
        is_seal in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let kind = if is_seal { RecordKind::Seal } else { RecordKind::Ingest };
        let mut buf = Vec::new();
        encode_record(seq, kind, &payload, &mut buf);
        prop_assert_eq!(buf.len(), encoded_len(payload.len()));
        let (rec, used) = decode_record(&buf)
            .expect("fresh record must decode")
            .expect("non-empty buffer");
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(rec.seq, seq);
        prop_assert_eq!(rec.kind, kind);
        prop_assert_eq!(rec.payload, &payload[..]);
    }

    /// Torn tail: cut a multi-record buffer anywhere strictly inside it —
    /// the scan yields exactly the records that fit before the cut and
    /// refuses the rest. Never a phantom record, never a reordering.
    #[test]
    fn torn_tail_yields_only_the_intact_prefix(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..6),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for (i, p) in payloads.iter().enumerate() {
            encode_record(i as u64 + 1, RecordKind::Ingest, p, &mut buf);
            boundaries.push(buf.len());
        }
        // Cut strictly inside the buffer (cut == len is the clean case).
        let cut = ((buf.len() as f64 - 1.0) * cut_frac) as usize;
        let torn = &buf[..cut];
        let intact = boundaries.iter().filter(|b| **b <= cut).count() - 1;

        let mut off = 0;
        let mut seen = 0usize;
        loop {
            match decode_record(&torn[off..]) {
                Ok(None) => break,
                Ok(Some((rec, used))) => {
                    prop_assert_eq!(rec.seq, seen as u64 + 1, "order preserved");
                    prop_assert_eq!(rec.payload, &payloads[seen][..]);
                    seen += 1;
                    off += used;
                }
                Err(_) => break,
            }
        }
        prop_assert_eq!(seen, intact, "exactly the records before the cut");
    }

    /// Any single bit flip is detected: the scan stops at (or before) the
    /// damaged record, and every record it does yield is an exact
    /// original. Garbage never decodes.
    #[test]
    fn single_bit_flip_never_decodes_as_garbage(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..48), 1..5),
        flip_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for (i, p) in payloads.iter().enumerate() {
            encode_record(i as u64 + 1, RecordKind::Ingest, p, &mut buf);
            boundaries.push(buf.len());
        }
        let flip_at = ((buf.len() - 1) as f64 * flip_frac) as usize;
        buf[flip_at] ^= 1 << bit;
        let damaged_record = boundaries.iter().filter(|b| **b <= flip_at).count() - 1;

        let mut off = 0;
        let mut seen = 0usize;
        loop {
            match decode_record(&buf[off..]) {
                Ok(None) => break,
                Ok(Some((rec, used))) => {
                    prop_assert_eq!(rec.seq, seen as u64 + 1);
                    prop_assert_eq!(rec.payload, &payloads[seen][..]);
                    seen += 1;
                    off += used;
                }
                Err(_) => break,
            }
        }
        prop_assert!(
            seen <= damaged_record,
            "scan must stop at or before the flipped record ({seen} > {damaged_record})"
        );
    }
}
