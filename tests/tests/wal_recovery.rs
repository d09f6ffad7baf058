//! Write-ahead log durability: the recovery contract end to end.
//!
//! Five tiers:
//!
//! * **Log frame codec (proptest)** — a record is a wire frame: enveloped
//!   → parsed + verified round-trips exactly; every torn-tail cut and
//!   every single-bit flip is refused at or before the damaged frame,
//!   never decoded as garbage.
//! * **Replay idempotence** — recovering the same directory any number of
//!   times yields bit-identical collectors: no record is ever
//!   double-counted, with or without an interleaved checkpoint.
//! * **Server round trip** — a durable loopback [`Server`] driven over
//!   real TCP, shut down cleanly, recovers to the exact pre-shutdown
//!   state: ledger tallies exact, per-user means bit-identical,
//!   wire-served metrics carrying the WAL books.
//! * **Power loss** — on a [`ModelDisk`], which keeps its own books of
//!   what each `fsync` and directory sync made durable (not the log's):
//!   a kill at every disk operation of a small durable workload, then
//!   every power cut the disk allows (each surviving prefix of the
//!   unsynced tails, each prefix of the unsynced directory changes), loses
//!   only what no ack ever covered — recovery yields an acked prefix,
//!   bit-identical to a direct fold of it.
//! * **Fail closed** — after a failed write or `fsync` the log is dead: no
//!   later barrier promises anything, and recovery yields exactly the
//!   acked prefix.

use integration_tests::ModelDisk;
use ldp_collector::{Collector, CollectorConfig, ReportBatch};
use ldp_server::durable::{self, Durability, FlushPolicy, WalConfig};
use ldp_server::wire::{Frame, IngestScratch, HEADER_LEN};
use ldp_server::{RemoteCollector, Server, ServerConfig};
use ldp_wal::record::{envelope, Header, DEFAULT_MAX_PAYLOAD, INGEST, SEAL};
use ldp_wal::{Wal, WalError};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Every length a power cut may leave of an unsynced tail.
fn every_prefix(tail: &[u8]) -> Vec<usize> {
    (0..=tail.len()).collect()
}

/// The lengths of an unsynced tail of wire frames a power cut is tried
/// at: its ends, the end of every whole frame in it, and one byte either
/// side of each. Every byte would repeat these outcomes across thousands
/// of recoveries.
fn frame_cuts(tail: &[u8]) -> Vec<usize> {
    let mut ends = vec![0, tail.len()];
    let mut at = 0;
    while let Some(header) = tail[at..].first_chunk().and_then(|h| Header::parse(h).ok()) {
        at += HEADER_LEN + header.payload_len as usize;
        if at > tail.len() {
            break;
        }
        ends.push(at);
    }
    let mut cuts: Vec<usize> = ends
        .into_iter()
        .flat_map(|end| [end.saturating_sub(1), end, end + 1])
        .filter(|&cut| cut <= tail.len())
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// A log in directory `wal` of `disk`.
fn model_config(disk: &ModelDisk) -> WalConfig {
    WalConfig::new("wal")
        .flush(FlushPolicy::Barrier)
        .disk(Arc::new(disk.clone()))
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
    let upstream = |c: &Collector| {
        let books = c.telemetry().snapshot();
        books.counter("collector.reports.rejected_upstream")
    };
    assert_eq!(upstream(a), upstream(b), "{what}: upstream-rejected");
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
    let disk = ModelDisk::new();
    const ACKED: u64 = 3;
    let cuts: Vec<ModelDisk> = {
        let (collector, d, _) =
            durable::recover(collector_config(), model_config(&disk)).expect("fresh recover");
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
        // The power goes now: what the server does after it (its
        // shutdown's checkpoint and seal) never reaches these disks.
        let cuts = disk.power_cuts(every_prefix).collect();
        drop(client);
        drop(server);
        cuts
    };
    let reference = Collector::new(collector_config());
    for salt in 0..ACKED {
        reference.ingest_outcome(&batch(salt));
    }
    assert!(!cuts.is_empty());
    for cut in cuts {
        let (recovered, _, report) =
            durable::recover(collector_config(), model_config(&cut)).expect("recover");
        assert_eq!(
            report.replayed_records, ACKED,
            "exactly the fsynced (acked) prefix survives"
        );
        assert!(!report.clean);
        assert_same_state(&recovered, &reference, "post-power-loss state");
    }
}

/// A power cut keeps what a barrier synced and drops what was only
/// appended since, on the log alone.
#[test]
fn power_loss_drops_unsynced_only() {
    let disk = ModelDisk::new();
    let (mut wal, _) = Wal::open(model_config(&disk)).unwrap();
    wal.append(b"durable").unwrap();
    wal.barrier().unwrap();
    wal.append(b"volatile").unwrap();
    let cut = disk.durable();
    let (recovery, mut replayed) = (Wal::recovery(model_config(&cut)).unwrap(), Vec::new());
    recovery
        .replay(|seq, payload| {
            replayed.push((seq, payload.to_vec()));
            Ok(())
        })
        .unwrap();
    assert_eq!(replayed, [(1, b"durable".to_vec())]);
}

/// An ingest frame that the WAL refuses is answered with UNAVAILABLE and
/// never folded — the fail-closed side of "ack implies durable".
#[test]
fn dead_log_fails_closed_over_the_wire() {
    let dead = Arc::new(AtomicBool::new(false));
    let disk = {
        let dead = Arc::clone(&dead);
        ModelDisk::killed_when(move |_| dead.load(Ordering::Relaxed))
    };
    let (collector, d, _) =
        durable::recover(collector_config(), model_config(&disk)).expect("fresh recover");
    let server = Server::bind_durable(
        Arc::clone(&collector),
        Arc::clone(&d),
        ServerConfig::default(),
    )
    .expect("bind durable server");
    // The disk fails from here on; the checkpoint's failed disk operation
    // kills the log.
    dead.store(true, Ordering::Relaxed);
    assert!(d.checkpoint_now(&collector).is_err());
    let mut client = RemoteCollector::connect(server.local_addr()).expect("connect");
    // The frame reaches a server whose log is dead: it must refuse (the
    // error surfaces on the sync read; the connection is closed), and the
    // collector must not have folded the frame.
    let _ = client.ingest(&batch(0));
    assert!(client.sync().is_err(), "no ack may cover an unlogged frame");
    assert_eq!(collector.total_reports(), 0, "refused frame must not fold");
    drop(client);
    drop(server);
}

// ====================================================================
// Kills and power cuts at every disk operation
// ====================================================================

/// One-record segments: every append rolls, the fourth closed segment
/// calls for a checkpoint, and more batches land after it, so a run
/// crosses segment creates, a checkpoint's write, rename and prune, and
/// appends past it.
fn crash_config(disk: &ModelDisk) -> WalConfig {
    model_config(disk).segment_bytes(1)
}

const CRASH_BATCHES: u64 = 6;

/// The server's per-frame protocol on `disk` — append + fold, barrier,
/// retention — until the disk dies; returns the batches whose barrier
/// (the ack's precondition) returned `Ok`.
fn acked_batches(disk: &ModelDisk) -> u64 {
    let Ok((collector, d, _)) = durable::recover(collector_config(), crash_config(disk)) else {
        return 0;
    };
    let mut scratch = IngestScratch::default();
    let mut acked = 0;
    for salt in 0..CRASH_BATCHES {
        let payload = ingest_payload(&batch(salt));
        if d.ingest_frame(&collector, &payload, &mut scratch).is_err() || d.barrier().is_err() {
            break;
        }
        acked += 1;
        if d.maybe_checkpoint(&collector).is_err() {
            break;
        }
    }
    acked
}

/// Direct folds of the first `k` batches, for every `k` in `0..=batches`.
fn prefix_folds(batches: u64) -> Vec<Collector> {
    (0..=batches)
        .map(|k| {
            let reference = Collector::new(collector_config());
            for salt in 0..k {
                reference.ingest_outcome(&batch(salt));
            }
            reference
        })
        .collect()
}

/// Recovers `disk` and asserts it holds exactly the first `k` batches for
/// some `k` in `acked..=written`, bit-identical to `references[k]`.
fn assert_acked_prefix(disk: &ModelDisk, acked: u64, written: u64, references: &[Collector]) {
    let (recovered, _, _) = durable::recover(collector_config(), crash_config(disk))
        .expect("recovery must succeed after any kill and power cut");
    let total = recovered.total_reports();
    assert_eq!(total % 16, 0, "a torn batch must never fold");
    let k = total / 16;
    assert!(k >= acked, "acked batch lost: {k} survived < {acked} acked");
    assert!(k <= written, "phantom batches: {k} > {written} written");
    assert_same_state(&recovered, &references[k as usize], "acked prefix");
}

/// Every disk operation of a six-batch durable run is a kill point, and
/// every power cut the disk allows after the kill — each prefix of each
/// directory's unsynced changes, and each unsynced tail cut at every frame
/// boundary and one byte either side ([`frame_cuts`]) — recovers an acked
/// prefix exactly. The disk's own books, not the log's, decide what
/// survives: a log that skips an `fsync` or a directory sync loses an
/// acked batch here.
#[test]
fn every_kill_and_power_cut_recovers_an_acked_prefix_exactly() {
    let references = prefix_folds(CRASH_BATCHES);
    let whole = ModelDisk::new();
    assert_eq!(acked_batches(&whole), CRASH_BATCHES);
    let operations = whole.operations();
    let mut cuts = 0;
    for kill_at in 0..=operations {
        let disk = ModelDisk::killed_when(move |op| op >= kill_at);
        let acked = acked_batches(&disk);
        for cut in disk.power_cuts(frame_cuts) {
            assert_acked_prefix(&cut, acked, CRASH_BATCHES, &references);
            cuts += 1;
        }
    }
    assert!(
        cuts > operations,
        "{cuts} power cuts over {operations} kill points"
    );
}

/// Acks `batches` batches on `disk`, then appends one more frame that no
/// barrier has covered yet.
fn acked_then_pending(disk: &ModelDisk, batches: u64) -> (Arc<Collector>, Arc<Durability>) {
    let (collector, d, _) =
        durable::recover(collector_config(), model_config(disk)).expect("fresh recover");
    ingest_batches(&d, &collector, 0..batches);
    let payload = ingest_payload(&batch(batches));
    d.ingest_frame(&collector, &payload, &mut IngestScratch::default())
        .expect("an append only buffers");
    (collector, d)
}

/// After a failed write-path operation no barrier returns `Ok` again, an
/// append is refused, and every power cut recovers the acked batches.
fn assert_failed_closed(disk: &ModelDisk, collector: &Collector, d: &Durability, acked: u64) {
    assert!(d.barrier().is_err(), "a retried barrier must not ack");
    let payload = ingest_payload(&batch(acked + 1));
    assert!(d
        .ingest_frame(collector, &payload, &mut IngestScratch::default())
        .is_err());
    assert!(d.barrier().is_err(), "no later barrier may ack");
    let reference = prefix_folds(acked)
        .pop()
        .expect("the fold of all acked batches");
    for cut in disk.power_cuts(every_prefix) {
        let (recovered, _, _) =
            durable::recover(collector_config(), model_config(&cut)).expect("recover");
        assert_same_state(&recovered, &reference, "exactly the acked prefix");
    }
}

/// A short write leaves part of a frame in the segment. Writing the
/// whole buffer again after it would tear the log there, and replay cuts
/// off every frame after a tear — acked ones too.
#[test]
fn a_short_write_kills_the_log() {
    let disk = ModelDisk::new();
    let (collector, d) = acked_then_pending(&disk, 3);
    disk.fail_next_write(HEADER_LEN + 5);
    match d.barrier() {
        Err(e) => assert!(
            !e.to_string().contains("dead"),
            "the write's own error: {e}"
        ),
        Ok(()) => panic!("a barrier acked a failed write"),
    }
    assert_failed_closed(&disk, &collector, &d, 3);
}

/// A failed `fsync` drops the bytes it did not write, and a retry finds
/// nothing dirty and succeeds: acking after it would promise lost bytes.
#[test]
fn a_failed_sync_kills_the_log() {
    let disk = ModelDisk::new();
    let (collector, d) = acked_then_pending(&disk, 3);
    disk.fail_next_sync();
    assert!(d.barrier().is_err(), "a barrier acked a failed sync");
    assert_failed_closed(&disk, &collector, &d, 3);
}

/// A dead log answers every write-path call with [`WalError::Dead`].
#[test]
fn a_dead_log_refuses_every_write_path_call() {
    let disk = ModelDisk::new();
    let (mut wal, _) = Wal::open(model_config(&disk)).unwrap();
    wal.append(b"row").unwrap();
    disk.fail_next_sync();
    assert!(matches!(wal.barrier(), Err(WalError::Io(_))));
    assert!(matches!(wal.append(b"x"), Err(WalError::Dead)));
    assert!(matches!(wal.barrier(), Err(WalError::Dead)));
    assert!(matches!(wal.checkpoint(b"S"), Err(WalError::Dead)));
    assert!(matches!(wal.seal(), Err(WalError::Dead)));
}

// ====================================================================
// Log frame codec properties
// ====================================================================

/// The log frame heading `buf`, read by the log scan's rules: its type and
/// payload plus its encoded length, or `None` when `buf` does not start
/// with a whole frame whose header parses, whose length is in bounds,
/// whose type is `INGEST` or `SEAL` and whose payload verifies.
fn log_frame(buf: &[u8]) -> Option<(u8, &[u8], usize)> {
    let header = Header::parse(buf.first_chunk()?).ok()?;
    if header.payload_len > DEFAULT_MAX_PAYLOAD || !matches!(header.frame_type, INGEST | SEAL) {
        return None;
    }
    let payload = buf[HEADER_LEN..].get(..header.payload_len as usize)?;
    header.verify(payload).ok()?;
    Some((header.frame_type, payload, HEADER_LEN + payload.len()))
}

/// Appends `payloads` as ingest frames; returns where each frame ends.
fn log_frames(payloads: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut boundaries = vec![0usize];
    for p in payloads {
        envelope(&mut buf, INGEST, |out| out.extend_from_slice(p));
        boundaries.push(buf.len());
    }
    (buf, boundaries)
}

/// The payloads of the frames a scan of `buf` yields before it stops.
fn scanned(buf: &[u8]) -> Vec<&[u8]> {
    let mut off = 0;
    let mut seen = Vec::new();
    while let Some((kind, payload, used)) = log_frame(&buf[off..]) {
        assert_eq!(kind, INGEST, "only ingest frames were written");
        seen.push(payload);
        off += used;
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Envelope → parse + verify is the identity, and the encoded length
    /// is the header plus the payload.
    #[test]
    fn record_codec_round_trips(
        is_seal in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let kind = if is_seal { SEAL } else { INGEST };
        let mut buf = Vec::new();
        envelope(&mut buf, kind, |out| out.extend_from_slice(&payload));
        prop_assert_eq!(buf.len(), HEADER_LEN + payload.len());
        let (decoded, body, used) = log_frame(&buf).expect("fresh frame must decode");
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(decoded, kind);
        prop_assert_eq!(body, &payload[..]);
    }

    /// Torn tail: cut a multi-frame buffer anywhere strictly inside it —
    /// the scan yields exactly the frames that fit before the cut and
    /// refuses the rest. Never a phantom frame, never a reordering.
    #[test]
    fn torn_tail_yields_only_the_intact_prefix(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..6),
        cut_frac in 0.0f64..1.0,
    ) {
        let (buf, boundaries) = log_frames(&payloads);
        // Cut strictly inside the buffer (cut == len is the clean case).
        let cut = ((buf.len() as f64 - 1.0) * cut_frac) as usize;
        let intact = boundaries.iter().filter(|b| **b <= cut).count() - 1;
        let seen = scanned(&buf[..cut]);
        prop_assert_eq!(seen.len(), intact, "exactly the frames before the cut");
        for (got, sent) in seen.iter().zip(&payloads) {
            prop_assert_eq!(*got, &sent[..], "order preserved");
        }
    }

    /// Any single bit flip is detected: the scan stops at (or before) the
    /// damaged frame, and every frame it does yield is an exact original.
    /// Garbage never decodes.
    #[test]
    fn single_bit_flip_never_decodes_as_garbage(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..48), 1..5),
        flip_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let (mut buf, boundaries) = log_frames(&payloads);
        let flip_at = ((buf.len() - 1) as f64 * flip_frac) as usize;
        buf[flip_at] ^= 1 << bit;
        let damaged_frame = boundaries.iter().filter(|b| **b <= flip_at).count() - 1;
        let seen = scanned(&buf);
        prop_assert!(
            seen.len() <= damaged_frame,
            "scan must stop at or before the flipped frame ({} > {damaged_frame})",
            seen.len()
        );
        for (got, sent) in seen.iter().zip(&payloads) {
            prop_assert_eq!(*got, &sent[..]);
        }
    }
}
