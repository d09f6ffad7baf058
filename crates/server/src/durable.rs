//! Crash durability for the server: the write-ahead ingest log glue.
//!
//! [`Durability`] wraps an [`ldp_wal::Wal`] and enforces the protocol the
//! recovery proof rests on:
//!
//! 1. **Append before fold.** Every accepted ingest frame's payload is
//!    appended to the log *before* it is folded into the collector
//!    ([`Durability::ingest_frame`]). A frame that cannot be logged is not
//!    folded (fail-closed) — an unlogged fold would silently vanish on
//!    crash while the connection ledger claimed it.
//! 2. **Barrier before ack.** `IngestSync` calls [`Durability::barrier`]
//!    before the `IngestAck` travels, so an ack is a durable promise: the
//!    covered bytes are `fsync`ed.
//! 3. **Checkpoint excludes folds.** The append→fold pair runs under the
//!    read side of a gate; [`Durability::checkpoint_now`] takes the write
//!    side while serializing collector state, so a checkpoint covering
//!    sequence `S` contains *exactly* the folds of records `≤ S` — no fold
//!    lost below `S`, none double-counted above it.
//!
//! Recovery ([`recover`]) restores the checkpointed collector state and
//! replays surviving records through the **same** apply path live ingest
//! uses, so ledger tallies and telemetry books land exactly where the
//! pre-crash process left them. It is one streaming pass in two
//! overlapped stages: a scan thread reads and verifies the log through the
//! WAL's one bounded buffer and hands verified payloads over in a few
//! recycled chunks, while the calling thread decodes and folds them — so
//! memory is a handful of chunks however long the log is.
//!
//! Locking uses the `ldp_collector::sync` facade throughout, so `ldp-check`
//! can explore crash points (see `ldp_wal::CrashPoint`) as deterministic
//! scheduling decisions. Lock order is gate → wal; both paths respect it.
//! The scan thread is the one exception by construction: it runs no
//! collector code and touches no facade primitive (a scoped `std` thread
//! and two `std::sync::mpsc` queues), so the explorer sees exactly the
//! decisions the calling thread makes.

use crate::wire::{IngestScratch, IngestView};
use ldp_collector::sync::{Arc, Mutex, RwLock};
use ldp_collector::{Collector, CollectorConfig, IngestOutcome};
use ldp_telemetry::{Counter, Gauge, Histogram, Registry};
use ldp_wal::{Recovered, Recovery, Wal, WalError};
use std::io;
use std::sync::mpsc;
use std::time::Instant;

pub use ldp_wal::{FlushPolicy, WalConfig};

/// Durability metric handles (`wal.*` in the shared registry). Like every
/// other subsystem's metrics, these ARE the books — the metrics snapshot
/// reads the same atomics.
#[derive(Debug)]
struct WalMetrics {
    /// `wal.appended_records`.
    appended_records: Arc<Counter>,
    /// `wal.appended_bytes` (encoded record bytes, framing included).
    appended_bytes: Arc<Counter>,
    /// `wal.flush_nanos` — time inside a sync barrier (flush + fsync).
    flush_nanos: Arc<Histogram>,
    /// `wal.segments` — live segment files on disk.
    segments: Arc<Gauge>,
    /// `wal.checkpoints` — checkpoints taken since boot.
    checkpoints: Arc<Counter>,
    /// `wal.checkpoint_nanos` — serialize + write + prune, per checkpoint.
    checkpoint_nanos: Arc<Histogram>,
    /// `wal.recovered_records` — records replayed at the last recovery.
    recovered_records: Arc<Counter>,
    /// `wal.recovered_rows` — reports accepted during that replay.
    recovered_rows: Arc<Counter>,
    /// `wal.truncated_bytes` — torn-tail bytes discarded at recovery.
    truncated_bytes: Arc<Counter>,
    /// `wal.recovery_nanos` — wall time of the last [`recover`] call.
    recovery_nanos: Arc<Gauge>,
    /// `wal.failures` — operations refused by the log (I/O errors or a
    /// dead log); each one also closed the offending connection.
    failures: Arc<Counter>,
}

impl WalMetrics {
    fn register(registry: &Registry) -> Self {
        Self {
            appended_records: registry.counter("wal.appended_records"),
            appended_bytes: registry.counter("wal.appended_bytes"),
            flush_nanos: registry.histogram("wal.flush_nanos"),
            segments: registry.gauge("wal.segments"),
            checkpoints: registry.counter("wal.checkpoints"),
            checkpoint_nanos: registry.histogram("wal.checkpoint_nanos"),
            recovered_records: registry.counter("wal.recovered_records"),
            recovered_rows: registry.counter("wal.recovered_rows"),
            truncated_bytes: registry.counter("wal.truncated_bytes"),
            recovery_nanos: registry.gauge("wal.recovery_nanos"),
            failures: registry.counter("wal.failures"),
        }
    }
}

/// What recovery found and replayed; the `ldp-server` binary prints this
/// as its `RECOVERED` boot line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Highest sequence the restored checkpoint covered (0 = none).
    pub checkpoint_seq: u64,
    /// Ingest records replayed from segments.
    pub replayed_records: u64,
    /// Reports accepted while replaying those records.
    pub replayed_rows: u64,
    /// Torn/corrupt tail bytes physically discarded.
    pub truncated_bytes: u64,
    /// True when the previous process sealed the log on clean shutdown
    /// (zero records to replay, no damage).
    pub clean: bool,
}

/// The server's durability layer: WAL + append/checkpoint gate + metrics.
///
/// Shared by every connection thread via `Arc`. The WAL itself is
/// single-writer (`&mut self`); the facade mutex serializes appenders —
/// which is also what makes a barrier a *group* commit: one fsync covers
/// every frame buffered by every connection since the last one.
pub struct Durability {
    wal: Mutex<Wal>,
    /// Append→fold runs under `read`; checkpoint state serialization under
    /// `write`. This is what makes a checkpoint a consistent cut: no frame
    /// can be logged-but-not-folded or folded-but-not-logged while the
    /// collector state is being serialized.
    gate: RwLock<()>,
    metrics: WalMetrics,
}

impl std::fmt::Debug for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durability").finish_non_exhaustive()
    }
}

/// Replay/live shared apply path: decode the ingest payload and fold it,
/// with the upstream-rejection bookkeeping in the same order the serve
/// loop historically used — replayed books match live books bit-for-bit.
fn apply_payload(
    collector: &Collector,
    payload: &[u8],
    scratch: &mut IngestScratch,
) -> io::Result<IngestOutcome> {
    let view = IngestView::parse(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let rejected_upstream = view.rejected_upstream();
    let columns = view.columns(scratch);
    collector.note_upstream_rejections(rejected_upstream);
    Ok(collector.ingest_outcome(&columns))
}

fn wal_err(e: WalError) -> io::Error {
    match e {
        WalError::Io(io) => io,
        other => io::Error::other(other.to_string()),
    }
}

impl Durability {
    /// Log-then-fold one ingest frame (`payload` is the raw ingest frame
    /// payload, exactly the bytes [`IngestView::parse`] accepts). Runs
    /// under the read side of the checkpoint gate.
    ///
    /// # Errors
    /// Fail-closed: when the append cannot be persisted the frame is *not*
    /// folded and the error is returned; the caller must refuse the frame
    /// (close the connection) so no ack can ever cover it.
    pub fn ingest_frame(
        &self,
        collector: &Collector,
        payload: &[u8],
        scratch: &mut IngestScratch,
    ) -> io::Result<IngestOutcome> {
        let gate = self.gate.read().expect("durability gate poisoned");
        let append = {
            let mut wal = self.wal.lock().expect("wal mutex poisoned");
            wal.append(payload)
        };
        if let Err(e) = append {
            self.metrics.failures.inc();
            drop(gate);
            return Err(wal_err(e));
        }
        self.metrics.appended_records.inc();
        self.metrics
            .appended_bytes
            .add(ldp_wal::record::encoded_len(payload.len()) as u64);
        let outcome = apply_payload(collector, payload, scratch);
        drop(gate);
        outcome
    }

    /// Flush + `fsync` everything appended so far (the IngestSync hook).
    ///
    /// # Errors
    /// A failed barrier means durability cannot be promised; the caller
    /// must not send the ack.
    pub fn barrier(&self) -> io::Result<()> {
        let timer = self.metrics.flush_nanos.timer();
        let result = {
            let mut wal = self.wal.lock().expect("wal mutex poisoned");
            wal.barrier()
        };
        match result {
            Ok(()) => {
                drop(timer);
                Ok(())
            }
            Err(e) => {
                timer.cancel();
                self.metrics.failures.inc();
                Err(wal_err(e))
            }
        }
    }

    /// Whether the log has grown enough that a checkpoint should run.
    #[must_use]
    pub fn wants_checkpoint(&self) -> bool {
        self.wal
            .lock()
            .expect("wal mutex poisoned")
            .wants_checkpoint()
    }

    /// Take a checkpoint if the log asks for one (the post-ingest hook).
    /// The test here is the cheap one every frame pays; it is repeated
    /// once the write gate is held, so connections that all saw the log
    /// asking take one checkpoint between them.
    ///
    /// # Errors
    /// See [`Durability::checkpoint_now`].
    pub fn maybe_checkpoint(&self, collector: &Collector) -> io::Result<()> {
        if !self.wants_checkpoint() {
            return Ok(());
        }
        self.checkpoint_under_gate(collector, true).map(|_| ())
    }

    /// Serialize the collector under the write gate and persist it as a
    /// WAL checkpoint, pruning covered segments. Returns the covered
    /// sequence. Unconditional: [`Self::seal`] needs a checkpoint however
    /// short the log is.
    ///
    /// # Errors
    /// I/O failures and a dead (crashed) log.
    pub fn checkpoint_now(&self, collector: &Collector) -> io::Result<u64> {
        self.checkpoint_under_gate(collector, false)
    }

    /// Checkpoints under the write gate. With `only_if_wanted` the trigger
    /// is re-tested once the gate is held: connections that all saw
    /// `wants_checkpoint()` queue up here, and only the first still finds
    /// the log asking — the rest would serialize the collector again to
    /// cover zero new records, with all ingest stalled. They return the
    /// sequence the first one's checkpoint covered.
    fn checkpoint_under_gate(
        &self,
        collector: &Collector,
        only_if_wanted: bool,
    ) -> io::Result<u64> {
        let timer = self.metrics.checkpoint_nanos.timer();
        let gate = self.gate.write().expect("durability gate poisoned");
        if only_if_wanted {
            let wal = self.wal.lock().expect("wal mutex poisoned");
            if !wal.wants_checkpoint() {
                timer.cancel();
                return Ok(wal.checkpoint_seq());
            }
        }
        let state = collector.encode_checkpoint();
        let result = {
            let mut wal = self.wal.lock().expect("wal mutex poisoned");
            let covered = wal.checkpoint(&state);
            if covered.is_ok() {
                self.metrics.segments.set(wal.live_segments() as i64);
            }
            covered
        };
        drop(gate);
        match result {
            Ok(covered) => {
                drop(timer);
                self.metrics.checkpoints.inc();
                Ok(covered)
            }
            Err(e) => {
                timer.cancel();
                self.metrics.failures.inc();
                Err(wal_err(e))
            }
        }
    }

    /// Clean-shutdown hook: checkpoint everything, then seal the active
    /// segment. After a seal, recovery replays zero records. Best-effort —
    /// a failure is counted but not propagated (the process is exiting;
    /// the log is still replay-correct without the seal, just not
    /// fast-path clean).
    pub fn seal(&self, collector: &Collector) {
        if self.checkpoint_now(collector).is_err() {
            return; // failure already counted; a crash-consistent log remains
        }
        let mut wal = self.wal.lock().expect("wal mutex poisoned");
        if wal.seal().is_err() {
            self.metrics.failures.inc();
        }
    }

    /// Test support: model a kill -9 plus power loss (see
    /// [`Wal::simulate_power_loss`]). The log is dead afterwards; every
    /// subsequent operation fails fail-closed.
    ///
    /// # Errors
    /// Filesystem errors truncating the active segment.
    pub fn simulate_power_loss(&self) -> io::Result<()> {
        let mut wal = self.wal.lock().expect("wal mutex poisoned");
        wal.simulate_power_loss().map_err(wal_err)
    }

    /// Ingest records appended since boot (not counting replay).
    #[must_use]
    pub fn appended_records(&self) -> u64 {
        self.metrics.appended_records.get()
    }
}

/// Payload bytes a hand-off chunk collects before it travels to the fold.
const HANDOFF_BYTES: usize = 1 << 20;
/// Hand-off chunks that exist at once: one filling, one queued, one folding.
const HANDOFF_CHUNKS: usize = 3;

/// Verified ingest payloads on their way from the scan thread to the fold,
/// packed back to back; `ends[i]` is where payload `i` stops.
#[derive(Default)]
struct Chunk {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

/// Open (or create) the WAL at `wal_config.dir`, rebuild the collector —
/// checkpoint restore + replay through the normal ingest path — and return
/// the durable trio the server binds with.
///
/// `collector_config` must match the pre-crash process (same shard count;
/// same retention and slot bound for identical drop/reject decisions) —
/// the same CLI flags, in practice. A checkpoint with a different shard
/// count is refused rather than misrouted.
///
/// Records are folded as the scan verifies them, so a fold can run before
/// a later record is found damaged; the damaged record and everything
/// after it is never folded, and the state returned is the fold of the
/// same prefix a second recovery would replay.
///
/// # Errors
/// Filesystem errors, an unreadable checkpoint, or replay payloads that do
/// not parse (both mean the directory does not belong to this
/// configuration or was corrupted beyond the torn-tail contract). The
/// half-built collector is discarded and the directory can be opened again.
pub fn recover(
    collector_config: CollectorConfig,
    wal_config: WalConfig,
) -> io::Result<(Arc<Collector>, Arc<Durability>, RecoveryReport)> {
    recover_chunked(collector_config, wal_config, HANDOFF_BYTES)
}

/// [`recover`] with the hand-off chunk size as a parameter, so tests can
/// park the scan thread on a full hand-off with a small log.
fn recover_chunked(
    collector_config: CollectorConfig,
    wal_config: WalConfig,
    handoff_bytes: usize,
) -> io::Result<(Arc<Collector>, Arc<Durability>, RecoveryReport)> {
    let started = Instant::now();
    let recovery = Wal::recovery(wal_config).map_err(wal_err)?;
    let collector = match recovery.checkpoint_state() {
        Some(state) => Collector::restore_checkpoint(collector_config, state)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
        None => Collector::new(collector_config),
    };
    let collector = Arc::new(collector);
    let metrics = WalMetrics::register(collector.telemetry());

    let (wal, recovered, replayed_rows) = if recovery.segment_bytes() == 0 {
        // Nothing to read (a fresh directory): no thread, no buffer.
        let (wal, recovered) = recovery.replay(|_, _| Ok(())).map_err(wal_err)?;
        (wal, recovered, 0)
    } else {
        replay_overlapped(recovery, &collector, handoff_bytes)?
    };
    metrics.recovered_records.add(recovered.records);
    metrics.recovered_rows.add(replayed_rows);
    metrics.truncated_bytes.add(recovered.truncated_bytes);
    metrics.segments.set(wal.live_segments() as i64);

    let report = RecoveryReport {
        checkpoint_seq: recovered.checkpoint_seq,
        replayed_records: recovered.records,
        replayed_rows,
        truncated_bytes: recovered.truncated_bytes,
        clean: recovered.clean,
    };
    let nanos = i64::try_from(started.elapsed().as_nanos()).unwrap_or(i64::MAX);
    metrics.recovery_nanos.set(nanos);
    let durability = Arc::new(Durability {
        wal: Mutex::new(wal),
        gate: RwLock::new(()),
        metrics,
    });
    Ok((collector, durability, report))
}

/// Replays the log with the scan (read + verify, [`Recovery::replay`]) on a
/// second thread and decode + fold on this one. Full chunks travel scan →
/// fold through a one-deep queue and come back drained, so at most
/// [`HANDOFF_CHUNKS`] exist. Either side ending — error or panic — drops
/// its queue ends, which wakes the other out of any wait. Returns the
/// opened log, what the scan found, and the rows the fold accepted.
fn replay_overlapped(
    recovery: Recovery,
    collector: &Collector,
    handoff_bytes: usize,
) -> io::Result<(Wal, Recovered, u64)> {
    let (full_tx, full_rx) = mpsc::sync_channel::<Chunk>(1);
    let (drained_tx, drained_rx) = mpsc::channel::<Chunk>();
    std::thread::scope(|scope| {
        let scan = scope.spawn(move || {
            let fold_gone = || io::Error::other("replay stopped before the scan finished");
            let mut chunk = Chunk::default();
            let mut unmade = HANDOFF_CHUNKS - 1;
            let opened = recovery.replay(|_, payload| {
                chunk.bytes.extend_from_slice(payload);
                chunk.ends.push(chunk.bytes.len());
                if chunk.bytes.len() >= handoff_bytes {
                    full_tx
                        .send(std::mem::take(&mut chunk))
                        .map_err(|_| fold_gone())?;
                    if unmade > 0 {
                        unmade -= 1;
                    } else {
                        chunk = drained_rx.recv().map_err(|_| fold_gone())?;
                    }
                }
                Ok(())
            })?;
            if !chunk.ends.is_empty() {
                // A fold that already failed reports its own error.
                let _ = full_tx.send(chunk);
            }
            Ok(opened)
        });

        let mut scratch = IngestScratch::default();
        let mut replayed_rows = 0u64;
        let mut folded = Ok(());
        'fold: for mut chunk in &full_rx {
            let mut start = 0;
            for &end in &chunk.ends {
                match apply_payload(collector, &chunk.bytes[start..end], &mut scratch) {
                    Ok(outcome) => replayed_rows += outcome.accepted,
                    Err(e) => {
                        folded = Err(e);
                        break 'fold;
                    }
                }
                start = end;
            }
            chunk.bytes.clear();
            chunk.ends.clear();
            // The scan may have finished and dropped its end; that is fine.
            let _ = drained_tx.send(chunk);
        }
        // Release a scan parked on either queue before waiting for it.
        drop((full_rx, drained_tx));
        let opened = scan
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        folded?;
        let (wal, recovered) = opened.map_err(wal_err)?;
        Ok((wal, recovered, replayed_rows))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Frame, HEADER_LEN};
    use ldp_collector::sync::atomic::{AtomicUsize, Ordering};
    use ldp_collector::ReportBatch;

    #[test]
    fn connections_that_both_saw_the_trigger_take_one_checkpoint() {
        let dir = std::env::temp_dir().join(format!("ldp-durable-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal_config = WalConfig::new(&dir)
            .flush(FlushPolicy::Barrier)
            .segment_bytes(256)
            .checkpoint_segments(1);
        let (collector, durability, _) =
            recover(CollectorConfig::default(), wal_config).expect("fresh durable collector");

        let mut batch = ReportBatch::new();
        for user in 0..64u64 {
            batch.push(user, user % 4, 0.5);
        }
        let mut frame = Vec::new();
        Frame::encode_ingest_into(&batch, &mut frame);
        let mut scratch = IngestScratch::default();
        while !durability.wants_checkpoint() {
            durability
                .ingest_frame(&collector, &frame[HEADER_LEN..], &mut scratch)
                .expect("durable ingest");
        }

        // Two connections, both past `maybe_checkpoint`'s first test before
        // either reaches the gate.
        let past_first_test = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    assert!(durability.wants_checkpoint());
                    past_first_test.fetch_add(1, Ordering::SeqCst);
                    while past_first_test.load(Ordering::SeqCst) < 2 {
                        std::thread::yield_now();
                    }
                    durability
                        .checkpoint_under_gate(&collector, true)
                        .expect("checkpoint");
                });
            }
        });

        let snapshot = collector.telemetry().snapshot();
        assert_eq!(snapshot.counter("wal.checkpoints"), Some(1));
        assert!(!durability.wants_checkpoint());
        // `checkpoint_now` stays unconditional (the seal path relies on it).
        durability.checkpoint_now(&collector).expect("checkpoint");
        let snapshot = collector.telemetry().snapshot();
        assert_eq!(snapshot.counter("wal.checkpoints"), Some(2));

        drop(durability);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A log of `frames` 64-row ingest records in small segments, with
    /// whatever `spoil` appends or checkpoints after the third.
    fn write_log(tag: &str, frames: u64, spoil: impl FnOnce(&mut Wal)) -> WalConfig {
        let dir = std::env::temp_dir().join(format!("ldp-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = WalConfig::new(&dir)
            .flush(FlushPolicy::Barrier)
            .segment_bytes(8 << 10);
        let (mut wal, _) = Wal::open(config.clone()).expect("fresh log");
        let mut spoil = Some(spoil);
        let mut batch = ReportBatch::new();
        for user in 0..64u64 {
            batch.push(user, user % 4, 0.5);
        }
        let mut frame = Vec::new();
        Frame::encode_ingest_into(&batch, &mut frame);
        for i in 0..frames {
            if i == 3 {
                spoil.take().expect("once")(&mut wal);
            }
            wal.append(&frame[HEADER_LEN..]).expect("append");
        }
        wal.barrier().expect("barrier");
        config
    }

    /// Runs a recovery that hands off every 256 bytes — one record per
    /// chunk, so the scan thread spends the run parked on a full hand-off —
    /// under a watchdog: a recovery that hangs fails the test instead of
    /// stalling it. `recover` joins its scan thread (a scoped thread) before
    /// it returns, so a result here also means no thread was left behind.
    fn recover_watched(
        config: &WalConfig,
    ) -> io::Result<(Arc<Collector>, Arc<Durability>, RecoveryReport)> {
        let (done_tx, done_rx) = mpsc::channel();
        let config = config.clone();
        ldp_collector::sync::thread::spawn(move || {
            let _ = done_tx.send(recover_chunked(CollectorConfig::default(), config, 256));
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("recover() neither returned nor failed: the two stages deadlocked")
    }

    #[test]
    fn overlapped_recovery_folds_every_record_across_tiny_chunks() {
        let config = write_log("tiny", 200, |_| {});
        let (collector, _, report) = recover_watched(&config).expect("recovery");
        assert_eq!(report.replayed_records, 200);
        assert_eq!(report.replayed_rows, 200 * 64);
        assert_eq!(collector.total_reports(), 200 * 64);
        let snapshot = collector.telemetry().snapshot();
        assert_eq!(snapshot.counter("wal.recovered_rows"), Some(200 * 64));
        assert!(snapshot.gauge("wal.recovery_nanos").expect("registered") > 0);
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn a_record_that_is_not_an_ingest_payload_fails_recovery_promptly() {
        // The checksum is fine — the log kept what it was given — but the
        // fourth record does not decode, with 197 good ones queued behind.
        let config = write_log("unparsable", 200, |wal| {
            wal.append(b"not an ingest payload").expect("append");
        });
        let failed = recover_watched(&config).expect_err("replay cannot parse record 4");
        assert_eq!(failed.kind(), io::ErrorKind::InvalidData);
        // Nothing was truncated or left half-open: the log reads back whole.
        let (_, recovered) = Wal::open(config.clone()).expect("the directory opens again");
        assert_eq!((recovered.records, recovered.truncated_bytes), (201, 0));
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn a_checkpoint_that_does_not_restore_fails_recovery_before_any_replay() {
        let config = write_log("bad-checkpoint", 50, |wal| {
            wal.checkpoint(b"not a collector checkpoint")
                .expect("checkpoint");
        });
        let failed = recover_watched(&config).expect_err("the blob is not a collector");
        assert_eq!(failed.kind(), io::ErrorKind::InvalidData);
        let (_, recovered) = Wal::open(config.clone()).expect("the directory opens again");
        assert_eq!((recovered.checkpoint_seq, recovered.records), (3, 47));
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn an_unreadable_segment_fails_recovery_promptly() {
        let config = write_log("unreadable", 200, |_| {});
        let mut segments: Vec<_> = std::fs::read_dir(&config.dir)
            .expect("log directory")
            .map(|entry| entry.expect("entry").path())
            .filter(|path| {
                path.file_name()
                    .is_some_and(|name| name.to_string_lossy().starts_with("seg-"))
            })
            .collect();
        segments.sort();
        assert!(segments.len() >= 3, "{} segments", segments.len());
        // A directory where the second segment was: it opens, and every
        // read of it fails.
        let image = std::fs::read(&segments[1]).expect("segment");
        std::fs::remove_file(&segments[1]).expect("remove");
        std::fs::create_dir(&segments[1]).expect("obstruct");
        recover_watched(&config).expect_err("segment 2 cannot be read");

        // With the file back nothing is missing: the failed pass changed
        // nothing on disk.
        std::fs::remove_dir(&segments[1]).expect("clear");
        std::fs::write(&segments[1], image).expect("restore");
        let (collector, _, report) = recover_watched(&config).expect("recovery");
        assert_eq!((report.replayed_records, report.truncated_bytes), (200, 0));
        assert_eq!(collector.total_reports(), 200 * 64);
        let _ = std::fs::remove_dir_all(&config.dir);
    }
}
