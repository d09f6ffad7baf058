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
//! replays surviving records through the **same** two ingest halves live
//! ingest runs — [`Collector::route`], then [`Collector::fold_routed`] —
//! so ledger tallies and telemetry books land exactly where the pre-crash
//! process left them. It is one streaming pass in two overlapped stages:
//! a scan thread reads and verifies the log through the WAL's one bounded
//! buffer, parses each verified frame, widens it into columns it owns and
//! routes it, and hands the routed frames over in a few recycled chunks;
//! the calling thread only books each frame's upstream rejections and
//! folds its routed runs, in log order — so memory is a handful of chunks
//! however long the log is, and the fold is the replay's critical path.
//!
//! Locking uses the `ldp_collector::sync` facade throughout, so `ldp-check`
//! can explore a kill at every disk operation of the log (through the
//! `ldp_wal::Disk` a test puts under it) as a deterministic scheduling
//! decision. Lock order is gate → wal; both paths respect it.
//! The scan thread is the one exception by construction: the only
//! collector code it runs is the routing half, which takes no lock and
//! touches no atomic, and otherwise it uses a scoped `std` thread and two
//! `std::sync::mpsc` queues — no facade primitive — so the explorer sees
//! exactly the decisions the calling thread makes.

use crate::wire::{IngestScratch, IngestView, HEADER_LEN};
use ldp_collector::sync::{Arc, Mutex, RwLock};
use ldp_collector::{Collector, CollectorConfig, IngestOutcome, RoutedBatch};
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
    /// `wal.appended_bytes` (logged frame bytes, header included).
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

/// The one fold of a decoded ingest frame, live, in memory or durable.
/// Replay runs the same two steps with the routing half on its scan
/// thread (see [`replay_overlapped`]), so the books match bit for bit.
pub(crate) fn fold(
    collector: &Collector,
    ingest: &IngestView<'_>,
    scratch: &mut IngestScratch,
) -> IngestOutcome {
    let columns = ingest.columns(scratch);
    collector.note_upstream_rejections(ingest.rejected_upstream());
    collector.ingest_outcome(&columns)
}

/// [`fold`] of a logged payload, which reaches the fold unparsed.
fn apply_payload(
    collector: &Collector,
    payload: &[u8],
    scratch: &mut IngestScratch,
) -> io::Result<IngestOutcome> {
    let view = IngestView::parse(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(fold(collector, &view, scratch))
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
            let append = wal.append(payload);
            // An append that rolled the segment changed the count.
            self.metrics.segments.set(wal.live_segments() as i64);
            append
        };
        if let Err(e) = append {
            self.metrics.failures.inc();
            drop(gate);
            return Err(wal_err(e));
        }
        self.metrics.appended_records.inc();
        self.metrics
            .appended_bytes
            .add((HEADER_LEN + payload.len()) as u64);
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
    fn wants_checkpoint(&self) -> bool {
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
    /// I/O failures and a dead log (an earlier disk operation failed).
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

    /// Ingest records appended since boot (not counting replay).
    #[must_use]
    pub fn appended_records(&self) -> u64 {
        self.metrics.appended_records.get()
    }
}

/// Decoded, routed bytes a hand-off chunk holds before it travels to the
/// fold (a frame larger than this travels alone).
const HANDOFF_BYTES: usize = 1 << 20;
/// Hand-off chunks that exist at once: one filling, one queued, one folding.
const HANDOFF_CHUNKS: usize = 3;
/// What one logged row occupies once the scan has decoded and routed it:
/// its three widened columns and its index in a shard run.
const ROUTED_ROW_BYTES: usize = 3 * 8 + 4;

/// One logged ingest frame as the scan thread hands it over: widened into
/// columns it owns and routed, so the fold thread only folds it.
#[derive(Default)]
struct RoutedFrame {
    rejected_upstream: u64,
    columns: IngestScratch,
    routed: RoutedBatch,
}

/// Routed frames on their way from the scan thread to the fold, in log
/// order. A drained chunk comes back with its frames' capacity, so a
/// replay allocates only while its first chunks fill.
#[derive(Default)]
struct Chunk {
    frames: Vec<RoutedFrame>,
    /// Frames in use; the rest are recycled capacity.
    len: usize,
    /// [`ROUTED_ROW_BYTES`] times the rows of the frames in use.
    bytes: usize,
}

impl Chunk {
    /// Widens and routes one verified ingest frame into the next frame.
    fn push(&mut self, collector: &Collector, ingest: &IngestView<'_>) {
        if self.len == self.frames.len() {
            self.frames.push(RoutedFrame::default());
        }
        let frame = &mut self.frames[self.len];
        frame.rejected_upstream = ingest.rejected_upstream();
        collector.route(&ingest.columns(&mut frame.columns), &mut frame.routed);
        self.len += 1;
        self.bytes += ingest.len() * ROUTED_ROW_BYTES;
    }
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

/// Replays the log with the scan — read, verify ([`Recovery::replay`]),
/// parse, widen and route — on a second thread, and the fold on this one.
/// Full chunks travel scan → fold through a one-deep queue and come back
/// drained, so at most [`HANDOFF_CHUNKS`] exist. Either side ending — error
/// or panic — drops its queue ends, which wakes the other out of any wait.
/// Returns the opened log, what the scan found, and the rows the fold
/// accepted.
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
                let ingest = IngestView::parse(payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                // A chunk travels before a frame would take it past the
                // hand-off size, so none outgrows it but a lone large frame.
                let grown = chunk.bytes + ingest.len() * ROUTED_ROW_BYTES;
                if chunk.len > 0 && grown > handoff_bytes {
                    full_tx
                        .send(std::mem::take(&mut chunk))
                        .map_err(|_| fold_gone())?;
                    if unmade > 0 {
                        unmade -= 1;
                    } else {
                        chunk = drained_rx.recv().map_err(|_| fold_gone())?;
                    }
                }
                chunk.push(collector, &ingest);
                Ok(())
            })?;
            if chunk.len > 0 {
                // Fails only when the fold panicked, which surfaces itself.
                let _ = full_tx.send(chunk);
            }
            Ok(opened)
        });

        let mut replayed_rows = 0u64;
        for mut chunk in &full_rx {
            for frame in &chunk.frames[..chunk.len] {
                collector.note_upstream_rejections(frame.rejected_upstream);
                let outcome = collector.fold_routed(&frame.columns.columns(), &frame.routed);
                replayed_rows += outcome.accepted;
            }
            chunk.len = 0;
            chunk.bytes = 0;
            // The scan may have finished and dropped its end; that is fine.
            let _ = drained_tx.send(chunk);
        }
        // Release a scan parked on either queue before waiting for it.
        drop((full_rx, drained_tx));
        let opened = scan
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        let (wal, recovered) = opened.map_err(wal_err)?;
        Ok((wal, recovered, replayed_rows))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Frame, WireError, DEFAULT_MAX_PAYLOAD, KNOWN_FRAME_TYPES};
    use ldp_collector::sync::atomic::{AtomicUsize, Ordering};
    use ldp_collector::{ReportBatch, PARALLEL_FOLD_MIN};
    use ldp_wal::record::{CHECKPOINT, SEAL};
    use std::path::{Path, PathBuf};

    /// The directory's `seg-*` files in sequence order.
    fn segment_files(dir: &Path) -> Vec<PathBuf> {
        let mut segments: Vec<_> = std::fs::read_dir(dir)
            .expect("log directory")
            .map(|entry| entry.expect("entry").path())
            .filter(|path| {
                path.file_name()
                    .is_some_and(|name| name.to_string_lossy().starts_with("seg-"))
            })
            .collect();
        segments.sort();
        segments
    }

    #[test]
    fn a_segment_is_a_file_of_wire_frames() {
        let dir = std::env::temp_dir().join(format!("ldp-durable-frames-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut wal, _) = Wal::open(WalConfig::new(&dir)).expect("fresh log");
        let frames: Vec<Frame> = (0..3u64)
            .map(|salt| Frame::Ingest {
                rejected_upstream: salt,
                users: (0..40).map(|u| u * 7 + salt).collect(),
                slots: (0..40).map(|u| u / 8 + salt * 1000).collect(),
                values: (0..40).map(|u| u as f64 / 40.0 - salt as f64).collect(),
            })
            .collect();
        let mut sent = Vec::new();
        for frame in &frames {
            let bytes = frame.encode();
            wal.append(&bytes[HEADER_LEN..]).expect("append");
            sent.extend_from_slice(&bytes);
        }
        wal.seal().expect("seal");
        drop(wal);

        let segments = segment_files(&dir);
        assert_eq!(segments.len(), 1);
        let logged = std::fs::read(&segments[0]).expect("segment");
        assert_eq!(logged[..sent.len()], sent, "the wire's bytes, as sent");
        let mut at = 0;
        for frame in &frames {
            let (decoded, used) = Frame::decode(&logged[at..], DEFAULT_MAX_PAYLOAD).expect("frame");
            assert_eq!(&decoded, frame);
            at += used;
        }
        // The seal is an envelope the wire refuses by its type alone.
        assert_eq!(logged.len(), at + HEADER_LEN);
        assert!(matches!(
            Frame::decode(&logged[at..], DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnknownFrameType(SEAL))
        ));
        assert!(!KNOWN_FRAME_TYPES.contains(&SEAL));

        // So is a checkpoint's every frame: its state pieces and its seal.
        let (mut wal, _) = Wal::open(WalConfig::new(&dir)).expect("reopen");
        let covered = wal.checkpoint(b"collector state").expect("checkpoint");
        drop(wal);
        let image = std::fs::read(dir.join(format!("ck-{covered:020}"))).expect("checkpoint");
        let piece = HEADER_LEN + b"collector state".len();
        assert_eq!(image.len(), piece + HEADER_LEN);
        assert!(matches!(
            Frame::decode(&image, DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnknownFrameType(CHECKPOINT))
        ));
        assert!(matches!(
            Frame::decode(&image[piece..], DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnknownFrameType(SEAL))
        ));
        assert!(!KNOWN_FRAME_TYPES.contains(&CHECKPOINT));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_segments_gauge_counts_the_files_after_every_roll() {
        let dir = std::env::temp_dir().join(format!("ldp-durable-gauge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal_config = WalConfig::new(&dir).segment_bytes(256);
        let (collector, durability, _) =
            recover(CollectorConfig::default(), wal_config).expect("fresh durable collector");
        let mut batch = ReportBatch::new();
        for user in 0..64u64 {
            batch.push(user, user % 4, 0.5);
        }
        let mut frame = Vec::new();
        Frame::encode_ingest_into(&batch, &mut frame);
        let mut scratch = IngestScratch::default();
        for _ in 0..10 {
            durability
                .ingest_frame(&collector, &frame[HEADER_LEN..], &mut scratch)
                .expect("durable ingest");
            let gauge = collector.telemetry().snapshot().gauge("wal.segments");
            assert_eq!(gauge, Some(segment_files(&dir).len() as i64));
        }
        assert_eq!(segment_files(&dir).len(), 11, "every append rolled");
        drop(durability);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn connections_that_both_saw_the_trigger_take_one_checkpoint() {
        let dir = std::env::temp_dir().join(format!("ldp-durable-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal_config = WalConfig::new(&dir)
            .flush(FlushPolicy::Barrier)
            .segment_bytes(256);
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

    /// The payloads of a log that holds every shape replay routes: mixed
    /// multi-user frames (one large enough for the fold pool), single-user
    /// frames with slot gaps, rows at or past the slot bound of 64, non-finite
    /// values, a frame whose every row is screened out, an empty frame, and
    /// upstream rejections riding along.
    fn mixed_payloads() -> Vec<Vec<u8>> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let value = |r: u64| match r % 16 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            r => r as f64 / 16.0 - 0.4,
        };
        let mut frames = Vec::new();
        for (salt, rows) in [
            (0u64, 300usize),
            (1, 40),
            (2, 2 * PARALLEL_FOLD_MIN),
            (3, 5),
        ] {
            let (mut users, mut slots, mut values) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..rows {
                let r = next();
                users.push(r % 97 + salt);
                slots.push(r % 70); // 64..70 at or past the bound
                values.push(value(r >> 8));
            }
            frames.push(Frame::Ingest {
                rejected_upstream: salt * 2,
                users,
                slots,
                values,
            });
        }
        for user in [7u64, 8, 7] {
            // One device's stream: runs broken by gaps, a NaN and the bound.
            let slots = vec![0, 1, 2, 5, 6, 9, 10, 11, 63, 64, 65, 3];
            let values = (0..slots.len() as u64)
                .map(|i| if i == 6 { f64::NAN } else { value(i + user) })
                .collect();
            frames.push(Frame::Ingest {
                rejected_upstream: user,
                users: vec![user; slots.len()],
                slots,
                values,
            });
        }
        frames.push(Frame::Ingest {
            rejected_upstream: 1,
            users: vec![3, 4, 5],
            slots: vec![64, 100, u64::MAX],
            values: vec![0.5; 3],
        });
        frames.push(Frame::Ingest {
            rejected_upstream: 9,
            users: Vec::new(),
            slots: Vec::new(),
            values: Vec::new(),
        });
        frames
            .iter()
            .map(|frame| frame.encode()[HEADER_LEN..].to_vec())
            .collect()
    }

    #[test]
    fn recovery_checkpoints_the_bytes_of_a_serial_fold() {
        let payloads = mixed_payloads();
        for shards in [1, 3] {
            let collector_config = CollectorConfig {
                shards,
                max_slots: 64,
                ingest_workers: 2,
                ..CollectorConfig::default()
            };
            let dir = std::env::temp_dir().join(format!(
                "ldp-durable-serial-{shards}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let wal_config = WalConfig::new(&dir).segment_bytes(64 << 10);
            let (mut wal, _) = Wal::open(wal_config.clone()).expect("fresh log");
            let reference = Collector::new(collector_config);
            let mut scratch = IngestScratch::default();
            for payload in &payloads {
                wal.append(payload).expect("append");
                let ingest = IngestView::parse(payload).expect("an ingest payload");
                reference.note_upstream_rejections(ingest.rejected_upstream());
                reference.ingest_outcome(&ingest.columns(&mut scratch));
            }
            wal.barrier().expect("barrier");
            drop(wal);
            let expected = reference.encode_checkpoint();
            // One byte parks the scan on a full hand-off after every frame.
            for handoff_bytes in [1, HANDOFF_BYTES] {
                let (recovered, _, report) =
                    recover_chunked(collector_config, wal_config.clone(), handoff_bytes)
                        .expect("recovery");
                assert_eq!(report.replayed_records, payloads.len() as u64);
                assert_eq!(report.replayed_rows, reference.total_reports());
                assert!(
                    recovered.encode_checkpoint() == expected,
                    "{shards} shards, {handoff_bytes}-byte hand-off: recovery is not the serial fold"
                );
                let pool_runs = recovered
                    .telemetry()
                    .snapshot()
                    .counter("collector.pool.runs");
                assert_eq!(pool_runs.is_some_and(|runs| runs > 0), shards > 1);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn an_unreadable_segment_fails_recovery_promptly() {
        let config = write_log("unreadable", 200, |_| {});
        let segments = segment_files(&config.dir);
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
