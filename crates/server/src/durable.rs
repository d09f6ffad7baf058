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
//! pre-crash process left them.
//!
//! Locking uses the `ldp_collector::sync` facade throughout, so `ldp-check`
//! can explore crash points (see `ldp_wal::CrashPoint`) as deterministic
//! scheduling decisions. Lock order is gate → wal; both paths respect it.

use crate::wire::{IngestScratch, IngestView};
use ldp_collector::sync::{Arc, Mutex, RwLock};
use ldp_collector::{Collector, CollectorConfig, IngestOutcome};
use ldp_telemetry::{Counter, Gauge, Histogram, Registry};
use ldp_wal::{Recovered, Wal, WalError};
use std::io;

pub use ldp_wal::{FlushPolicy, WalConfig};

/// Durability metric handles (`wal.*` in the shared registry). Like every
/// other subsystem's metrics, these ARE the books — the stats frame reads
/// the same atomics.
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

    /// Encoded bytes appended since boot.
    #[must_use]
    pub fn appended_bytes(&self) -> u64 {
        self.metrics.appended_bytes.get()
    }

    /// Records replayed at the last recovery.
    #[must_use]
    pub fn recovered_records(&self) -> u64 {
        self.metrics.recovered_records.get()
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
/// # Errors
/// Filesystem errors, an unreadable checkpoint, or replay payloads that do
/// not parse (both mean the directory does not belong to this
/// configuration or was corrupted beyond the torn-tail contract).
pub fn recover(
    collector_config: CollectorConfig,
    wal_config: WalConfig,
) -> io::Result<(Arc<Collector>, Arc<Durability>, RecoveryReport)> {
    let (wal, recovered): (Wal, Recovered) = Wal::open(wal_config).map_err(wal_err)?;
    let collector = match &recovered.checkpoint_state {
        Some(state) => Collector::restore_checkpoint(collector_config, state)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
        None => Collector::new(collector_config),
    };
    let collector = Arc::new(collector);
    let metrics = WalMetrics::register(collector.telemetry());

    let mut scratch = IngestScratch::default();
    let mut replayed_rows = 0u64;
    for record in &recovered.records {
        let outcome = apply_payload(&collector, recovered.payload(record), &mut scratch)?;
        replayed_rows += outcome.accepted;
    }
    metrics
        .recovered_records
        .add(recovered.records.len() as u64);
    metrics.recovered_rows.add(replayed_rows);
    metrics.truncated_bytes.add(recovered.truncated_bytes);
    metrics.segments.set(wal.live_segments() as i64);

    let report = RecoveryReport {
        checkpoint_seq: recovered.checkpoint_seq,
        replayed_records: recovered.records.len() as u64,
        replayed_rows,
        truncated_bytes: recovered.truncated_bytes,
        clean: recovered.clean,
    };
    let durability = Arc::new(Durability {
        wal: Mutex::new(wal),
        gate: RwLock::new(()),
        metrics,
    });
    Ok((collector, durability, report))
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
}
