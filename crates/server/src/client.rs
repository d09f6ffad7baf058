//! The client side: [`RemoteCollector`] speaks the wire protocol over one
//! TCP connection and exposes the same batch-ingest surface the fleet
//! drives in-process, plus the query verbs.
//!
//! Ingest is **pipelined**: uploads are fire-and-forget frames (TCP flow
//! control applies the backpressure), and [`RemoteCollector::sync`]
//! inserts a barrier that returns the connection's disposition ledger —
//! the same accept/drop/reject accounting [`ldp_collector::Collector`]
//! keeps in-process. Queries are classic request/response.
//!
//! Transient connection failures are survivable: a [`ReconnectPolicy`]
//! gives the handle bounded reconnect-with-backoff, so a server restart
//! or dropped socket retries the in-flight operation on a fresh
//! connection instead of poisoning the handle (see
//! [`RemoteCollector::connect_with`] for the exact semantics).

use crate::serve::Server;
use crate::transport::read_reply;
use crate::wire::{code, Frame, StatsBody, SummaryBody};
use ldp_collector::sync::thread;
use ldp_collector::{
    ClientFleet, FleetError, IngestOutcome, ReportBatch, ReportSink, SnapshotPart,
};
use ldp_streams::Population;
use ldp_telemetry::TelemetrySnapshot;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::time::Duration;

/// Bounded reconnect-with-backoff for [`RemoteCollector`]: how many times
/// a transient transport failure (reset / aborted / broken pipe /
/// unexpected EOF) may be answered by sleeping an exponentially growing
/// backoff and dialing a fresh connection before the error is surfaced.
#[derive(Debug, Clone, Copy)]
pub struct ReconnectPolicy {
    /// Reconnect attempts per failing operation (0 = a dropped
    /// connection is immediately fatal, the pre-v3 behavior).
    pub max_retries: u32,
    /// Backoff before the first reconnect attempt; doubles per attempt.
    pub initial_backoff: Duration,
    /// Ceiling on the per-attempt backoff.
    pub max_backoff: Duration,
}

impl Default for ReconnectPolicy {
    /// Three attempts, 10 ms doubling to a 200 ms ceiling — rides out a
    /// server restart without stalling a dead target for seconds.
    fn default() -> Self {
        Self {
            max_retries: 3,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
        }
    }
}

impl ReconnectPolicy {
    /// No reconnects: any transport failure is immediately fatal.
    #[must_use]
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            ..Self::default()
        }
    }

    /// Backoff before reconnect attempt `attempt` (1-based).
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.initial_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// Pipelined ingest frames that died with a connection: written to a
/// socket that failed before an [`RemoteCollector::sync`] acknowledged
/// them. A reconnect gets a fresh server-side ledger, so these frames are
/// unaccounted for — possibly folded by the server, possibly not — and
/// the next `sync` surfaces this as a typed error instead of silently
/// acking only what the new connection carried.
///
/// Recover the value from the `io::Error` with
/// `e.get_ref().and_then(|e| e.downcast_ref::<IngestLoss>())`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestLoss {
    /// Ingest frames written but unacknowledged when the connection died.
    pub lost_frames: u64,
    /// Reports those frames carried.
    pub lost_rows: u64,
}

impl std::fmt::Display for IngestLoss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "connection died with {} unacknowledged ingest frame(s) ({} report(s)) in flight",
            self.lost_frames, self.lost_rows
        )
    }
}

impl std::error::Error for IngestLoss {}

/// Whether an I/O error is a transient *transport* failure worth a
/// reconnect. Server-reported error frames (mapped to refused / invalid
/// input / invalid data kinds) are never transient: the connection is
/// healthy, the server said no.
fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::NotConnected
    )
}

/// A connection to an `ldp-server`, presenting the collector's ingest
/// and query surface over the wire.
#[derive(Debug)]
pub struct RemoteCollector {
    stream: TcpStream,
    /// Resolved addresses for reconnects (first that answers wins).
    addrs: Vec<SocketAddr>,
    reconnect: ReconnectPolicy,
    /// Ping nonce counter (each ping must echo a fresh token).
    nonce: u64,
    /// Reusable encode buffer (one frame at a time).
    out: Vec<u8>,
    /// Reusable payload read buffer — grown to the largest reply seen,
    /// then sliced per frame (never re-zeroed, never reallocated), so a
    /// long-lived connection performs no per-frame heap allocation on
    /// either the upload or the reply path.
    payload: Vec<u8>,
    /// Ingest frames written on the current connection but not yet
    /// covered by a sync ack (and the reports they carried).
    pending_frames: u64,
    /// See [`Self::pending_frames`].
    pending_rows: u64,
    /// Loss from a mid-stream connection death, not yet surfaced to the
    /// caller; the next [`Self::sync`] returns it as a typed error.
    unreported: Option<IngestLoss>,
    /// Cumulative frames lost to connection deaths over this handle's
    /// lifetime (see [`Self::lost_frames`]).
    lost_frames: u64,
    /// See [`Self::lost_frames`].
    lost_rows: u64,
}

impl RemoteCollector {
    /// Connects to a server (Nagle disabled: ingest frames are already
    /// batched, queries want the latency) with the default
    /// [`ReconnectPolicy`].
    ///
    /// # Errors
    /// Connection errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::connect_with(addr, ReconnectPolicy::default())
    }

    /// Connects with an explicit reconnect policy.
    ///
    /// Reconnect semantics: a fresh connection has a **fresh server-side
    /// ledger**, and any pipelined ingest frames the old connection had
    /// not yet delivered are gone with it. Queries and pings are
    /// stateless, so retrying them on the new connection is exact; an
    /// `ingest` retry re-sends only the batch that failed to write; a
    /// `sync` after a mid-stream reconnect acknowledges only what the
    /// *new* connection carried. Callers that need exactly-once
    /// accounting across reconnects (the router does) track
    /// unacknowledged frames themselves and report the gap.
    ///
    /// # Errors
    /// Connection errors (the initial dial is not retried — a target
    /// that was never reachable is a configuration error, not a
    /// transient).
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        reconnect: ReconnectPolicy,
    ) -> std::io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = Self::open(&addrs)?;
        Ok(Self {
            stream,
            addrs,
            reconnect,
            nonce: 0,
            out: Vec::with_capacity(4096),
            payload: Vec::new(),
            pending_frames: 0,
            pending_rows: 0,
            unreported: None,
            lost_frames: 0,
            lost_rows: 0,
        })
    }

    /// Dials the first resolved address that answers.
    fn open(addrs: &[SocketAddr]) -> std::io::Result<TcpStream> {
        let mut last_err = None;
        for addr in addrs {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(stream);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address to connect to")
        }))
    }

    /// Runs `op`, answering transient transport failures with up to
    /// `max_retries` backoff-then-reconnect rounds. A reconnect that
    /// itself fails consumes a retry and leaves the old stream in place
    /// (the next `op` failure triggers the next round), so a dead target
    /// costs exactly `max_retries` dial attempts.
    fn with_reconnect<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let mut attempt = 0u32;
        loop {
            let err = match op(self) {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) => e,
                Err(e) => return Err(e),
            };
            // The connection is dead either way: any pipelined ingest
            // frames it carried are now unaccounted for. Book the loss
            // before deciding whether to retry, so it is surfaced even
            // when retries are exhausted.
            self.note_connection_loss();
            if attempt >= self.reconnect.max_retries {
                return Err(err);
            }
            attempt += 1;
            thread::sleep(self.reconnect.backoff(attempt));
            if let Ok(stream) = Self::open(&self.addrs) {
                self.stream = stream;
            }
        }
    }

    /// Books pipelined-but-unacked ingest frames as lost when the
    /// connection dies. Folded into `unreported` (surfaced by the next
    /// [`Self::sync`]) and the handle's cumulative loss counters.
    fn note_connection_loss(&mut self) {
        if self.pending_frames == 0 {
            return;
        }
        let loss = self.unreported.get_or_insert(IngestLoss {
            lost_frames: 0,
            lost_rows: 0,
        });
        loss.lost_frames += self.pending_frames;
        loss.lost_rows += self.pending_rows;
        self.lost_frames += self.pending_frames;
        self.lost_rows += self.pending_rows;
        self.pending_frames = 0;
        self.pending_rows = 0;
    }

    /// Cumulative ingest frames lost to connection deaths over this
    /// handle's lifetime (whether or not the loss error has been
    /// observed yet).
    #[must_use]
    pub fn lost_frames(&self) -> u64 {
        self.lost_frames
    }

    /// Reports the [`Self::lost_frames`] frames carried.
    #[must_use]
    pub fn lost_rows(&self) -> u64 {
        self.lost_rows
    }

    /// Uploads one batch (fire-and-forget; pair with [`Self::sync`] for
    /// the acceptance ledger). The batch's client-side rejection count
    /// rides along so the server ledger accounts for it.
    ///
    /// # Errors
    /// Transport errors (after reconnect retries are exhausted).
    pub fn ingest(&mut self, batch: &ReportBatch) -> std::io::Result<()> {
        self.out.clear();
        // Encode straight from the batch columns — no intermediate
        // column clones on the hot path.
        Frame::encode_ingest_into(batch, &mut self.out);
        self.with_reconnect(|this| this.stream.write_all(&this.out))?;
        // Written, not yet acked: at risk until the next sync barrier.
        self.pending_frames += 1;
        self.pending_rows += batch.len() as u64;
        Ok(())
    }

    /// Barrier: waits until the server has ingested everything sent on
    /// this connection and returns the connection's disposition totals —
    /// the same [`IngestOutcome`] ledger `Collector::ingest_outcome`
    /// reports in-process (here including client-side rejections
    /// forwarded on the ingest frames).
    ///
    /// # Errors
    /// Transport errors, a server-reported error frame, or an
    /// [`IngestLoss`]: if a connection died with pipelined ingest frames
    /// unacknowledged since the last sync, the first `sync` after the
    /// loss returns it as an `io::Error` (downcast the inner error to
    /// [`IngestLoss`] for the counts) instead of silently acknowledging
    /// only what the replacement connection carried. A subsequent `sync`
    /// proceeds normally against the current connection's ledger.
    pub fn sync(&mut self) -> std::io::Result<IngestOutcome> {
        if let Some(loss) = self.unreported.take() {
            return Err(std::io::Error::other(loss));
        }
        let reply = self.request(&Frame::IngestSync);
        if let Some(loss) = self.unreported.take() {
            // The connection died mid-sync and the barrier was retried on
            // a fresh ledger — its ack does not cover the lost frames, so
            // the loss outranks it.
            return Err(std::io::Error::other(loss));
        }
        match reply? {
            Frame::IngestAck {
                accepted,
                dropped,
                rejected,
            } => {
                // Everything pipelined before the barrier is now covered
                // by the ack — no longer at risk.
                self.pending_frames = 0;
                self.pending_rows = 0;
                Ok(IngestOutcome {
                    accepted,
                    dropped,
                    rejected,
                })
            }
            other => Err(unexpected_reply(&other)),
        }
    }

    /// The crowd population-mean estimate (`None` before any report).
    ///
    /// # Errors
    /// Transport errors, or a server-reported error frame.
    pub fn population_mean(&mut self) -> std::io::Result<Option<f64>> {
        match self.request(&Frame::QueryPopulationMean)? {
            Frame::PopulationMean { mean } => Ok(mean),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// The windowed mean over `range` (`None` if any slot is unreported
    /// or expired).
    ///
    /// # Errors
    /// Transport errors, or a server-reported error frame (range empty
    /// or beyond the server's bound).
    pub fn windowed_mean(&mut self, range: Range<u64>) -> std::io::Result<Option<f64>> {
        let frame = Frame::QueryWindowedMean {
            start: range.start,
            end: range.end,
        };
        match self.request(&frame)? {
            Frame::WindowedMean { mean } => Ok(mean),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Per-slot means over `range` (each `None` where unreported or
    /// expired).
    ///
    /// # Errors
    /// Transport errors, or a server-reported error frame (range empty
    /// or beyond the server's bound).
    pub fn slot_means(&mut self, range: Range<u64>) -> std::io::Result<Vec<Option<f64>>> {
        let frame = Frame::QuerySlotMeans {
            start: range.start,
            end: range.end,
        };
        match self.request(&frame)? {
            Frame::SlotMeans { means, .. } => Ok(means),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// The snapshot-level summary (totals, retained range, population
    /// mean).
    ///
    /// # Errors
    /// Transport errors, or a server-reported error frame.
    pub fn summary(&mut self) -> std::io::Result<SummaryBody> {
        match self.request(&Frame::QuerySummary)? {
            Frame::Summary(s) => Ok(s),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// The server's operational counters.
    ///
    /// # Errors
    /// Transport errors, or a server-reported error frame.
    pub fn server_stats(&mut self) -> std::io::Result<StatsBody> {
        match self.request(&Frame::QueryStats)? {
            Frame::Stats(s) => Ok(s),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// A full telemetry snapshot of the server — every registered
    /// counter, gauge, and histogram (with full bucket arrays, so p50/
    /// p90/p99 latency estimates are derivable client-side).
    ///
    /// # Errors
    /// Transport errors, or a server-reported error frame.
    pub fn metrics(&mut self) -> std::io::Result<TelemetrySnapshot> {
        match self.request(&Frame::QueryMetrics)? {
            Frame::Metrics(snapshot) => Ok(snapshot),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Health check: sends a [`Frame::Ping`] and verifies the echoed
    /// nonce — one round trip touching no collector state, so a
    /// federation tier can probe a downstream without skewing its books.
    ///
    /// # Errors
    /// Transport errors, a server-reported error frame (a pre-v3 server
    /// answers `UNSUPPORTED`), or a nonce mismatch.
    pub fn ping(&mut self) -> std::io::Result<()> {
        self.nonce = self.nonce.wrapping_add(1);
        let nonce = self.nonce;
        match self.request(&Frame::Ping { nonce })? {
            Frame::Pong { nonce: echoed } if echoed == nonce => Ok(()),
            Frame::Pong { .. } => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "pong echoed the wrong nonce",
            )),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Federation query: the server's raw mergeable contribution over
    /// `range`, clipped server-side to its retained slots (`0..u64::MAX`
    /// asks for everything retained). What a router fans out and folds
    /// with [`ldp_collector::MergedParts::merge`].
    ///
    /// # Errors
    /// Transport errors, or a server-reported error frame (range beyond
    /// the server's per-query slot bound).
    pub fn query_parts(&mut self, range: Range<u64>) -> std::io::Result<SnapshotPart> {
        let frame = Frame::QueryParts {
            start: range.start,
            end: range.end,
        };
        match self.request(&frame)? {
            Frame::Parts(part) => Ok(part),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Sends one frame and reads the server's reply (reconnect-retried
    /// on transient transport failure), mapping a server [`Frame::Error`]
    /// to `io::Error`.
    fn request(&mut self, frame: &Frame) -> std::io::Result<Frame> {
        self.out.clear();
        frame.encode_into(&mut self.out);
        let reply = self.with_reconnect(|this| {
            this.stream.write_all(&this.out)?;
            // Blocking, no read timeout: nothing ever asks this read to stop.
            read_reply(&mut this.stream, &mut this.payload, || false)
        })?;
        if let Frame::Error { code: c, message } = reply {
            let kind = match c {
                code::BUSY => std::io::ErrorKind::ConnectionRefused,
                code::BAD_QUERY => std::io::ErrorKind::InvalidInput,
                code::DEGRADED => std::io::ErrorKind::Other,
                _ => std::io::ErrorKind::InvalidData,
            };
            return Err(std::io::Error::new(
                kind,
                format!("server error {c}: {message}"),
            ));
        }
        Ok(reply)
    }
}

impl Drop for RemoteCollector {
    fn drop(&mut self) {
        // Polite close; the server treats plain EOF identically.
        self.out.clear();
        Frame::Goodbye.encode_into(&mut self.out);
        let _ = self.stream.write_all(&self.out);
    }
}

/// One [`RemoteCollector`] per fleet worker is a [`ReportSink`], which is
/// all [`ClientFleet::drive_with_sinks`] needs for remote mode.
impl ReportSink for RemoteCollector {
    fn submit(&mut self, batch: &ReportBatch) -> std::io::Result<()> {
        self.ingest(batch)
    }

    fn finish(&mut self) -> std::io::Result<u64> {
        Ok(self.sync()?.accepted)
    }
}

/// Drives a [`ClientFleet`] against a remote server: each worker opens
/// its own connection and uploads its users' perturbed reports over the
/// wire — the deployment shape of the paper's collector, at fleet scale.
/// Published values are identical to the in-process
/// [`ClientFleet::drive`] with the same config (the transport never
/// touches the perturbation path); only cross-user float summation order
/// inside shards can differ, which the loopback agreement test pins at
/// ≤ 1e-9.
///
/// Returns the number of reports the server accepted.
///
/// # Errors
/// [`FleetError::Config`] for an invalid pipeline, [`FleetError::Sink`]
/// for connection/transport failures.
pub fn drive_fleet_remote<A: ToSocketAddrs + Sync>(
    fleet: &ClientFleet,
    population: &Population,
    range: Range<usize>,
    addr: A,
) -> Result<u64, FleetError> {
    fleet.drive_with_sinks(population, range, &|_worker| {
        RemoteCollector::connect(&addr)
    })
}

/// Convenience for tests and examples: drives the fleet against a
/// [`Server`] already running in this process (over real loopback TCP).
///
/// # Errors
/// See [`drive_fleet_remote`].
pub fn drive_fleet_loopback(
    fleet: &ClientFleet,
    population: &Population,
    range: Range<usize>,
    server: &Server,
) -> Result<u64, FleetError> {
    drive_fleet_remote(fleet, population, range, server.local_addr())
}

/// `io::Error` for a structurally valid but contextually wrong reply.
fn unexpected_reply(frame: &Frame) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("unexpected reply frame type {}", frame.frame_type()),
    )
}
