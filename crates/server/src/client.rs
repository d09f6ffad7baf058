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
//!
//! This is the one downstream connection in the workspace: a router
//! holds one [`RemoteCollector`] per downstream
//! ([`RemoteCollector::with_stop`]) and forwards through the same dialer,
//! retry loop, unacked-frame ledger and reply read the client verbs use,
//! splitting a request at [`RemoteCollector::send`] so every downstream
//! is asked before any reply is awaited.

use crate::transport::{read_reply, POLL_INTERVAL};
use crate::wire::{code, Frame, IngestView, SummaryBody};
use ldp_collector::sync::atomic::{AtomicBool, Ordering};
use ldp_collector::sync::{thread, Arc};
use ldp_collector::{
    ClientFleet, FleetError, IngestOutcome, ReportBatch, ReportSink, SnapshotPart,
};
use ldp_streams::Population;
use ldp_telemetry::TelemetrySnapshot;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::time::Duration;

/// The longest one dial, or one blocked write, may take before the
/// connection counts as dead (and the retry budget takes over).
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Bounded reconnect-with-backoff for [`RemoteCollector`]: how many times
/// a failed attempt (a refused dial, a reset, a hang-up, a write blocked
/// past its bound — anything but the owner's stop or a peer speaking
/// garbage) may be answered by sleeping an exponentially growing backoff
/// and retrying on a fresh connection before the error is surfaced.
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

/// A connection to an `ldp-server` (or a router), presenting the
/// collector's ingest and query surface over the wire.
#[derive(Debug)]
pub struct RemoteCollector {
    /// The live connection: `None` before the first dial and after a
    /// failed attempt (the next one dials).
    stream: Option<TcpStream>,
    /// Resolved addresses for reconnects (first that answers wins).
    addrs: Vec<SocketAddr>,
    reconnect: ReconnectPolicy,
    /// Ends a blocked reply read (as `Interrupted`) once raised, checked
    /// every `poll` ([`POLL_INTERVAL`] for a [`Self::with_stop`] handle);
    /// with `poll` `None` the read has no timeout and the flag is never
    /// consulted.
    stop: Arc<AtomicBool>,
    /// See [`Self::stop`].
    poll: Option<Duration>,
    /// Successful dials over the handle's lifetime (all but the first
    /// are reconnects).
    dials: u64,
    /// Whether the last operation failed for good: the next `ingest` then
    /// makes one dial and no backoff.
    failed: bool,
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
    /// not yet acknowledged are gone with it. Queries and pings are
    /// stateless, so retrying them on the new connection is exact; an
    /// `ingest` retry re-sends only the batch that failed to write. The
    /// handle books the frames a dead connection took with it as an
    /// [`IngestLoss`], which the next [`Self::sync`] returns instead of an
    /// ack covering only what the *new* connection carried.
    ///
    /// A dial and each write are bounded by 10 s; a connection that
    /// exceeds either counts as dead. An `ingest` on a handle whose last
    /// operation failed makes one dial and no backoff (a dead peer must
    /// not stall an upload loop for the whole budget per batch); every
    /// other operation gets the policy's budget.
    ///
    /// # Errors
    /// Connection errors (the initial dial is not retried — a target
    /// that was never reachable is a configuration error, not a
    /// transient).
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        reconnect: ReconnectPolicy,
    ) -> std::io::Result<Self> {
        let addrs = addr.to_socket_addrs()?.collect();
        let mut this = Self::new(addrs, reconnect, Arc::default(), None);
        this.dial()?;
        Ok(this)
    }

    /// A handle to `addr` that dials on its first operation, not here,
    /// and whose reply reads end once `stop` is raised — checked every
    /// [`POLL_INTERVAL`] — so an owner that is shutting down is never
    /// held by a peer that went quiet. What a tier forwarding to `addr`
    /// holds (a router's downstream links and health probes).
    #[must_use]
    pub fn with_stop(addr: SocketAddr, reconnect: ReconnectPolicy, stop: Arc<AtomicBool>) -> Self {
        Self::new(vec![addr], reconnect, stop, Some(POLL_INTERVAL))
    }

    fn new(
        addrs: Vec<SocketAddr>,
        reconnect: ReconnectPolicy,
        stop: Arc<AtomicBool>,
        poll: Option<Duration>,
    ) -> Self {
        Self {
            stream: None,
            addrs,
            reconnect,
            stop,
            poll,
            dials: 0,
            failed: false,
            nonce: 0,
            out: Vec::with_capacity(4096),
            payload: Vec::new(),
            pending_frames: 0,
            pending_rows: 0,
            unreported: None,
            lost_frames: 0,
            lost_rows: 0,
        }
    }

    /// The one dialer: the first resolved address that answers within
    /// [`IO_TIMEOUT`], with Nagle off, each write bounded by
    /// [`IO_TIMEOUT`] and reads waking every `poll` to consult `stop`.
    fn dial(&mut self) -> std::io::Result<()> {
        let mut last_err = None;
        for addr in &self.addrs {
            match TcpStream::connect_timeout(addr, IO_TIMEOUT) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_write_timeout(Some(IO_TIMEOUT))?;
                    stream.set_read_timeout(self.poll)?;
                    self.stream = Some(stream);
                    self.dials += 1;
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(ErrorKind::InvalidInput, "no address to connect to")
        }))
    }

    /// Writes the encode buffer on the live connection, dialing one first
    /// if there is none.
    fn write_out(&mut self) -> std::io::Result<()> {
        if self.stream.is_none() {
            self.dial()?;
        }
        let stream = self.stream.as_mut().expect("dialed above");
        stream.write_all(&self.out)
    }

    /// Runs `op` and answers a failure with up to `budget` rounds of
    /// backoff + a fresh attempt (which dials). Every failure first drops
    /// the connection — its stream position is untrustworthy, and the
    /// ingest frames it carried unacked are booked as lost, so the loss
    /// is surfaced even when the budget runs out. `Interrupted` (the
    /// owner's stop) and `InvalidData` (a peer speaking garbage) are
    /// surfaced at once, as is any failure once `stop` is raised.
    fn with_reconnect<T>(
        &mut self,
        budget: u32,
        mut op: impl FnMut(&mut Self) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let mut attempt = 0u32;
        loop {
            let err = match op(self) {
                Ok(v) => {
                    self.failed = false;
                    return Ok(v);
                }
                Err(e) => e,
            };
            self.drop_connection();
            if matches!(err.kind(), ErrorKind::Interrupted | ErrorKind::InvalidData)
                || attempt >= budget
                || self.stop.load(Ordering::Acquire)
            {
                self.failed = true;
                return Err(err);
            }
            attempt += 1;
            thread::sleep(self.reconnect.backoff(attempt));
        }
    }

    /// Drops the connection after a failed attempt, booking the
    /// pipelined-but-unacked ingest frames it carried as lost: folded
    /// into `unreported` (surfaced by the next [`Self::sync`]) and the
    /// handle's cumulative loss counters.
    fn drop_connection(&mut self) {
        self.stream = None;
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

    /// Successful re-dials after the handle's first connection.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.dials.saturating_sub(1)
    }

    /// Uploads one batch (fire-and-forget; pair with [`Self::sync`] for
    /// the acceptance ledger). The batch's client-side rejection count
    /// rides along so the server ledger accounts for it.
    ///
    /// # Errors
    /// Transport errors (after reconnect retries are exhausted); the
    /// batch is then not booked as in flight.
    pub fn ingest(&mut self, batch: &ReportBatch) -> std::io::Result<()> {
        self.out.clear();
        // Encode straight from the batch columns — no intermediate
        // column clones on the hot path.
        Frame::encode_ingest_into(batch, &mut self.out);
        self.write_ingest(batch.len() as u64)
    }

    /// Forwards rows `rows` (indices into `view`) of a received ingest
    /// frame, plus `rejected` client-side rejections, as one ingest frame:
    /// gathered by [`IngestView::encode_rows_into`] straight from the
    /// receive buffer into the handle's encode buffer, then written and
    /// booked exactly as [`Self::ingest`] writes a batch.
    ///
    /// # Errors
    /// As [`Self::ingest`].
    pub fn ingest_rows(
        &mut self,
        view: &IngestView<'_>,
        rows: &[u32],
        rejected: u64,
    ) -> std::io::Result<()> {
        self.out.clear();
        view.encode_rows_into(rows, rejected, &mut self.out);
        self.write_ingest(rows.len() as u64)
    }

    /// Writes the ingest frame in the encode buffer — one dial and no
    /// backoff if the last operation failed, the policy's budget
    /// otherwise — and books it unacked until the next sync.
    fn write_ingest(&mut self, rows: u64) -> std::io::Result<()> {
        let budget = if self.failed {
            0
        } else {
            self.reconnect.max_retries
        };
        self.with_reconnect(budget, Self::write_out)?;
        self.pending_frames += 1;
        self.pending_rows += rows;
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
        let sent = self.send(&Frame::IngestSync);
        self.finish_sync(sent)
    }

    /// The reply half of [`Self::sync`], for a barrier written by
    /// [`Self::send`] (`sent` is that write's outcome).
    ///
    /// # Errors
    /// As [`Self::sync`].
    pub fn finish_sync(&mut self, sent: std::io::Result<()>) -> std::io::Result<IngestOutcome> {
        let reply = self.finish(sent).and_then(server_reply);
        if let Ok(Frame::IngestAck { .. }) = reply {
            // Everything pipelined before the barrier is now covered by
            // the ack — no longer at risk, even when an earlier
            // connection's loss is what this call returns.
            self.pending_frames = 0;
            self.pending_rows = 0;
        }
        if let Some(loss) = self.unreported.take() {
            // The ack, if any, comes from a ledger that does not cover the
            // lost frames, so the loss outranks it.
            return Err(std::io::Error::other(loss));
        }
        match reply? {
            Frame::IngestAck {
                accepted,
                dropped,
                rejected,
            } => Ok(IngestOutcome {
                accepted,
                dropped,
                rejected,
            }),
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

    /// A full telemetry snapshot of the tier — every registered counter,
    /// gauge, and histogram (with full bucket arrays, so p50/p90/p99
    /// latency estimates are derivable client-side). A router's carries
    /// each downstream's snapshot under `downstream.NN.`, with a
    /// `downstream.NN.answered` gauge (0 = that downstream is missing).
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
                ErrorKind::InvalidData,
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

    /// Writes one request frame: the first half of an exchange, for an
    /// owner with several peers to ask before it reads any reply (a
    /// router's fan-out). A failed write is not final — hand its outcome
    /// to [`Self::finish`], which retries the whole exchange.
    ///
    /// # Errors
    /// The dial or the write failed.
    pub fn send(&mut self, request: &Frame) -> std::io::Result<()> {
        self.out.clear();
        request.encode_into(&mut self.out);
        self.write_out()
    }

    /// The reply to the request [`Self::send`] last wrote (`sent` is that
    /// write's outcome). A failed attempt is retried whole — dial, write
    /// from the encode buffer, read — within the policy's budget: exact
    /// for queries and pings, which are stateless on the server. The raw
    /// reply is returned, a server's [`Frame::Error`] included.
    ///
    /// # Errors
    /// The last attempt's transport error; `Interrupted` once the stop
    /// flag is raised, `InvalidData` for a reply that is not a valid frame.
    pub fn finish(&mut self, sent: std::io::Result<()>) -> std::io::Result<Frame> {
        let mut sent = Some(sent);
        self.with_reconnect(self.reconnect.max_retries, |this| {
            sent.take().unwrap_or_else(|| this.write_out())?;
            let stream = this.stream.as_mut().ok_or(ErrorKind::NotConnected)?;
            let stop = &this.stop;
            read_reply(stream, &mut this.payload, || stop.load(Ordering::Acquire))
        })
    }

    /// One request/response exchange, mapping a server [`Frame::Error`]
    /// to `io::Error`.
    fn request(&mut self, frame: &Frame) -> std::io::Result<Frame> {
        let sent = self.send(frame);
        server_reply(self.finish(sent)?)
    }
}

impl Drop for RemoteCollector {
    fn drop(&mut self) {
        // Polite close; the server treats plain EOF identically.
        if let Some(stream) = &mut self.stream {
            let _ = stream.write_all(&Frame::Goodbye.encode());
        }
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

/// A server [`Frame::Error`] as `io::Error`; any other reply as is.
fn server_reply(reply: Frame) -> std::io::Result<Frame> {
    let Frame::Error { code: c, message } = reply else {
        return Ok(reply);
    };
    let kind = match c {
        code::BUSY => ErrorKind::ConnectionRefused,
        code::BAD_QUERY => ErrorKind::InvalidInput,
        code::DEGRADED => ErrorKind::Other,
        _ => ErrorKind::InvalidData,
    };
    Err(std::io::Error::new(
        kind,
        format!("server error {c}: {message}"),
    ))
}

/// `io::Error` for a structurally valid but contextually wrong reply.
fn unexpected_reply(frame: &Frame) -> std::io::Error {
    std::io::Error::new(
        ErrorKind::InvalidData,
        format!("unexpected reply frame type {}", frame.frame_type()),
    )
}
