//! The federation tier: a [`Router`] is the `ldp-server` connection driver
//! ([`ldp_server::transport`]) over a *remote* backend — it accepts LDPW
//! connections on a front socket and spreads the load over N downstream
//! `ldp-server` collector processes.
//!
//! ```text
//!                      ┌────────────── Router ──────────────┐
//! RemoteCollector ────▶│ conn thread ── partition by user   │
//!   (ingest+query)     │   │  hash(user) % N, counting sort  │
//!                      │   ├─ gather + write ──▶ handle 00 ──┼──▶ ldp-server
//!                      │   ├─ gather + write ──▶ handle 01 ──┼──▶ ldp-server
//!                      │   └─ send to all, read from each, ◀─┤
//!                      │      merge answers                  │
//!                      │ accept thread │ health thread       │
//!                      └─────────────────────────────────────┘
//! ```
//!
//! The accept loop, the connection cap, the framed read, framing errors,
//! range validation, the read verbs and the `router.connections.* /
//! frames.* / bytes.*` books are the driver's, byte for byte what a
//! `Server` runs; this file is what a *federated* tier does with a frame:
//!
//! * **One thread per connection** — a front connection owns one
//!   [`RemoteCollector`] per downstream, dialed on first use, and its
//!   thread drives them itself: no writer threads, no queues, no locks.
//!   A downstream that stops reading therefore stops this connection's
//!   thread in `write`, which stops its reads, which stops the client —
//!   TCP flow control is the backpressure, and a connection costs one
//!   thread and a few buffers however far its peers fall behind. Ingest
//!   ledgers are per-connection on the servers, so per-connection
//!   handles are what keeps `IngestSync` meaning "what *this* client
//!   sent". The handle is the client library's: dialing, reconnect, the
//!   written-but-unacknowledged ledger and the reply read exist once,
//!   and a read blocked on a quiet downstream ends at shutdown.
//! * **Routing rule** — every report row goes to
//!   `downstream_of(user) = (user · SEED) >> 32 mod N`: all of a user's
//!   reports land on one downstream, so per-user state (the population
//!   mean's per-user averages) is never split. The user sets of the
//!   downstreams are disjoint, which is what makes the merged answers
//!   *exact*: scalar ledgers add, and [`MergedParts::merge`] — the same
//!   function a collector runs across its shards — anchors the slot table
//!   at the first slot every part still carries.
//! * **One copy per row** — an ingest frame is never widened: the user
//!   column is hashed straight off the receive buffer, row *indices* are
//!   counting-sorted by downstream, and each sub-frame is gathered from
//!   the receive buffer into that downstream's handle and written,
//!   fire-and-forget.
//! * **Ledger semantics** — an `IngestSync` barrier is written to every
//!   downstream *behind* the ingest already written there, then each
//!   ack is read: the reply is built after the last downstream's ack is
//!   read, so "no ack before **every** downstream acked" is program
//!   order, and the wait is the slowest downstream's, not the sum. The
//!   reported ledger is the sum, "durable at every downstream".
//! * **Degraded mode** — a dead downstream gets the handle's bounded
//!   reconnect-with-backoff ([`ReconnectPolicy`]); once a budget is
//!   spent, each ingest sub-frame costs one dial and no backoff until the
//!   downstream answers again. While it is down the router keeps serving
//!   the healthy set: ingest rows routed to it are dropped and counted
//!   (`router.downstream.NN.lost_*`), and any barrier or query that
//!   cannot be answered *exactly* is refused with a typed
//!   [`code::DEGRADED`] error frame rather than silently served from a
//!   partial federation. A connection that dies with unacknowledged
//!   frames (the handle's [`ldp_server::IngestLoss`]) or a dropped
//!   sub-frame makes the next sync report degraded once; then it
//!   recovers.
//! * **Queries** — population/windowed/slot-means/summary/parts are all
//!   answered by fanning out a `QueryParts` request (sent to all, then
//!   read from each) and folding the raw per-downstream contributions
//!   with [`MergedParts::merge`] — the merge is what the driver answers
//!   the read verbs from, `QueryParts` itself included (the merged part,
//!   so routers stack). `QueryMetrics` fans out too, nesting each
//!   downstream's snapshot under `downstream.NN.` beside the router's
//!   own, so one query sees the whole fleet, however deep the stack.

use ldp_collector::sync::atomic::{AtomicBool, Ordering};
use ldp_collector::sync::thread::{self, JoinHandle};
use ldp_collector::sync::Arc;
use ldp_collector::{IngestOutcome, MergedParts};
use ldp_server::transport::POLL_INTERVAL;
use ldp_server::wire::{
    code, metrics_payload_len, Frame, IngestScratch, IngestView, DEFAULT_MAX_PAYLOAD,
};
use ldp_server::{Backend, ReconnectPolicy, RemoteCollector, Transport};
use ldp_telemetry::{
    Counter, Gauge, Histogram, MetricEntry, MetricValue, Registry, TelemetrySnapshot,
};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, ToSocketAddrs};
use std::ops::Range;
use std::time::{Duration, Instant};

/// The router's user→downstream multiplier (Fibonacci-style multiply-
/// shift, like the collector's shard router — but a **different** odd
/// constant). If the two tiers hashed with the same multiplier, the rows
/// a downstream receives would all share the same high hash bits and
/// collapse onto a narrow band of its own shards, idling most of its
/// ingest parallelism.
pub const DOWNSTREAM_SEED: u64 = 0xD1B5_4A32_D192_ED03;

/// The downstream a user's reports route to. Total over `u64` user ids;
/// `downstreams` must be non-zero.
#[must_use]
pub fn downstream_of(user: u64, downstreams: usize) -> usize {
    debug_assert!(downstreams > 0);
    (user.wrapping_mul(DOWNSTREAM_SEED) >> 32) as usize % downstreams
}

/// Router tuning knobs. (The payload and per-query slot bounds are the
/// protocol constants in [`ldp_server::wire`], the same for every tier.)
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Maximum front connections served concurrently; extras are refused
    /// with a [`code::BUSY`] error frame.
    pub max_connections: usize,
    /// Cadence of the background downstream health probe (ping).
    pub health_interval: Duration,
    /// Per-message reconnect-with-backoff budget for downstream links.
    pub reconnect: ReconnectPolicy,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            health_interval: Duration::from_millis(150),
            reconnect: ReconnectPolicy::default(),
        }
    }
}

/// Per-downstream books, registered as `router.downstream.NN.*` (the
/// same zero-padded index convention as `collector.shard.NN.*`).
#[derive(Debug)]
pub(crate) struct DownstreamMetrics {
    /// `…NN.frames` — ingest frames written to this downstream.
    pub frames: Arc<Counter>,
    /// `…NN.rows` — report rows carried by those frames.
    pub rows: Arc<Counter>,
    /// `…NN.reconnects` — successful re-dials after a lost connection.
    pub reconnects: Arc<Counter>,
    /// `…NN.lost_frames` — ingest frames dropped because the downstream
    /// stayed unreachable through the reconnect budget.
    pub lost_frames: Arc<Counter>,
    /// `…NN.lost_rows` — rows those dropped frames carried.
    pub lost_rows: Arc<Counter>,
    /// `…NN.degraded_acks` — sync barriers this link could not vouch for
    /// (transport failure, frames lost with a connection, or a sub-frame
    /// dropped since the last barrier).
    pub degraded_acks: Arc<Counter>,
    /// `…NN.healthy` — the health probe's last verdict (1 = pinged OK).
    pub healthy: Arc<Gauge>,
}

/// The federation's own books (the front-side `router.connections.* /
/// frames.* / bytes.*` are the driver's `FrontMetrics`); handles into
/// the router's [`Registry`], which heads the metrics query frame's reply.
#[derive(Debug)]
struct RouterMetrics {
    /// `router.ingest.rows` — rows arriving at the front (before
    /// partitioning).
    ingest_rows: Arc<Counter>,
    /// `router.fanout.sync_nanos` — full barrier latency: first barrier
    /// written → every downstream's ack read.
    fanout_sync_nanos: Arc<Histogram>,
    /// `router.fanout.query_nanos` — fan-out + merge latency per query.
    fanout_query_nanos: Arc<Histogram>,
    /// Per-downstream books.
    downstream: Vec<DownstreamMetrics>,
}

impl RouterMetrics {
    fn register(registry: &Registry, downstreams: usize) -> Self {
        let downstream = (0..downstreams)
            .map(|i| DownstreamMetrics {
                frames: registry.counter(&format!("router.downstream.{i:02}.frames")),
                rows: registry.counter(&format!("router.downstream.{i:02}.rows")),
                reconnects: registry.counter(&format!("router.downstream.{i:02}.reconnects")),
                lost_frames: registry.counter(&format!("router.downstream.{i:02}.lost_frames")),
                lost_rows: registry.counter(&format!("router.downstream.{i:02}.lost_rows")),
                degraded_acks: registry.counter(&format!("router.downstream.{i:02}.degraded_acks")),
                healthy: registry.gauge(&format!("router.downstream.{i:02}.healthy")),
            })
            .collect();
        Self {
            ingest_rows: registry.counter("router.ingest.rows"),
            fanout_sync_nanos: registry.histogram("router.fanout.sync_nanos"),
            fanout_query_nanos: registry.histogram("router.fanout.query_nanos"),
            downstream,
        }
    }
}

/// The federation [`Backend`]: what a `Router`'s connections do with a
/// frame. Shared by the transport's threads and the health probe.
struct Federation {
    downstreams: Vec<SocketAddr>,
    registry: Registry,
    metrics: RouterMetrics,
    /// Raised by shutdown; shared with every downstream handle, so a
    /// reply read blocked on a quiet downstream ends within a poll tick.
    shutdown: Arc<AtomicBool>,
    config: RouterConfig,
}

/// A running federation front. Dropping the handle shuts the router down
/// gracefully.
pub struct Router {
    transport: Transport<Federation>,
    health: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("local_addr", &self.local_addr())
            .field("downstreams", &self.backend().downstreams)
            .field("config", &self.backend().config)
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Binds the front socket to an ephemeral loopback port and starts
    /// routing to `downstreams`.
    ///
    /// # Errors
    /// Socket errors from bind/listen; `InvalidInput` if `downstreams`
    /// is empty.
    pub fn bind(downstreams: Vec<SocketAddr>, config: RouterConfig) -> std::io::Result<Self> {
        Self::bind_addr(("127.0.0.1", 0), downstreams, config)
    }

    /// Binds the front socket to `addr` and starts routing to
    /// `downstreams`: spawns the accept loop and the health probe.
    /// Downstreams are *not* dialed here — each front connection dials
    /// its own set of downstream connections on first use (ingest ledgers
    /// are per-connection on the servers, so per-connection links are
    /// what keeps `IngestSync` meaning "what *this* client sent").
    ///
    /// # Errors
    /// Socket errors from bind/listen; `InvalidInput` if `downstreams`
    /// is empty.
    pub fn bind_addr<A: ToSocketAddrs>(
        addr: A,
        downstreams: Vec<SocketAddr>,
        config: RouterConfig,
    ) -> std::io::Result<Self> {
        if downstreams.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "router needs at least one downstream",
            ));
        }
        let registry = Registry::new();
        let metrics = RouterMetrics::register(&registry, downstreams.len());
        let backend = Arc::new(Federation {
            downstreams,
            registry,
            metrics,
            shutdown: Arc::default(),
            config,
        });
        let transport = Transport::bind(addr, Arc::clone(&backend), config.max_connections)?;
        let health = thread::Builder::new()
            .name("ldp-router-health".into())
            .spawn(move || health_loop(&backend))?;
        Ok(Self {
            transport,
            health: Some(health),
        })
    }

    fn backend(&self) -> &Federation {
        self.transport.backend()
    }

    /// The address the front socket is listening on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.transport.local_addr()
    }

    /// The downstream collector addresses, in routing order.
    #[must_use]
    pub fn downstreams(&self) -> &[SocketAddr] {
        &self.backend().downstreams
    }

    /// A point-in-time snapshot of the router's own registry — what the
    /// metrics query frame serves before its `downstream.NN.` entries.
    #[must_use]
    pub fn metrics(&self) -> TelemetrySnapshot {
        self.backend().registry.snapshot()
    }

    /// The health probe's last verdict per downstream (1 = pinged OK,
    /// 0 = unreachable or not yet probed).
    #[must_use]
    pub fn downstream_health(&self) -> Vec<i64> {
        self.backend()
            .metrics
            .downstream
            .iter()
            .map(|d| d.healthy.get())
            .collect()
    }

    /// Graceful shutdown: stops accepting, lets connection threads finish
    /// their in-flight frame, joins everything. Called automatically on drop;
    /// idempotent.
    pub fn shutdown(&mut self) {
        self.transport.shutdown();
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Background health probe: one persistent ping handle per downstream
/// (re-dialed by its next ping after a failure), gauge updated every
/// `health_interval`. Pings touch no collector state, so probing never
/// skews downstream books.
fn health_loop(shared: &Federation) {
    let mut probes: Vec<RemoteCollector> = shared
        .downstreams
        .iter()
        .map(|&addr| shared.handle(addr, ReconnectPolicy::none()))
        .collect();
    let mut last: Option<Instant> = None;
    while !shared.shutdown.load(Ordering::Acquire) {
        if last.is_none_or(|t| t.elapsed() >= shared.config.health_interval) {
            for (probe, metrics) in probes.iter_mut().zip(&shared.metrics.downstream) {
                metrics.healthy.set(i64::from(probe.ping().is_ok()));
            }
            last = Some(Instant::now());
        }
        thread::sleep(POLL_INTERVAL);
    }
}

/// One front connection's state: a [`Downstream`] per downstream —
/// driven by the connection's thread and nothing else — plus the reusable
/// partition buffers. Dropping it parts from each downstream with the
/// handles' Goodbye.
struct Links {
    links: Vec<Downstream>,
    partition: PartitionScratch,
}

/// A front connection's view of one downstream: the handle (dialed on
/// first use) and the two books the router keeps beside it.
struct Downstream {
    client: RemoteCollector,
    /// The handle's reconnects already added to
    /// `router.downstream.NN.reconnects`.
    reconnects: u64,
    /// An ingest frame for this downstream was counted and dropped since
    /// the last barrier, so the next barrier cannot vouch for it.
    undelivered: bool,
}

impl Downstream {
    /// Publishes the reconnects the handle made since the last call.
    fn note_reconnects(&mut self, metrics: &DownstreamMetrics) {
        let fresh = self.client.reconnects() - self.reconnects;
        if fresh > 0 {
            metrics.reconnects.add(fresh);
            self.reconnects += fresh;
        }
    }
}

/// Reusable per-connection buffers for the counting-sort partition of an
/// ingest frame's rows by downstream (the shape of the collector's shard
/// partition: indices move, rows do not).
#[derive(Default)]
struct PartitionScratch {
    /// Destination downstream per row.
    dest: Vec<u32>,
    /// Rows per downstream, then reused as the scatter cursor.
    cursor: Vec<usize>,
    /// Run boundaries: downstream `k` owns `rows[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<usize>,
    /// Row indices grouped by downstream — the contiguous runs.
    rows: Vec<u32>,
}

impl Backend for Federation {
    const TIER: &'static str = "router";

    type Conn = Links;

    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn shutdown(&self) -> &AtomicBool {
        &self.shutdown
    }

    /// One undialed handle per downstream: nothing is spawned or
    /// connected until the connection's first frame needs it.
    fn open(&self) -> Links {
        Links {
            links: self
                .downstreams
                .iter()
                .map(|&addr| Downstream {
                    client: self.handle(addr, self.config.reconnect),
                    reconnects: 0,
                    undelivered: false,
                })
                .collect(),
            partition: PartitionScratch::default(),
        }
    }

    /// Partitions the frame's rows by downstream (counting sort over row
    /// indices) and writes one sub-frame per non-empty downstream, each
    /// gathered once from the receive buffer. The client-side rejection
    /// count rides on downstream 0's sub-frame (its ack folds it back
    /// into the summed ledger).
    fn ingest(
        &self,
        conn: &mut Links,
        ingest: &IngestView<'_>,
        _payload: &[u8],
        _scratch: &mut IngestScratch,
    ) -> io::Result<()> {
        self.metrics.ingest_rows.add(ingest.len() as u64);
        let Links { links, partition } = conn;
        let n = links.len();

        // Pass 1: destination per row + per-downstream counts.
        partition.dest.clear();
        partition.dest.reserve(ingest.len());
        partition.cursor.clear();
        partition.cursor.resize(n, 0);
        for user in ingest.users() {
            let d = downstream_of(user, n);
            partition.dest.push(d as u32);
            partition.cursor[d] += 1;
        }
        // Prefix-sum into run offsets; cursor becomes the scatter position.
        partition.offsets.clear();
        partition.offsets.reserve(n + 1);
        let mut running = 0usize;
        for count in &mut partition.cursor {
            partition.offsets.push(running);
            running += std::mem::replace(count, running);
        }
        partition.offsets.push(running);
        // Pass 2: scatter the row indices into per-downstream runs (a
        // payload is bounded far below `u32::MAX` rows).
        partition.rows.resize(ingest.len(), 0);
        for (row, &d) in partition.dest.iter().enumerate() {
            let at = &mut partition.cursor[d as usize];
            partition.rows[*at] = row as u32;
            *at += 1;
        }

        for (k, link) in links.iter_mut().enumerate() {
            let run = &partition.rows[partition.offsets[k]..partition.offsets[k + 1]];
            let rejected = if k == 0 {
                ingest.rejected_upstream()
            } else {
                0
            };
            if run.is_empty() && rejected == 0 {
                continue;
            }
            let metrics = &self.metrics.downstream[k];
            let rows = run.len() as u64;
            if link.client.ingest_rows(ingest, run, rejected).is_ok() {
                metrics.frames.inc();
                metrics.rows.add(rows);
            } else {
                // These rows are gone: count them, and the next barrier
                // degrades.
                // TODO(ROADMAP "Exactly-once ingest"): spool these frames
                // to a router-side WAL (`ldp-wal` exists for exactly this
                // record shape) and drain on reconnect, instead of
                // counted-and-dropped.
                link.undelivered = true;
                metrics.lost_frames.inc();
                metrics.lost_rows.add(rows);
            }
            link.note_reconnects(metrics);
        }
        Ok(())
    }

    /// The barrier trails the ingest already written to every downstream
    /// (one socket each, so FIFO); the ack is the summed ledger, built
    /// after **every** downstream's ack has been read. A downstream whose
    /// handle lost frames with a connection ([`ldp_server::IngestLoss`])
    /// or that had a frame dropped since the last barrier cannot vouch
    /// for it: that barrier reports degraded, once.
    fn sync(&self, conn: &mut Links) -> io::Result<Frame> {
        let _t = self.metrics.fanout_sync_nanos.timer();
        let replies = self.fanout(conn, &Frame::IngestSync, RemoteCollector::finish_sync);
        let n = replies.len();
        let mut sum = IngestOutcome::default();
        let mut failed = 0usize;
        for (k, (link, reply)) in conn.links.iter_mut().zip(replies).enumerate() {
            let undelivered = std::mem::take(&mut link.undelivered);
            match reply {
                Ok(ledger) if !undelivered => sum.absorb(ledger),
                _ => {
                    self.metrics.downstream[k].degraded_acks.inc();
                    failed += 1;
                }
            }
        }
        if failed > 0 {
            return Ok(degraded_error(failed, n));
        }
        Ok(Frame::IngestAck {
            accepted: sum.accepted,
            dropped: sum.dropped,
            rejected: sum.rejected,
        })
    }

    /// No front-side clipping of the fan-out: each downstream clips to its
    /// own retained range (and enforces its own slot bound), which is what
    /// lets routers stack.
    fn query(
        &self,
        conn: &mut Links,
        range: Range<u64>,
        answer: impl FnOnce(&MergedParts) -> Frame,
    ) -> Frame {
        match self.merged_query(conn, range) {
            Ok(merged) => answer(&merged),
            Err(refusal) => refusal,
        }
    }

    /// The router's own registry plus each downstream's entries renamed
    /// `downstream.NN.<name>` and a `downstream.NN.answered` gauge, sorted
    /// by name. A downstream that fails, answers anything but `Metrics`,
    /// or whose renamed entries would overflow the `u16` name length,
    /// collide with that gauge or push the reply past
    /// [`DEFAULT_MAX_PAYLOAD`] is marked `answered 0`, not merged — so
    /// no downstream can make the reply unencodable.
    fn metrics(&self, conn: &mut Links) -> TelemetrySnapshot {
        let _t = self.metrics.fanout_query_nanos.timer();
        let replies = self.fanout(conn, &Frame::QueryMetrics, RemoteCollector::finish);
        let mut answered: Vec<MetricEntry> = (0..replies.len())
            .map(|k| MetricEntry {
                name: format!("downstream.{k:02}.answered"),
                value: MetricValue::Gauge(0),
            })
            .collect();
        let mut entries = self.registry.snapshot().entries;
        for (k, reply) in replies.into_iter().enumerate() {
            let Ok(Frame::Metrics(snapshot)) = reply else {
                continue;
            };
            let renamed: Vec<MetricEntry> = snapshot
                .entries
                .into_iter()
                .map(|entry| MetricEntry {
                    name: format!("downstream.{k:02}.{}", entry.name),
                    value: entry.value,
                })
                .collect();
            let encodable = renamed
                .iter()
                .all(|e| e.name.len() <= usize::from(u16::MAX) && e.name != answered[k].name);
            let len = metrics_payload_len(entries.iter().chain(&answered).chain(&renamed));
            if encodable && len <= DEFAULT_MAX_PAYLOAD as usize {
                answered[k].value = MetricValue::Gauge(1);
                entries.extend(renamed);
            }
        }
        entries.append(&mut answered);
        entries.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        TelemetrySnapshot { entries }
    }
}

// The Err variant is a full Frame by design (it is written to the wire
// verbatim) and only materializes on the cold degraded path.
#[allow(clippy::result_large_err)]
impl Federation {
    /// A handle to `addr` whose reply reads end at the router's shutdown:
    /// what every connection's links and the health probe hold.
    fn handle(&self, addr: SocketAddr, reconnect: ReconnectPolicy) -> RemoteCollector {
        let stop = Arc::clone(&self.shutdown);
        RemoteCollector::with_stop(addr, reconnect, stop)
    }

    /// Request/response with every downstream: `request` is written to
    /// **all** handles before the first reply is awaited, so the wait is
    /// the slowest downstream's, not the sum; each reply is read by
    /// `finish`. `Err` = that downstream failed through its reconnect
    /// budget.
    fn fanout<T>(
        &self,
        conn: &mut Links,
        request: &Frame,
        finish: fn(&mut RemoteCollector, io::Result<()>) -> io::Result<T>,
    ) -> Vec<io::Result<T>> {
        let sent: Vec<_> = conn
            .links
            .iter_mut()
            .map(|l| l.client.send(request))
            .collect();
        conn.links
            .iter_mut()
            .zip(sent)
            .enumerate()
            .map(|(k, (link, sent))| {
                let reply = finish(&mut link.client, sent);
                link.note_reconnects(&self.metrics.downstream[k]);
                reply
            })
            .collect()
    }

    /// Fans out a `QueryParts` request over `range` and merges the
    /// contributions. `Err` carries the reply to send instead: the first
    /// downstream-reported error frame (e.g. a range beyond that server's
    /// bound), or a [`code::DEGRADED`] error if any link failed — a
    /// partial federation answer would be silently wrong, so it is
    /// refused instead.
    fn merged_query(&self, conn: &mut Links, range: Range<u64>) -> Result<MergedParts, Frame> {
        let _t = self.metrics.fanout_query_nanos.timer();
        let query = Frame::QueryParts {
            start: range.start,
            end: range.end,
        };
        let replies = self.fanout(conn, &query, RemoteCollector::finish);
        let n = replies.len();
        let mut parts = Vec::with_capacity(n);
        let mut failed = 0usize;
        let mut downstream_error = None;
        for (idx, reply) in replies.into_iter().enumerate() {
            match reply {
                Ok(Frame::Parts(part)) => parts.push(part),
                Ok(Frame::Error { code, message }) => {
                    downstream_error.get_or_insert(Frame::Error {
                        code,
                        message: format!("downstream {idx:02}: {message}"),
                    });
                }
                Ok(_) | Err(_) => failed += 1,
            }
        }
        if let Some(error) = downstream_error {
            return Err(error);
        }
        if failed > 0 {
            return Err(degraded_error(failed, n));
        }
        Ok(MergedParts::merge(&parts))
    }
}

/// The typed degraded-mode refusal.
fn degraded_error(failed: usize, n: usize) -> Frame {
    Frame::Error {
        code: code::DEGRADED,
        message: format!("{failed} of {n} downstreams unavailable"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_total_and_deterministic() {
        for n in 1..=5 {
            for user in (0..10_000u64).chain([u64::MAX, u64::MAX - 1]) {
                let d = downstream_of(user, n);
                assert!(d < n);
                assert_eq!(d, downstream_of(user, n), "stable per user");
            }
        }
    }

    #[test]
    fn routing_spreads_users_roughly_evenly() {
        let n = 4;
        let mut counts = vec![0usize; n];
        for user in 0..40_000u64 {
            counts[downstream_of(user, n)] += 1;
        }
        for &c in &counts {
            // 10k expected per downstream; allow ±20%.
            assert!((8_000..=12_000).contains(&c), "skewed routing: {counts:?}");
        }
    }

    #[test]
    fn router_refuses_empty_downstream_set() {
        let err = Router::bind(Vec::new(), RouterConfig::default()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
    }
}
