//! The federation tier: a [`Router`] is the `ldp-server` connection driver
//! ([`ldp_server::transport`]) over a *remote* backend — it accepts LDPW
//! connections on a front socket and spreads the load over N downstream
//! `ldp-server` collector processes.
//!
//! ```text
//!                      ┌───────────── Router ─────────────┐
//! RemoteCollector ────▶│ conn thread ── partition by user ─┤─ link 00 ──▶ ldp-server
//!   (ingest+query)     │   │  hash(user) % N, counting sort│─ link 01 ──▶ ldp-server
//!                      │   │                               │─ link NN ──▶ ldp-server
//!                      │   └─ merge answers ◀─ FanoutGate ─┤
//!                      │ accept thread │ health thread     │
//!                      └───────────────────────────────────┘
//! ```
//!
//! The accept loop, the connection cap, the framed read, framing errors,
//! range validation, the read verbs and the `router.connections.* /
//! frames.* / bytes.*` books are the driver's, byte for byte what a
//! `Server` runs; this file is what a *federated* tier does with a frame:
//!
//! * **Per-connection links** — every front connection opens its own link
//!   (queue + writer thread) to every downstream before its first frame,
//!   and closes them — pending ingest drained first — then joins them
//!   after its last. Ingest ledgers are per-connection on the servers, so
//!   per-connection links are what keeps `IngestSync` meaning "what *this*
//!   client sent".
//! * **Routing rule** — every report row goes to
//!   `downstream_of(user) = (user · SEED) >> 32 mod N`: all of a user's
//!   reports land on one downstream, so per-user state (the population
//!   mean's per-user averages) is never split. The user sets of the
//!   downstreams are disjoint, which is what makes the merged answers
//!   *exact*: scalar ledgers add, and [`MergedParts::merge`] — the same
//!   function a collector runs across its shards — anchors the slot table
//!   at the first slot every part still carries.
//! * **Ledger semantics** — ingest frames are partitioned and fanned out
//!   fire-and-forget; an `IngestSync` barrier is enqueued *behind* the
//!   pending ingest on every link (FIFO), each link reports its
//!   downstream's ack through a [`FanoutGate`], and the router answers
//!   only when **every** downstream has acked — the reported ledger is
//!   the sum, "durable at every downstream".
//! * **Degraded mode** — a dead downstream gets bounded
//!   reconnect-with-backoff ([`ReconnectPolicy`]). While it is down the
//!   router keeps serving the healthy set: ingest rows routed to it are
//!   dropped and counted (`router.downstream.NN.lost_*`), and any
//!   barrier or query that cannot be answered *exactly* is refused with
//!   a typed [`code::DEGRADED`] error frame rather than silently served
//!   from a partial federation. A reconnect that loses unacked frames
//!   taints the link's ledger; the next sync reports degraded once and
//!   then recovers.
//! * **Queries** — population/windowed/slot-means/summary/parts are all
//!   answered by fanning out a `QueryParts` request and folding the raw
//!   per-downstream contributions with [`MergedParts::merge`] — the merge
//!   is what the driver answers the read verbs from, `QueryParts` itself
//!   included (the merged part, so routers stack); stats sums the
//!   downstream collectors' report ledgers
//!   under the router's own connection counters; metrics serves the
//!   router's registry.

use crate::fanout::{FanoutGate, FrameQueue};
use ldp_collector::sync::atomic::{AtomicBool, Ordering};
use ldp_collector::sync::thread::{self, JoinHandle};
use ldp_collector::sync::Arc;
use ldp_collector::{IngestOutcome, MergedParts};
use ldp_server::wire::{code, Frame, IngestScratch, IngestView, StatsBody, HEADER_LEN};
use ldp_server::{read_reply, Backend, ReconnectPolicy, RemoteCollector, Transport};
use ldp_telemetry::{Counter, Gauge, Histogram, Registry, TelemetrySnapshot};
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
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
    /// How often blocked reads / the accept loop wake to check for
    /// shutdown.
    pub poll_interval: Duration,
    /// Cadence of the background downstream health probe (ping).
    pub health_interval: Duration,
    /// Per-message reconnect-with-backoff budget for downstream links.
    pub reconnect: ReconnectPolicy,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            poll_interval: Duration::from_millis(20),
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
    /// (transport failure, or a reconnect that lost unacked frames).
    pub degraded_acks: Arc<Counter>,
    /// `…NN.healthy` — the health probe's last verdict (1 = pinged OK).
    pub healthy: Arc<Gauge>,
}

/// The federation's own books (the front-side `router.connections.* /
/// frames.* / bytes.*` are the driver's `FrontMetrics`); handles into
/// the router's [`Registry`], served verbatim by the metrics query frame.
#[derive(Debug)]
struct RouterMetrics {
    /// `router.ingest.rows` — rows arriving at the front (before
    /// partitioning).
    ingest_rows: Arc<Counter>,
    /// `router.fanout.sync_nanos` — full barrier latency: enqueue behind
    /// pending ingest → every downstream acked.
    fanout_sync_nanos: Arc<Histogram>,
    /// `router.fanout.query_nanos` — fan-out + merge latency per query.
    fanout_query_nanos: Arc<Histogram>,
    /// Per-downstream books.
    downstream: Vec<Arc<DownstreamMetrics>>,
}

impl RouterMetrics {
    fn register(registry: &Registry, downstreams: usize) -> Self {
        let downstream = (0..downstreams)
            .map(|i| {
                Arc::new(DownstreamMetrics {
                    frames: registry.counter(&format!("router.downstream.{i:02}.frames")),
                    rows: registry.counter(&format!("router.downstream.{i:02}.rows")),
                    reconnects: registry.counter(&format!("router.downstream.{i:02}.reconnects")),
                    lost_frames: registry.counter(&format!("router.downstream.{i:02}.lost_frames")),
                    lost_rows: registry.counter(&format!("router.downstream.{i:02}.lost_rows")),
                    degraded_acks: registry
                        .counter(&format!("router.downstream.{i:02}.degraded_acks")),
                    healthy: registry.gauge(&format!("router.downstream.{i:02}.healthy")),
                })
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
/// frame. Shared by the transport's threads, the health probe, and every
/// downstream link.
struct Federation {
    downstreams: Vec<SocketAddr>,
    registry: Registry,
    metrics: RouterMetrics,
    shutdown: AtomicBool,
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
    /// Downstreams are *not* dialed here — each front connection opens
    /// its own set of downstream connections (ingest ledgers are
    /// per-connection on the servers, so per-connection links are what
    /// keeps `IngestSync` meaning "what *this* client sent").
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
            shutdown: AtomicBool::new(false),
            config,
        });
        let transport = Transport::bind(
            addr,
            Arc::clone(&backend),
            config.max_connections,
            config.poll_interval,
        )?;
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

    /// A point-in-time snapshot of the router's own registry — exactly
    /// what the metrics query frame serves.
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

    /// Graceful shutdown: stops accepting, lets connection threads flush
    /// their links, joins everything. Called automatically on drop;
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

/// Background health probe: one persistent ping client per downstream,
/// re-dialed on failure, gauge updated every `health_interval`. Pings
/// touch no collector state, so probing never skews downstream books.
fn health_loop(shared: &Federation) {
    let mut probes: Vec<Option<RemoteCollector>> =
        shared.downstreams.iter().map(|_| None).collect();
    let mut last: Option<Instant> = None;
    while !shared.shutdown.load(Ordering::Acquire) {
        if last.is_none_or(|t| t.elapsed() >= shared.config.health_interval) {
            for (idx, addr) in shared.downstreams.iter().enumerate() {
                let probe = &mut probes[idx];
                if probe.is_none() {
                    *probe = RemoteCollector::connect_with(addr, ReconnectPolicy::none()).ok();
                }
                let healthy = match probe.as_mut() {
                    Some(client) => {
                        let ok = client.ping().is_ok();
                        if !ok {
                            *probe = None; // re-dial next tick
                        }
                        ok
                    }
                    None => false,
                };
                shared.metrics.downstream[idx]
                    .healthy
                    .set(i64::from(healthy));
            }
            last = Some(Instant::now());
        }
        thread::sleep(shared.config.poll_interval);
    }
}

/// A message for one downstream link's writer thread.
enum Msg {
    /// Pre-encoded ingest sub-frame, fire-and-forget.
    Ingest { bytes: Vec<u8>, rows: u64 },
    /// Barrier: write `IngestSync`, read the ack, deposit the outcome.
    Sync {
        gate: Arc<FanoutGate<IngestOutcome>>,
    },
    /// Request/response: write the query, deposit the reply frame.
    Query {
        bytes: Arc<[u8]>,
        gate: Arc<FanoutGate<Frame>>,
    },
}

/// One downstream link: queue + writer thread handle.
struct LinkHandle {
    queue: Arc<FrameQueue<Msg>>,
    join: JoinHandle<()>,
}

/// One front connection's state: its own link to every downstream, plus
/// the reusable partition buffers. Dropping it closes the link queues
/// (they drain pending ingest first), then joins the link threads.
#[derive(Default)]
struct Links {
    links: Vec<LinkHandle>,
    partition: PartitionScratch,
}

impl Drop for Links {
    fn drop(&mut self) {
        for link in &self.links {
            link.queue.close();
        }
        for link in self.links.drain(..) {
            let _ = link.join.join();
        }
    }
}

/// Reusable per-connection buffers for the counting-sort partition of an
/// ingest frame's rows by downstream.
#[derive(Default)]
struct PartitionScratch {
    /// Destination downstream per row.
    dest: Vec<u32>,
    /// Rows per downstream, then reused as the scatter cursor.
    cursor: Vec<usize>,
    /// Slice boundaries per downstream (`offsets[k]..offsets[k + 1]`).
    offsets: Vec<usize>,
    /// Gathered columns, grouped by downstream.
    users: Vec<u64>,
    slots: Vec<u64>,
    values: Vec<f64>,
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

    /// Spawns the connection's downstream links. A spawn failure (resource
    /// exhaustion) refuses the connection rather than serve a partial
    /// federation; the links already spawned close with the dropped
    /// [`Links`].
    fn open(self: &Arc<Self>) -> io::Result<Links> {
        let mut conn = Links::default();
        for idx in 0..self.downstreams.len() {
            let queue = Arc::new(FrameQueue::new());
            let join = {
                let shared = Arc::clone(self);
                let queue = Arc::clone(&queue);
                thread::Builder::new()
                    .name(format!("ldp-router-link-{idx:02}"))
                    .spawn(move || link_main(&shared, idx, &queue))?
            };
            conn.links.push(LinkHandle { queue, join });
        }
        Ok(conn)
    }

    fn ingest(
        &self,
        conn: &mut Links,
        ingest: &IngestView<'_>,
        _payload: &[u8],
        scratch: &mut IngestScratch,
    ) -> io::Result<()> {
        self.metrics.ingest_rows.add(ingest.len() as u64);
        route_ingest(&conn.links, ingest, scratch, &mut conn.partition);
        Ok(())
    }

    /// The barrier trails the pending ingest on every link (FIFO); the
    /// ack is the summed ledger once **every** downstream has acked.
    fn sync(&self, conn: &mut Links) -> io::Result<Frame> {
        let _t = self.metrics.fanout_sync_nanos.timer();
        let n = conn.links.len();
        let gate = Arc::new(FanoutGate::new(n));
        for (idx, link) in conn.links.iter().enumerate() {
            if !link.queue.push(Msg::Sync {
                gate: Arc::clone(&gate),
            }) {
                gate.deposit(idx, None);
            }
        }
        let ledgers = gate.wait();
        let failed = ledgers.iter().filter(|l| l.is_none()).count();
        if failed > 0 {
            return Ok(degraded_error(failed, n));
        }
        let mut sum = IngestOutcome::default();
        for ledger in ledgers.into_iter().flatten() {
            sum.accepted = sum.accepted.saturating_add(ledger.accepted);
            sum.dropped = sum.dropped.saturating_add(ledger.dropped);
            sum.rejected = sum.rejected.saturating_add(ledger.rejected);
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
        match self.merged_query(&conn.links, range) {
            Ok(merged) => answer(&merged),
            Err(refusal) => refusal,
        }
    }

    /// Fans out `QueryStats` and sums the downstream collectors'
    /// report-disposition and durability ledgers (per-downstream-WAL books
    /// become their federation-wide total).
    fn stats(&self, conn: &mut Links) -> Result<StatsBody, Frame> {
        let _t = self.metrics.fanout_query_nanos.timer();
        let replies = fanout(&conn.links, &Frame::QueryStats);
        let n = replies.len();
        let mut sum = StatsBody::default();
        let mut failed = 0usize;
        for reply in replies {
            let Some(Frame::Stats(stats)) = reply else {
                failed += 1;
                continue;
            };
            sum.accepted_reports = sum.accepted_reports.saturating_add(stats.accepted_reports);
            sum.dropped_reports = sum.dropped_reports.saturating_add(stats.dropped_reports);
            sum.rejected_reports = sum.rejected_reports.saturating_add(stats.rejected_reports);
            sum.upstream_rejected_reports = sum
                .upstream_rejected_reports
                .saturating_add(stats.upstream_rejected_reports);
            sum.wal_appended_records = sum
                .wal_appended_records
                .saturating_add(stats.wal_appended_records);
            sum.wal_appended_bytes = sum
                .wal_appended_bytes
                .saturating_add(stats.wal_appended_bytes);
            sum.wal_recovered_records = sum
                .wal_recovered_records
                .saturating_add(stats.wal_recovered_records);
        }
        if failed > 0 {
            return Err(degraded_error(failed, n));
        }
        Ok(sum)
    }
}

/// Partitions one incoming ingest frame's rows by downstream (counting
/// sort — same discipline as the collector's shard partition) and
/// enqueues one pre-encoded sub-frame per non-empty downstream. The
/// client-side rejection count rides on downstream 0's sub-frame (its
/// ack folds it back into the summed ledger).
fn route_ingest(
    links: &[LinkHandle],
    ingest: &IngestView<'_>,
    scratch: &mut IngestScratch,
    partition: &mut PartitionScratch,
) {
    let n = links.len();
    let rejected_upstream = ingest.rejected_upstream();
    let columns = ingest.columns(scratch);
    let (users, slots, values) = (columns.users(), columns.slots(), columns.values());
    let rows = users.len();

    // Pass 1: destination per row + per-downstream counts.
    partition.dest.clear();
    partition.dest.reserve(rows);
    partition.cursor.clear();
    partition.cursor.resize(n, 0);
    for &user in users {
        let d = downstream_of(user, n);
        partition.dest.push(d as u32);
        partition.cursor[d] += 1;
    }
    // Prefix-sum into slice offsets; cursor becomes the scatter position.
    partition.offsets.clear();
    partition.offsets.reserve(n + 1);
    let mut running = 0usize;
    for k in 0..n {
        partition.offsets.push(running);
        running += partition.cursor[k];
        partition.cursor[k] = partition.offsets[k];
    }
    partition.offsets.push(running);
    // Pass 2: scatter into contiguous per-downstream column groups.
    partition.users.resize(rows, 0);
    partition.slots.resize(rows, 0);
    partition.values.resize(rows, 0.0);
    for i in 0..rows {
        let at = &mut partition.cursor[partition.dest[i] as usize];
        partition.users[*at] = users[i];
        partition.slots[*at] = slots[i];
        partition.values[*at] = values[i];
        *at += 1;
    }

    for (k, link) in links.iter().enumerate() {
        let (lo, hi) = (partition.offsets[k], partition.offsets[k + 1]);
        let rejected = if k == 0 { rejected_upstream } else { 0 };
        if lo == hi && rejected == 0 {
            continue;
        }
        // 12 bytes of ingest-payload preamble + 24 per row + envelope.
        let mut bytes = Vec::with_capacity(HEADER_LEN + 12 + (hi - lo) * 24);
        Frame::encode_ingest_columns_into(
            &mut bytes,
            rejected,
            &partition.users[lo..hi],
            &partition.slots[lo..hi],
            &partition.values[lo..hi],
        );
        link.queue.push(Msg::Ingest {
            bytes,
            rows: (hi - lo) as u64,
        });
    }
}

/// Fans `frame` out to every link and waits for all replies.
fn fanout(links: &[LinkHandle], frame: &Frame) -> Vec<Option<Frame>> {
    let bytes: Arc<[u8]> = frame.encode().into();
    let gate = Arc::new(FanoutGate::new(links.len()));
    for (idx, link) in links.iter().enumerate() {
        if !link.queue.push(Msg::Query {
            bytes: Arc::clone(&bytes),
            gate: Arc::clone(&gate),
        }) {
            gate.deposit(idx, None);
        }
    }
    gate.wait()
}

// The Err variant is a full Frame by design (it is written to the wire
// verbatim) and only materializes on the cold degraded path.
#[allow(clippy::result_large_err)]
impl Federation {
    /// Fans out a `QueryParts` request over `range` and merges the
    /// contributions. `Err` carries the reply to send instead: the first
    /// downstream-reported error frame (e.g. a range beyond that server's
    /// bound), or a [`code::DEGRADED`] error if any link failed — a
    /// partial federation answer would be silently wrong, so it is
    /// refused instead.
    fn merged_query(&self, links: &[LinkHandle], range: Range<u64>) -> Result<MergedParts, Frame> {
        let _t = self.metrics.fanout_query_nanos.timer();
        let query = Frame::QueryParts {
            start: range.start,
            end: range.end,
        };
        let replies = fanout(links, &query);
        let n = replies.len();
        let mut parts = Vec::with_capacity(n);
        let mut failed = 0usize;
        let mut downstream_error = None;
        for (idx, reply) in replies.into_iter().enumerate() {
            match reply {
                Some(Frame::Parts(part)) => parts.push(part),
                Some(Frame::Error { code, message }) => {
                    downstream_error.get_or_insert(Frame::Error {
                        code,
                        message: format!("downstream {idx:02}: {message}"),
                    });
                }
                Some(_) | None => failed += 1,
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

// ---------------------------------------------------------------------
// Downstream link writer threads.
// ---------------------------------------------------------------------

/// One downstream connection owned by its writer thread: dial-on-demand,
/// bounded reconnect-with-backoff, and the unacked/taint ledger that
/// keeps sync barriers honest across reconnects.
struct Link<'a> {
    idx: usize,
    addr: SocketAddr,
    shared: &'a Federation,
    metrics: &'a DownstreamMetrics,
    stream: Option<TcpStream>,
    /// Whether a connection ever succeeded (re-dials after this count as
    /// reconnects).
    connected_before: bool,
    /// Ingest frames written on the current connection since its last
    /// ack — what a lost connection would silently drop from the ledger.
    unacked: u64,
    /// The current sync epoch cannot be vouched for: a connection died
    /// with unacked frames, or ingest frames were dropped outright. The
    /// next barrier reports degraded once, then the ledger restarts.
    tainted: bool,
    /// Reusable reply payload buffer.
    payload: Vec<u8>,
    /// Pre-encoded `IngestSync` request.
    sync_bytes: Vec<u8>,
}

/// Link writer thread: drains the queue until the front connection
/// closes it, then parts with a best-effort Goodbye.
fn link_main(shared: &Federation, idx: usize, queue: &FrameQueue<Msg>) {
    let mut link = Link {
        idx,
        addr: shared.downstreams[idx],
        shared,
        metrics: &shared.metrics.downstream[idx],
        stream: None,
        connected_before: false,
        unacked: 0,
        tainted: false,
        payload: Vec::new(),
        sync_bytes: Frame::IngestSync.encode(),
    };
    while let Some(msg) = queue.pop() {
        match msg {
            Msg::Ingest { bytes, rows } => link.handle_ingest(&bytes, rows),
            Msg::Sync { gate } => {
                let outcome = link.handle_sync();
                gate.deposit(link.idx, outcome);
            }
            Msg::Query { bytes, gate } => {
                let reply = link.request(&bytes).ok();
                gate.deposit(link.idx, reply);
            }
        }
    }
    if let Some(mut stream) = link.stream.take() {
        let _ = stream.write_all(&Frame::Goodbye.encode());
    }
}

impl Link<'_> {
    /// Dials the downstream if not connected. Counts re-dials.
    fn ensure_stream(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.shared.config.poll_interval))?;
            stream.set_write_timeout(Some(Duration::from_secs(10)))?;
            if self.connected_before {
                self.metrics.reconnects.inc();
            }
            self.connected_before = true;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("stream just ensured"))
    }

    /// Drops the current connection. Unacked ingest frames die with the
    /// server-side ledger, so the next barrier must report degraded.
    fn drop_stream(&mut self) {
        if self.stream.take().is_some() && self.unacked > 0 {
            self.tainted = true;
            self.unacked = 0;
        }
    }

    /// Writes `bytes`, answering failures with up to `budget` backoff +
    /// re-dial rounds.
    fn write_with_retry(&mut self, bytes: &[u8], budget: u32) -> std::io::Result<()> {
        let mut attempt = 0u32;
        loop {
            let result = self
                .ensure_stream()
                .and_then(|stream| stream.write_all(bytes));
            let err = match result {
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            self.drop_stream();
            if attempt >= budget || self.shared.shutdown.load(Ordering::Acquire) {
                return Err(err);
            }
            attempt += 1;
            thread::sleep(self.shared.config.reconnect.backoff(attempt));
        }
    }

    /// Ingest fan-out: fire-and-forget toward this downstream. A link
    /// already known dead gets one cheap dial attempt per frame (so a
    /// recovered downstream heals on the next frame) instead of the full
    /// backoff budget — a dead downstream must not stall the pump.
    fn handle_ingest(&mut self, bytes: &[u8], rows: u64) {
        let budget = if self.stream.is_some() {
            self.shared.config.reconnect.max_retries
        } else {
            0
        };
        match self.write_with_retry(bytes, budget) {
            Ok(()) => {
                self.unacked += 1;
                self.metrics.frames.inc();
                self.metrics.rows.add(rows);
            }
            Err(_) => {
                // These rows are gone: count them and taint the ledger.
                // TODO(ROADMAP "Federation follow-ons"): spool these
                // frames to a router-side WAL (`ldp-wal` now exists for
                // exactly this record shape) and drain on reconnect,
                // instead of counted-and-dropped.
                self.tainted = true;
                self.metrics.lost_frames.inc();
                self.metrics.lost_rows.add(rows);
            }
        }
    }

    /// Sync barrier leg: FIFO already put every pending ingest frame on
    /// the wire ahead of this, so the downstream's ack covers them.
    /// `None` = this link cannot vouch for durability (transport failure
    /// or a tainted ledger).
    fn handle_sync(&mut self) -> Option<IngestOutcome> {
        // `request` needs `&mut self`; lend it the pre-encoded frame by
        // moving the buffer out and back rather than cloning it per barrier.
        let sync_bytes = std::mem::take(&mut self.sync_bytes);
        let reply = self.request(&sync_bytes);
        self.sync_bytes = sync_bytes;
        match reply {
            Ok(Frame::IngestAck {
                accepted,
                dropped,
                rejected,
            }) => {
                self.unacked = 0;
                if self.tainted {
                    // Report the gap exactly once; the fresh ledger is
                    // trustworthy from here on.
                    self.tainted = false;
                    self.metrics.degraded_acks.inc();
                    None
                } else {
                    Some(IngestOutcome {
                        accepted,
                        dropped,
                        rejected,
                    })
                }
            }
            Ok(_) => {
                self.metrics.degraded_acks.inc();
                None
            }
            Err(_) => {
                self.metrics.degraded_acks.inc();
                None
            }
        }
    }

    /// Request/response with bounded reconnect: queries are stateless on
    /// the downstream, so a retry on a fresh connection is exact. (A
    /// reconnect here still taints the *ingest* ledger via
    /// [`Self::drop_stream`] if frames were unacked.)
    fn request(&mut self, bytes: &[u8]) -> std::io::Result<Frame> {
        let mut attempt = 0u32;
        loop {
            let err = match self.try_request(bytes) {
                Ok(frame) => return Ok(frame),
                Err(e) => e,
            };
            let retryable = !matches!(err.kind(), ErrorKind::Interrupted | ErrorKind::InvalidData);
            self.drop_stream();
            if !retryable
                || attempt >= self.shared.config.reconnect.max_retries
                || self.shared.shutdown.load(Ordering::Acquire)
            {
                return Err(err);
            }
            attempt += 1;
            thread::sleep(self.shared.config.reconnect.backoff(attempt));
        }
    }

    /// One write + one reply read on the current connection. A shutdown
    /// surfaces as `Interrupted` and a framing error as `InvalidData`
    /// (neither retried); a downstream that died mid-reply as
    /// `UnexpectedEof` or the transport's own error (retried).
    fn try_request(&mut self, bytes: &[u8]) -> std::io::Result<Frame> {
        self.ensure_stream()?;
        let shutdown = &self.shared.shutdown;
        let stream = self.stream.as_mut().expect("stream just ensured");
        stream.write_all(bytes)?;
        read_reply(stream, &mut self.payload, || {
            shutdown.load(Ordering::Acquire)
        })
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
