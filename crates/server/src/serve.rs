//! [`Server`]: the [`crate::transport`] connection driver over its local
//! backend — a shared [`Collector`] and its [`QueryEngine`].
//!
//! ```text
//!                    ┌────────────────────────── Server ──────────────┐
//! RemoteCollector ──▶│ conn thread ─ ingest ─▶ Collector::ingest      │
//! RemoteCollector ──▶│ conn thread ─ ingest ─▶     │  (sharded;       │
//!      …             │      …   (WAL append first  │   big batches    │
//!                    │           when durable)     ▼   fan out)       │
//!                    │                  work-stealing ingest pool     │
//!                    │                             │                  │
//! RemoteCollector ──▶│ conn thread ─ query ─▶ QueryEngine/LiveView    │
//!                    │ accept thread                                  │
//!                    └────────────────────────────────────────────────┘
//! ```
//!
//! Everything socket-shaped — the accept loop, the connection cap and its
//! `BUSY` refusal, the framed read, framing errors that **close that
//! connection only**, range validation, the reply write, the
//! `server.connections.* / frames.* / bytes.*` books, graceful shutdown —
//! is the driver's ([`Transport`]); this file is what a *local* tier does
//! with a frame:
//!
//! * One OS thread per connection (bounded by
//!   [`ServerConfig::max_connections`]). Ingest frames are
//!   fire-and-forget; TCP flow control *is* the backpressure: a slow
//!   server simply stops draining its receive buffers and the client's
//!   `write` blocks. The per-connection state is the ingest ledger an
//!   `IngestSync` acknowledges.
//! * Every connection shares one work-stealing fold pool: it lives
//!   inside the shared `Arc<Collector>`
//!   ([`ldp_collector::CollectorConfig::ingest_workers`]), so a single
//!   hot connection's large batches fan their per-shard fold runs across
//!   every core, while the per-batch `IngestOutcome` ledger — and
//!   therefore the IngestSync/Ack barrier — is computed exactly as in a
//!   serial fold (the connection thread participates until its batch
//!   completes).
//! * Queries are answered from the epoch-cached [`QueryEngine`]: each
//!   query refreshes (re-extracting only the shards that changed since
//!   the last refresh — an O(shards) no-op when nothing did) and reads the
//!   immutable view. The server runs no thread of its own besides the
//!   transport's: nothing refreshes the view between queries.
//! * Shutdown is graceful: [`Server::shutdown`] flips a flag; the accept
//!   loop and every connection thread observe it within one poll
//!   interval, finish their in-flight frame, and join.
//! * Every ingest frame is folded by `durable::fold`, the one fold
//!   replay also runs, so live in-memory, live durable and replayed books
//!   come from the same code.
//! * A server bound with [`Server::bind_addr_durable`] logs every
//!   accepted ingest frame to a write-ahead log before folding it
//!   ([`crate::durable`]): an `IngestAck` only travels after the covered
//!   bytes are `fsync`ed, and a frame the log refuses is answered with
//!   [`crate::wire::code::UNAVAILABLE`] and closes the connection
//!   (fail-closed — no ack can ever cover an unlogged fold). Clean
//!   shutdown checkpoints and seals the log so the next boot replays zero
//!   records.

use crate::durable::{self, Durability};
use crate::transport::{Backend, Transport};
use crate::wire::{Frame, IngestScratch, IngestView};
use ldp_collector::sync::atomic::AtomicBool;
use ldp_collector::sync::Arc;
use ldp_collector::{Collector, IngestOutcome, MergedParts, QueryEngine};
use ldp_telemetry::{Registry, TelemetrySnapshot};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::ops::Range;
use std::time::Duration;

/// Server tuning knobs. (The payload and per-query slot bounds are the
/// protocol constants [`crate::wire::DEFAULT_MAX_PAYLOAD`] and
/// [`crate::wire::MAX_QUERY_SLOTS`].)
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum connections served concurrently; extras are refused with a
    /// [`crate::wire::code::BUSY`] error frame.
    pub max_connections: usize,
    /// How often blocked reads / the accept loop wake to check for
    /// shutdown — the upper bound on shutdown latency per thread.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            poll_interval: Duration::from_millis(20),
        }
    }
}

/// The local-collector [`Backend`]: what a `Server`'s connections do with
/// a frame. Shared by the transport's threads.
struct Local {
    engine: QueryEngine<Arc<Collector>>,
    shutdown: AtomicBool,
    /// Present on durable servers: the write-ahead log every accepted
    /// ingest frame is appended to before folding.
    durability: Option<Arc<Durability>>,
}

impl Local {
    fn collector(&self) -> &Collector {
        self.engine.collector()
    }
}

impl Backend for Local {
    const TIER: &'static str = "server";

    /// The per-connection ingest ledger (what `IngestSync` acknowledges).
    type Conn = IngestOutcome;

    fn registry(&self) -> &Registry {
        self.collector().telemetry()
    }

    fn shutdown(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn open(&self) -> IngestOutcome {
        IngestOutcome::default()
    }

    fn ingest(
        &self,
        ledger: &mut IngestOutcome,
        ingest: &IngestView<'_>,
        payload: &[u8],
        scratch: &mut IngestScratch,
    ) -> io::Result<()> {
        let collector = self.collector();
        let outcome = match &self.durability {
            // Log the borrowed payload (no re-encode), then fold it. A frame
            // the log refuses is NOT folded and closes the connection, so no
            // later ack can cover it.
            Some(d) => d.ingest_frame(collector, payload, scratch)?,
            None => durable::fold(collector, ingest, scratch),
        };
        // Saturating throughout: `rejected_upstream` is client-controlled.
        ledger.absorb(IngestOutcome {
            rejected: outcome.rejected.saturating_add(ingest.rejected_upstream()),
            ..outcome
        });
        if let Some(d) = &self.durability {
            // Retention: roll a checkpoint once enough segments have
            // closed. An error is counted (`wal.failures`) but not fatal —
            // nothing acked is at risk, the data is already in the log.
            let _ = d.maybe_checkpoint(collector);
        }
        Ok(())
    }

    fn sync(&self, ledger: &mut IngestOutcome) -> io::Result<Frame> {
        if let Some(d) = &self.durability {
            // The ack is a durable promise: fsync everything the ledger
            // covers first, and refuse to ack (fail-closed, connection
            // closes) if the barrier fails.
            d.barrier()?;
        }
        Ok(Frame::IngestAck {
            accepted: ledger.accepted,
            dropped: ledger.dropped,
            rejected: ledger.rejected,
        })
    }

    fn query(
        &self,
        _ledger: &mut IngestOutcome,
        _range: Range<u64>,
        answer: impl FnOnce(&MergedParts) -> Frame,
    ) -> Frame {
        self.engine.refresh();
        answer(&self.engine.view())
    }
}

/// A running ingestion + query service. Dropping the handle shuts the
/// server down (gracefully — see [`Self::shutdown`]).
pub struct Server {
    transport: Transport<Local>,
    collector: Arc<Collector>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr())
            .field("durable", &self.transport.backend().durability.is_some())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds to an ephemeral loopback port (`127.0.0.1:0`) and starts
    /// serving `collector`. The chosen address is [`Self::local_addr`].
    ///
    /// # Errors
    /// Socket errors from bind/listen.
    pub fn bind(collector: Arc<Collector>, config: ServerConfig) -> std::io::Result<Self> {
        Self::bind_addr(collector, ("127.0.0.1", 0), config)
    }

    /// [`Self::bind_addr_durable`] on an ephemeral loopback port.
    ///
    /// # Errors
    /// Socket errors from bind/listen.
    pub fn bind_durable(
        collector: Arc<Collector>,
        durability: Arc<Durability>,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        Self::bind_addr_durable(collector, durability, ("127.0.0.1", 0), config)
    }

    /// Binds to `addr` and starts serving `collector`: spawns the accept
    /// loop.
    ///
    /// # Errors
    /// Socket errors from bind/listen.
    pub fn bind_addr<A: ToSocketAddrs>(
        collector: Arc<Collector>,
        addr: A,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        Self::bind_addr_inner(collector, None, addr, config)
    }

    /// Binds a **durable** server: like [`Self::bind_addr`], but every
    /// accepted ingest frame is appended to `durability`'s write-ahead
    /// log before folding, `IngestSync` fsyncs before acking, and
    /// [`Self::shutdown`] checkpoints + seals the log. Build the pair
    /// with [`crate::durable::recover`] — the collector must be the one
    /// recovery produced, so the log and the in-memory state agree.
    ///
    /// # Errors
    /// Socket errors from bind/listen.
    pub fn bind_addr_durable<A: ToSocketAddrs>(
        collector: Arc<Collector>,
        durability: Arc<Durability>,
        addr: A,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        Self::bind_addr_inner(collector, Some(durability), addr, config)
    }

    fn bind_addr_inner<A: ToSocketAddrs>(
        collector: Arc<Collector>,
        durability: Option<Arc<Durability>>,
        addr: A,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let backend = Arc::new(Local {
            engine: QueryEngine::new(Arc::clone(&collector)),
            shutdown: AtomicBool::new(false),
            durability,
        });
        let transport =
            Transport::bind(addr, backend, config.max_connections, config.poll_interval)?;
        Ok(Self {
            transport,
            collector,
        })
    }

    /// The address the server is listening on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.transport.local_addr()
    }

    /// The collector this server ingests into (shared handle — callers
    /// can snapshot/query it in-process at any time).
    #[must_use]
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    /// A point-in-time snapshot of every registered metric — collector,
    /// query engine, and server — exactly what the metrics query frame
    /// serves over the wire.
    #[must_use]
    pub fn metrics(&self) -> TelemetrySnapshot {
        self.collector.telemetry().snapshot()
    }

    /// Serves `stream` on the calling thread with the production
    /// per-connection loop ([`Transport::serve_stream`]) — how a test
    /// drives the real frame service over memory instead of a socket.
    pub fn serve_stream(&self, stream: impl Read + Write) {
        self.transport.serve_stream(stream);
    }

    /// Graceful shutdown: stops accepting, lets every connection thread
    /// finish its in-flight frame, and joins all service threads. On a
    /// durable server this then checkpoints and seals the write-ahead
    /// log — the accept loop has joined every connection thread by now,
    /// so the seal covers every accepted frame and the next boot replays
    /// zero records. Called automatically on drop; idempotent.
    pub fn shutdown(&mut self) {
        if self.transport.shutdown() {
            if let Some(d) = &self.transport.backend().durability {
                d.seal(&self.collector);
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}
