//! The one connection driver: everything a tier does with a socket, generic
//! over what it does with a frame.
//!
//! ```text
//!            ┌──────────────── Transport<B> ─────────────────┐      ┌─ Backend ─┐
//! client ───▶│ accept ─ cap? ─ B::open ─▶ conn thread        │      │ open      │
//!            │   └─ BUSY (counted)          │                │      │ ingest    │
//!            │        FrameReader ─ verify ─ decode_request  │ ───▶ │ sync      │
//!            │        goodbye · UNSUPPORTED                  │ ◀─── │ query     │
//!            │        range checks · BAD_QUERY · read verbs  │      │ metrics   │
//!            │        reply encode/write · FrontMetrics      │      └───────────┘
//!            └───────────────────────────────────────────────┘
//! ```
//!
//! * **The driver owns** bind + the nonblocking accept loop + the
//!   connection cap + the one counted [`code::BUSY`] refusal +
//!   join-on-shutdown; socket options; the connection's [`FrameReader`]
//!   and reusable scratch/reply buffers; the framed read with its payload
//!   bound, checksum verify and request decode ([`decode_request`]);
//!   [`code::MALFORMED`] + close on a framing error (an unassigned frame
//!   type among them);
//!   `Goodbye` and the [`code::UNSUPPORTED`] answer to a server-to-client
//!   frame type, whose payload is never parsed;
//!   range validation and [`code::BAD_QUERY`]; the five read verbs
//!   (`QueryParts` among them), answered from the backend's
//!   [`MergedParts`]; the reply write; and
//!   `FrontMetrics`, the `connections.* / frames.* / bytes.* /
//!   queries.answered / ingest.frames` books in the backend's registry.
//! * **A [`Backend`] says** how to open per-connection state (dropping it
//!   closes it), what to do with an ingest frame and a sync barrier, how
//!   to obtain the merged aggregate covering a range, and the snapshot
//!   `QueryMetrics` answers — the one way counters reach the wire. There
//!   are exactly two: the local collector ([`crate::serve`]) and the
//!   federation (`ldp-router`) — a router *is* this driver with a remote
//!   backend, which is why routers stack.
//!
//! The driver is monomorphised per backend (no `dyn` on the per-frame
//! path) and its per-connection loop takes any `Read + Write`, so tests
//! drive the production loop over memory. The steady-state ingest path is
//! **allocation- and copy-free**: the payload is lent from the
//! connection's [`FrameReader`], parsed as a borrowed [`IngestView`], and
//! its columns are decoded into the connection's [`IngestScratch`] — no
//! `Vec` per frame, no owned `ReportBatch`.
//!
//! [`FrameReader`], the log's reader too, is the only frame reader: one
//! per connection here, one per [`crate::RemoteCollector`] (router links
//! included) through [`read_reply`], which decodes the owned [`Frame`]
//! (`tools/lint_one_transport.sh` keeps it that way).

use crate::wire::{
    code, decode_request, frame_type_name, Frame, FrameReader, FrameView, IngestScratch,
    IngestView, SummaryBody, WireError, HEADER_LEN, KNOWN_FRAME_TYPES, MAX_QUERY_SLOTS,
};
use ldp_collector::sync::atomic::{AtomicBool, Ordering};
use ldp_collector::sync::thread::{self, JoinHandle};
use ldp_collector::sync::Arc;
use ldp_collector::MergedParts;
use ldp_telemetry::{Counter, Gauge, Histogram, Registry, TelemetrySnapshot, Timer};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::ops::Range;
use std::time::Duration;

/// How often every blocked read and accept loop in the workspace wakes to
/// consult its owner's stop flag: the upper bound on a thread's shutdown
/// latency. The server's and router's accept loops and connection reads
/// and [`crate::RemoteCollector::with_stop`] handles all wake on it.
pub const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// What a tier does behind the [`Transport`]: the part of serving a
/// connection that differs between a local collector and a federation.
///
/// Error conventions: an `io::Error` from [`Self::ingest`] / [`Self::sync`]
/// means the backend could not take the frame — the driver answers
/// [`code::UNAVAILABLE`], counts `frames.failed` and **closes** the
/// connection (fail-closed: no later ack may cover a refused frame). A
/// query the backend cannot answer exactly is answered with its typed
/// refusal (e.g. [`code::DEGRADED`]) instead; the connection keeps serving.
pub trait Backend: Send + Sync + 'static {
    /// `"server"` or `"router"`: the metric prefix, the `ldp-<tier>-*`
    /// thread names, and the subject of refusal messages.
    const TIER: &'static str;

    /// Per-connection state, opened before the first frame is read;
    /// dropping it after the last frame closes it.
    type Conn: Send + 'static;

    /// The tier's own registry, which the driver registers its front
    /// books in.
    fn registry(&self) -> &Registry;

    /// The tier's shutdown flag: set by [`Transport::shutdown`], observed
    /// by the accept loop and every blocked read within one [`POLL_INTERVAL`].
    fn shutdown(&self) -> &AtomicBool;

    /// Opens one connection's state. Infallible and cheap at both
    /// backends: it dials and spawns nothing.
    fn open(&self) -> Self::Conn;

    /// Takes one fire-and-forget ingest frame (`payload` is the frame's
    /// raw payload, `ingest` its borrowed view).
    ///
    /// # Errors
    /// The frame could not be persisted; see the trait docs.
    fn ingest(
        &self,
        conn: &mut Self::Conn,
        ingest: &IngestView<'_>,
        payload: &[u8],
        scratch: &mut IngestScratch,
    ) -> io::Result<()>;

    /// The `IngestSync` barrier: the reply acknowledging everything this
    /// connection sent (an `IngestAck`, or a typed refusal such as
    /// [`code::DEGRADED`] that leaves the connection serving).
    ///
    /// # Errors
    /// The barrier could not be made durable; see the trait docs.
    fn sync(&self, conn: &mut Self::Conn) -> io::Result<Frame>;

    /// The reply `answer` builds from the merged aggregate covering
    /// `range` (an empty range still carries the scalars) — refresh +
    /// view locally, `QueryParts` fan-out + merge remotely — or the
    /// backend's refusal.
    fn query(
        &self,
        conn: &mut Self::Conn,
        range: Range<u64>,
        answer: impl FnOnce(&MergedParts) -> Frame,
    ) -> Frame;

    /// The snapshot `QueryMetrics` answers with: the tier's own registry
    /// by default; a federation adds every downstream's, renamed under
    /// `downstream.NN.`. Never a refusal — a downstream that cannot
    /// answer is marked in the snapshot instead.
    fn metrics(&self, _conn: &mut Self::Conn) -> TelemetrySnapshot {
        self.registry().snapshot()
    }
}

/// A tier's front-side operational metrics, registered once per tier as
/// `<tier>.connections.*`, `<tier>.frames.*`, `<tier>.bytes.*`, … — these
/// handles **are** the tier's books (not copies), and the metrics
/// snapshot is the only place the wire reads them. Every update is a
/// relaxed atomic RMW, lock-free and allocation-free.
#[derive(Debug)]
struct FrontMetrics {
    /// `<tier>.connections.active`.
    connections_active: Arc<Gauge>,
    /// `<tier>.connections.total`.
    connections_total: Arc<Counter>,
    /// `<tier>.connections.rejected` (refused with `BUSY`).
    connections_rejected: Arc<Counter>,
    /// `<tier>.frames.decoded`.
    frames_decoded: Arc<Counter>,
    /// `<tier>.frames.failed`.
    frames_failed: Arc<Counter>,
    /// `<tier>.frames.by_type.<name>`, indexed by `frame_type - 1`;
    /// `None` for an unassigned type (never decoded, so never counted).
    frames_by_type: Vec<Option<Arc<Counter>>>,
    /// `<tier>.queries.answered`.
    queries_answered: Arc<Counter>,
    /// `<tier>.ingest.frames`.
    ingest_frames: Arc<Counter>,
    /// `<tier>.bytes.in` (header + payload bytes read from clients).
    bytes_in: Arc<Counter>,
    /// `<tier>.bytes.out` (header + payload bytes written to clients).
    bytes_out: Arc<Counter>,
    /// `<tier>.frame.decode_nanos` — checksum verify + borrowed decode,
    /// per frame.
    decode_nanos: Arc<Histogram>,
    /// `<tier>.query.<verb>_nanos` — time to answer each query verb
    /// (backend work included, socket write excluded); indexed by
    /// `frame_type - 1`, `None` for frames that are not queries.
    query_nanos: Vec<Option<Arc<Histogram>>>,
}

impl FrontMetrics {
    /// Registers the front books under the `tier` prefix.
    fn register(registry: &Registry, tier: &str) -> Self {
        Self {
            connections_active: registry.gauge(&format!("{tier}.connections.active")),
            connections_total: registry.counter(&format!("{tier}.connections.total")),
            connections_rejected: registry.counter(&format!("{tier}.connections.rejected")),
            frames_decoded: registry.counter(&format!("{tier}.frames.decoded")),
            frames_failed: registry.counter(&format!("{tier}.frames.failed")),
            frames_by_type: KNOWN_FRAME_TYPES
                .map(|ft| {
                    let name = frame_type_name(ft)?;
                    Some(registry.counter(&format!("{tier}.frames.by_type.{name}")))
                })
                .collect(),
            queries_answered: registry.counter(&format!("{tier}.queries.answered")),
            ingest_frames: registry.counter(&format!("{tier}.ingest.frames")),
            bytes_in: registry.counter(&format!("{tier}.bytes.in")),
            bytes_out: registry.counter(&format!("{tier}.bytes.out")),
            decode_nanos: registry.histogram(&format!("{tier}.frame.decode_nanos")),
            query_nanos: KNOWN_FRAME_TYPES
                .map(|ft| {
                    let verb = frame_type_name(ft)?.strip_prefix("query_")?;
                    Some(registry.histogram(&format!("{tier}.query.{verb}_nanos")))
                })
                .collect(),
        }
    }

    /// Counts one successfully decoded frame; a query verb is also counted
    /// as answered and gets its latency timer started.
    fn count_frame(&self, frame_type: u8) -> Option<Timer<'_>> {
        let index = (frame_type as usize).wrapping_sub(1);
        self.frames_decoded.inc();
        if let Some(Some(by_type)) = self.frames_by_type.get(index) {
            by_type.inc();
        }
        let verb = self.query_nanos.get(index)?.as_ref()?;
        self.queries_answered.inc();
        Some(verb.timer())
    }

    /// Encodes `frame` into `out` and writes it, counting `bytes.out`.
    /// `false` means the peer is gone.
    fn send(&self, stream: &mut impl Write, out: &mut Vec<u8>, frame: &Frame) -> bool {
        out.clear();
        frame.encode_into(out);
        let sent = stream.write_all(out).is_ok();
        if sent {
            self.bytes_out.add(out.len() as u64);
        }
        sent
    }

    /// Counts a failed frame and sends a best-effort error frame; the
    /// caller closes the connection — after a framing error the stream
    /// position is untrustworthy, and after a backend refusal no later
    /// ack may cover the refused frame.
    fn fail(&self, stream: &mut impl Write, out: &mut Vec<u8>, code: u16, message: String) {
        self.frames_failed.inc();
        self.send(stream, out, &Frame::Error { code, message });
    }
}

/// Reads one complete, verified, owned frame through `reader` — the reply
/// half of a request/response exchange, read by [`crate::RemoteCollector`]
/// (a client's, or a router's downstream link).
///
/// # Errors
/// `UnexpectedEof` for a peer that closed before or inside the reply
/// (callers reconnect), `InvalidData` for a framing, checksum or payload
/// error (the [`WireError`] text is the message), `Interrupted` once
/// `stop` says so, or the transport's own error.
pub fn read_reply(
    stream: &mut impl Read,
    reader: &mut FrameReader,
    stop: impl Fn() -> bool,
) -> io::Result<Frame> {
    let (header, payload) = reader
        .next(stream, stop)?
        .ok_or_else(|| io::Error::new(ErrorKind::UnexpectedEof, "peer closed before replying"))?;
    header.verify(payload).map_err(WireError::from)?;
    Ok(Frame::decode_body(header.frame_type, payload)?)
}

/// State shared by the accept loop and the connection threads.
struct Shared<B: Backend> {
    backend: Arc<B>,
    front: FrontMetrics,
    max_connections: usize,
}

/// A running front socket serving `B`: the accept thread plus one thread
/// per connection. Dropping the handle shuts it down.
pub struct Transport<B: Backend> {
    shared: Arc<Shared<B>>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl<B: Backend> Transport<B> {
    /// Binds `addr` and starts the accept loop. At most `max_connections`
    /// are served concurrently (extras are refused with [`code::BUSY`]);
    /// blocked reads and the accept loop wake every [`POLL_INTERVAL`] to
    /// check for shutdown.
    ///
    /// # Errors
    /// Socket errors from bind/listen.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        backend: Arc<B>,
        max_connections: usize,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let front = FrontMetrics::register(backend.registry(), B::TIER);
        let shared = Arc::new(Shared {
            backend,
            front,
            max_connections,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("ldp-{}-accept", B::TIER))
                .spawn(move || shared.accept_loop(&listener))?
        };
        Ok(Self {
            shared,
            local_addr,
            accept: Some(accept),
        })
    }

    /// The address the front socket is listening on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The backend this transport serves.
    #[must_use]
    pub fn backend(&self) -> &Arc<B> {
        &self.shared.backend
    }

    /// Runs the production per-connection loop over `stream` on the
    /// calling thread until EOF, goodbye, a framing error or shutdown —
    /// what every accepted socket runs once admitted, minus the TCP-only
    /// setup and the connection counting.
    pub fn serve_stream(&self, mut stream: impl Read + Write) {
        let mut conn = self.shared.backend.open();
        self.shared.serve(&mut stream, &mut conn);
    }

    /// Graceful shutdown: flips the backend's flag, then joins the accept
    /// loop, which has joined every connection thread by the time it
    /// returns. `true` for the call that did the joining (idempotent:
    /// later calls return `false`).
    pub fn shutdown(&mut self) -> bool {
        self.shared
            .backend
            .shutdown()
            .store(true, Ordering::Release);
        self.accept.take().map(JoinHandle::join).is_some()
    }
}

impl<B: Backend> Drop for Transport<B> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<B: Backend> Shared<B> {
    fn stopping(&self) -> bool {
        self.backend.shutdown().load(Ordering::Acquire)
    }

    /// Polls the nonblocking listener on the shutdown cadence, admits or
    /// refuses each connection, spawns one handler thread per admitted
    /// one, and joins them all on shutdown.
    fn accept_loop(self: &Arc<Self>, listener: &TcpListener) {
        let mut handles: Vec<JoinHandle<()>> = Vec::new();
        while !self.stopping() {
            let Ok((mut stream, _peer)) = listener.accept() else {
                // Nothing pending (`WouldBlock`) or a transient accept error.
                thread::sleep(POLL_INTERVAL);
                continue;
            };
            handles.retain(|h| !h.is_finished());
            // Linux `accept` returns blocking sockets regardless of the
            // listener, but Windows/BSD inherit its nonblocking flag — and
            // the read-timeout shutdown polling requires a *blocking*
            // socket (on a nonblocking one the timeout is a no-op and
            // reads busy-spin), as does the refusal write.
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
            let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
            let Some(mut conn) = self.admit(&mut stream) else {
                continue;
            };
            let shared = Arc::clone(self);
            let spawned = thread::Builder::new()
                .name(format!("ldp-{}-conn", B::TIER))
                .spawn(move || {
                    shared.serve(&mut stream, &mut conn);
                    drop(conn);
                    shared.front.connections_active.dec();
                });
            match spawned {
                Ok(handle) => handles.push(handle),
                // Resource exhaustion: undo the active count; the stream
                // and the connection state drop closed with the closure.
                Err(_) => self.front.connections_active.dec(),
            }
        }
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Admission: under the cap → counted in `connections.total`/`active`
    /// and given its per-connection state; otherwise the one counted,
    /// best-effort [`code::BUSY`] refusal.
    fn admit(&self, stream: &mut impl Write) -> Option<B::Conn> {
        let front = &self.front;
        if front.connections_active.get() < self.max_connections as i64 {
            front.connections_total.inc();
            front.connections_active.inc();
            return Some(self.backend.open());
        }
        front.connections_rejected.inc();
        let refusal = Frame::Error {
            code: code::BUSY,
            message: format!("{} at connection limit", B::TIER),
        };
        front.send(stream, &mut Vec::new(), &refusal);
        None
    }

    /// Serves one connection until EOF, goodbye, a framing error, a
    /// backend refusal, or shutdown.
    fn serve<S: Read + Write>(&self, stream: &mut S, conn: &mut B::Conn) {
        let (backend, front) = (&*self.backend, &self.front);
        let mut reader = FrameReader::default();
        let mut scratch = IngestScratch::default();
        let mut out = Vec::new();

        loop {
            let (header, payload) = match reader.next(stream, || self.stopping()) {
                Ok(Some(frame)) => frame,
                Ok(None) => return, // clean close at a frame boundary
                Err(e) => {
                    match e.kind() {
                        ErrorKind::InvalidData => {
                            front.fail(stream, &mut out, code::MALFORMED, e.to_string());
                        }
                        ErrorKind::UnexpectedEof => front.frames_failed.inc(),
                        _ => {} // shutdown, or a hard transport error
                    }
                    return;
                }
            };
            front.bytes_in.add((HEADER_LEN + payload.len()) as u64);
            let decode_timer = front.decode_nanos.timer();
            let request = match decode_request(&header, payload) {
                Ok(request) => request,
                Err(e) => {
                    decode_timer.cancel();
                    front.fail(stream, &mut out, code::MALFORMED, e.to_string());
                    return;
                }
            };
            drop(decode_timer);
            let verb_timer = front.count_frame(header.frame_type);

            let request = match request {
                Some(FrameView::Ingest(ingest)) => {
                    front.ingest_frames.inc();
                    match backend.ingest(conn, &ingest, payload, &mut scratch) {
                        Ok(()) => continue, // fire-and-forget
                        Err(e) => {
                            return front.fail(stream, &mut out, code::UNAVAILABLE, unavailable(&e))
                        }
                    }
                }
                Some(FrameView::Owned(request)) => Some(request),
                None => None,
            };
            let reply = match request {
                Some(Frame::IngestSync) => match backend.sync(conn) {
                    Ok(reply) => reply,
                    Err(e) => {
                        return front.fail(stream, &mut out, code::UNAVAILABLE, unavailable(&e))
                    }
                },
                // The five read verbs, answered from whatever merge the
                // backend produces for the range. Scalars ask for an empty
                // one: it still carries the user ledgers they need.
                Some(Frame::QueryPopulationMean) => {
                    backend.query(conn, 0..0, |merged| Frame::PopulationMean {
                        mean: merged.population_mean(),
                    })
                }
                Some(Frame::QuerySummary) => backend.query(conn, 0..0, |merged| {
                    Frame::Summary(SummaryBody {
                        total_reports: merged.total_reports(),
                        user_count: merged.user_count(),
                        retained_base: merged.retained_base(),
                        slot_end: merged.slot_end(),
                        frozen_count: merged.frozen().count,
                        population_mean: merged.population_mean(),
                    })
                }),
                Some(Frame::QueryWindowedMean { start, end }) => {
                    refuse_span::<B>("windowed mean", &(start..end), false).unwrap_or_else(|| {
                        backend.query(conn, start..end, |merged| Frame::WindowedMean {
                            mean: merged.windowed_mean(start as usize..end as usize),
                        })
                    })
                }
                Some(Frame::QuerySlotMeans { start, end }) => {
                    refuse_span::<B>("slot means", &(start..end), false).unwrap_or_else(|| {
                        backend.query(conn, start..end, |merged| Frame::SlotMeans {
                            start,
                            means: (start..end)
                                .map(|slot| merged.slot_mean(slot as usize))
                                .collect(),
                        })
                    })
                }
                // The tier's raw mergeable contribution, clipped to what it
                // holds: an empty clip is fine (the reply still carries the
                // scalar ledger), a wide one is bounded like the verbs above.
                Some(Frame::QueryParts { start, end }) => {
                    backend.query(conn, start..end, |merged| {
                        let span = merged.clip(start..end);
                        refuse_span::<B>("parts", &span, true)
                            .unwrap_or_else(|| Frame::Parts(merged.part(span)))
                    })
                }
                Some(Frame::QueryMetrics) => Frame::Metrics(backend.metrics(conn)),
                Some(Frame::Goodbye) => return,
                // A server-to-client frame type, refused unparsed (`None`;
                // no request decodes to any other frame). Its length prefix
                // and checksum kept the stream in sync, so answer with an
                // error and keep serving.
                _ => Frame::Error {
                    code: code::UNSUPPORTED,
                    message: "frame type is server-to-client".into(),
                },
            };
            drop(verb_timer); // the socket write is not the verb's time
            if !front.send(stream, &mut out, &reply) {
                return;
            }
        }
    }
}

/// The message of the [`code::UNAVAILABLE`] refusal.
fn unavailable(error: &io::Error) -> String {
    format!("durability failure: {error}")
}

/// The one range check of the ranged read verbs: the [`code::BAD_QUERY`]
/// refusal for a span that is empty or inverted (unless `may_be_empty`)
/// or asks for more than [`MAX_QUERY_SLOTS`] per-slot answers — the same
/// bound and the same text at every tier, so a query one big collector
/// refuses is refused through any stack of routers, and vice versa.
fn refuse_span<B: Backend>(verb: &str, span: &Range<u64>, may_be_empty: bool) -> Option<Frame> {
    let message = if span.start >= span.end && !may_be_empty {
        format!("{verb} over an empty or inverted range")
    } else if span.end.saturating_sub(span.start) > MAX_QUERY_SLOTS {
        format!("{verb} range exceeds the {}'s bound", B::TIER)
    } else {
        return None;
    };
    Some(Frame::Error {
        code: code::BAD_QUERY,
        message,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::DEFAULT_MAX_PAYLOAD;

    /// A backend that counts nothing.
    struct Mock {
        registry: Registry,
        shutdown: AtomicBool,
    }

    impl Backend for Mock {
        const TIER: &'static str = "mock";
        type Conn = ();

        fn registry(&self) -> &Registry {
            &self.registry
        }

        fn shutdown(&self) -> &AtomicBool {
            &self.shutdown
        }

        fn open(&self) {}

        fn ingest(
            &self,
            (): &mut (),
            _: &IngestView<'_>,
            _: &[u8],
            _: &mut IngestScratch,
        ) -> io::Result<()> {
            Err(io::Error::other("disk full"))
        }

        fn sync(&self, (): &mut ()) -> io::Result<Frame> {
            Ok(Frame::IngestAck {
                accepted: 7,
                dropped: 0,
                rejected: 0,
            })
        }

        fn query(
            &self,
            (): &mut (),
            _: Range<u64>,
            answer: impl FnOnce(&MergedParts) -> Frame,
        ) -> Frame {
            answer(&MergedParts::default())
        }
    }

    fn shared(max_connections: usize) -> Shared<Mock> {
        let backend = Arc::new(Mock {
            registry: Registry::new(),
            shutdown: AtomicBool::new(false),
        });
        Shared {
            front: FrontMetrics::register(&backend.registry, Mock::TIER),
            backend,
            max_connections,
        }
    }

    /// An in-memory peer: serves `input`, collects what the driver writes.
    struct Script {
        input: io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Script {
        fn new(frames: &[Vec<u8>]) -> Self {
            Self {
                input: io::Cursor::new(frames.concat()),
                output: Vec::new(),
            }
        }

        /// Every frame the driver wrote, in order.
        fn replies(&self) -> Vec<Frame> {
            let mut rest = &self.output[..];
            let mut frames = Vec::new();
            while !rest.is_empty() {
                let (frame, used) =
                    Frame::decode(rest, DEFAULT_MAX_PAYLOAD).expect("reply decodes");
                frames.push(frame);
                rest = &rest[used..];
            }
            frames
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn error_code(frame: &Frame) -> u16 {
        match frame {
            Frame::Error { code, .. } => *code,
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    #[test]
    fn the_cap_refuses_through_the_same_path_and_admission_counts() {
        let shared = shared(1);
        assert!(shared.admit(&mut Vec::new()).is_some());
        assert_eq!(shared.front.connections_active.get(), 1);
        assert_eq!(shared.front.connections_total.get(), 1);

        let mut wire = Vec::new();
        assert!(shared.admit(&mut wire).is_none(), "at the cap");
        let (refusal, _) = Frame::decode(&wire, DEFAULT_MAX_PAYLOAD).expect("refusal decodes");
        assert_eq!(error_code(&refusal), code::BUSY);
        assert_eq!(shared.front.connections_rejected.get(), 1);
        assert_eq!(shared.front.bytes_out.get(), wire.len() as u64);
        assert_eq!(shared.front.connections_active.get(), 1);
        assert_eq!(shared.front.connections_total.get(), 1);
    }

    /// The production loop over memory: request/response verbs keep the
    /// connection serving, a framing error closes it after one MALFORMED.
    #[test]
    fn the_loop_serves_any_read_write_and_closes_on_a_framing_error() {
        let shared = shared(4);
        let mut garbage = Frame::IngestSync.encode();
        garbage[0] = b'X';
        let mut peer = Script::new(&[
            Frame::QueryMetrics.encode(),
            Frame::PopulationMean { mean: None }.encode(), // server-to-client
            Frame::QueryWindowedMean { start: 3, end: 3 }.encode(),
            Frame::QuerySlotMeans {
                start: 0,
                end: MAX_QUERY_SLOTS + 1,
            }
            .encode(),
            Frame::QueryPopulationMean.encode(),
            Frame::QueryParts {
                start: 0,
                end: u64::MAX, // bounded on the clipped span, not the asked one
            }
            .encode(),
            Frame::IngestSync.encode(),
            garbage,
            Frame::QueryMetrics.encode(), // never read
        ]);
        shared.serve(&mut peer, &mut ());

        let replies = peer.replies();
        assert!(matches!(replies[0], Frame::Metrics(_)));
        assert_eq!(error_code(&replies[1]), code::UNSUPPORTED);
        assert_eq!(error_code(&replies[2]), code::BAD_QUERY);
        assert_eq!(error_code(&replies[3]), code::BAD_QUERY);
        assert_eq!(replies[4], Frame::PopulationMean { mean: None });
        assert_eq!(
            replies[5],
            Frame::Parts(MergedParts::default().part(0..u64::MAX))
        );
        assert!(matches!(replies[6], Frame::IngestAck { accepted: 7, .. }));
        assert_eq!(error_code(&replies[7]), code::MALFORMED);
        assert_eq!(replies.len(), 8, "closed after the framing error");

        let front = &shared.front;
        assert_eq!(front.frames_decoded.get(), 7);
        assert_eq!(front.frames_failed.get(), 1);
        assert_eq!(front.queries_answered.get(), 5);
        assert_eq!(front.bytes_out.get(), peer.output.len() as u64);
        let snapshot = shared.backend.registry.snapshot();
        assert_eq!(
            snapshot.counter("mock.frames.by_type.population_mean"),
            Some(1)
        );
        let timed = |name| snapshot.histogram(name).map(|h| h.count());
        assert_eq!(timed("mock.query.windowed_mean_nanos"), Some(1));
        assert_eq!(timed("mock.frame.decode_nanos"), Some(7));
    }

    /// A server-to-client frame type is refused from its type byte: an
    /// `IngestAck` whose payload does not even parse is answered
    /// UNSUPPORTED, not MALFORMED, and the connection keeps serving.
    #[test]
    fn a_misdirected_frame_is_refused_unparsed_and_the_connection_serves_on() {
        let shared = shared(4);
        let mut short_ack = Frame::IngestAck {
            accepted: 1,
            dropped: 0,
            rejected: 0,
        }
        .encode();
        short_ack.pop(); // a 23-byte payload
        short_ack[8..12].copy_from_slice(&23u32.to_le_bytes());
        let sum = crate::wire::checksum(&short_ack[HEADER_LEN..]);
        short_ack[12..16].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Frame::decode(&short_ack, DEFAULT_MAX_PAYLOAD),
            Err(WireError::Truncated)
        ));
        let mut peer = Script::new(&[short_ack, Frame::QueryPopulationMean.encode()]);
        shared.serve(&mut peer, &mut ());

        let replies = peer.replies();
        assert_eq!(error_code(&replies[0]), code::UNSUPPORTED);
        assert_eq!(replies[1], Frame::PopulationMean { mean: None });
        assert_eq!(replies.len(), 2);
        assert_eq!(shared.front.frames_decoded.get(), 2);
        assert_eq!(shared.front.frames_failed.get(), 0);
    }

    /// Fail-closed: a backend that cannot take an ingest frame answers
    /// UNAVAILABLE, counts the failure and closes.
    #[test]
    fn a_refused_ingest_answers_unavailable_and_closes() {
        let shared = shared(4);
        let ingest = Frame::Ingest {
            rejected_upstream: 0,
            users: vec![1],
            slots: vec![0],
            values: vec![0.5],
        }
        .encode();
        let mut peer = Script::new(&[ingest, Frame::QueryPopulationMean.encode()]);
        shared.serve(&mut peer, &mut ());

        let replies = peer.replies();
        assert_eq!(replies.len(), 1, "closed: the query is never answered");
        assert_eq!(error_code(&replies[0]), code::UNAVAILABLE);
        assert_eq!(shared.front.ingest_frames.get(), 1);
        assert_eq!(shared.front.frames_failed.get(), 1);
    }

    /// Discriminants 16 and 17 (v3's liveness probe and its reply) are
    /// unassigned: like any unknown type, a framing error that closes.
    #[test]
    fn an_unassigned_frame_type_is_malformed_and_closes() {
        for frame_type in [16, 17] {
            let shared = shared(4);
            let mut unassigned = Frame::QueryMetrics.encode();
            unassigned[5] = frame_type;
            let mut peer = Script::new(&[unassigned, Frame::QueryMetrics.encode()]);
            shared.serve(&mut peer, &mut ());

            let replies = peer.replies();
            assert_eq!(replies.len(), 1, "closed after type {frame_type}");
            assert_eq!(error_code(&replies[0]), code::MALFORMED);
            assert_eq!(shared.front.frames_decoded.get(), 0);
            assert_eq!(shared.front.frames_failed.get(), 1);
        }
    }

    #[test]
    fn a_truncated_frame_counts_as_failed_and_a_clean_eof_does_not() {
        let shared = shared(4);
        let full = Frame::QueryWindowedMean { start: 0, end: 4 }.encode();
        let mut peer = Script::new(&[full[..full.len() - 3].to_vec()]);
        shared.serve(&mut peer, &mut ());
        assert_eq!(shared.front.frames_failed.get(), 1);
        assert!(peer.output.is_empty(), "nobody left to answer");

        shared.serve(&mut Script::new(&[]), &mut ());
        assert_eq!(shared.front.frames_failed.get(), 1);
    }

    #[test]
    fn read_reply_maps_close_and_corruption_to_the_kinds_callers_retry_on() {
        let mut reader = FrameReader::default();
        let never = || false;
        let closed = read_reply(&mut io::Cursor::new(Vec::new()), &mut reader, never).unwrap_err();
        assert_eq!(closed.kind(), ErrorKind::UnexpectedEof);

        let ack = Frame::IngestAck {
            accepted: 3,
            dropped: 0,
            rejected: 0,
        };
        let mut corrupt = ack.encode();
        *corrupt.last_mut().unwrap() ^= 0xFF;
        let bad = read_reply(&mut io::Cursor::new(corrupt), &mut reader, never).unwrap_err();
        assert_eq!(bad.kind(), ErrorKind::InvalidData);

        let mut oversized = Frame::IngestSync.encode();
        oversized[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let huge = read_reply(&mut io::Cursor::new(oversized), &mut reader, never).unwrap_err();
        assert_eq!(huge.kind(), ErrorKind::InvalidData);
        assert_eq!(
            huge.to_string(),
            format!(
                "payload length {} exceeds bound {DEFAULT_MAX_PAYLOAD}",
                u32::MAX
            )
        );
        assert!(
            reader.next(&mut io::empty(), never).is_err(),
            "the refused header stays"
        );

        reader.clear();

        let frame = read_reply(&mut io::Cursor::new(ack.encode()), &mut reader, never).unwrap();
        assert_eq!(frame, ack);
    }
}
