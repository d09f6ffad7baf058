//! A router connection is one thread driving one client handle
//! ([`RemoteCollector`]) per downstream.
//! Pinned against scripted in-test downstreams, so each test controls
//! exactly what a downstream does with a connection:
//!
//! 1. **Fan-out is send-to-all, then read-from-each** — the slowest
//!    downstream sets the ack latency, not the sum; with "the ack is built
//!    after the last reply is read" this is what the deleted gate/queue
//!    exploration used to assert.
//! 2. **Backpressure is TCP's** — a downstream that stops reading stops
//!    the client, instead of the router buffering without bound.
//! 3. **The split request retries like the whole one did** — a reply lost
//!    mid-exchange is retried on a fresh connection (exact for queries,
//!    degraded once for a barrier that had frames in flight or after an
//!    ingest that could not be written), and a dead target costs the
//!    first dial plus three retries per fanned-out request.
//! 4. **Shutdown is never held by a downstream** — a link's reply read
//!    blocked on a mute downstream ends at shutdown.
//! 5. **No downstream can break the merged `Metrics` reply** — one that
//!    fails or answers unencodably is marked `answered 0`, not refused.

use ldp_collector::{ReportBatch, SnapshotPart};
use ldp_router::{Router, RouterConfig};
use ldp_server::wire::Frame;
use ldp_server::{read_reply, FrameReader, RemoteCollector};
use ldp_telemetry::{MetricEntry, MetricValue, TelemetrySnapshot};
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A scripted downstream: every accepted connection is handed to `serve`
/// (with the fixture's "closing" flag) on its own thread.
struct FakeDownstream {
    addr: SocketAddr,
    accepted: Arc<AtomicUsize>,
    closed: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl FakeDownstream {
    fn start(serve: impl Fn(TcpStream, &AtomicBool) + Send + Sync + 'static) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake downstream");
        let addr = listener.local_addr().expect("local addr");
        let accepted = Arc::new(AtomicUsize::new(0));
        let closed = Arc::new(AtomicBool::new(false));
        let (counter, stop, serve) = (Arc::clone(&accepted), Arc::clone(&closed), Arc::new(serve));
        let join = std::thread::spawn(move || {
            let mut handlers = Vec::new();
            while let Ok((stream, _)) = listener.accept() {
                if stop.load(Ordering::SeqCst) {
                    break; // the Drop handshake, not a peer
                }
                counter.fetch_add(1, Ordering::SeqCst);
                let (serve, stop) = (Arc::clone(&serve), Arc::clone(&stop));
                handlers.push(std::thread::spawn(move || serve(stream, &stop)));
            }
            drop(listener); // later dials are refused, not queued
            for handler in handlers {
                handler.join().expect("fake downstream handler");
            }
        });
        Self {
            addr,
            accepted,
            closed,
            join: Some(join),
        }
    }

    fn accepted(&self) -> usize {
        self.accepted.load(Ordering::SeqCst)
    }
}

impl Drop for FakeDownstream {
    fn drop(&mut self) {
        // Unblock the accept loop so the threads can be joined.
        self.closed.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            join.join().expect("fake downstream accept loop");
        }
    }
}

/// Serves one connection the way a collector frames it: swallows ingest
/// frames counting their rows, and answers everything else with
/// `script(frame, rows so far)` — `None` hangs up without replying.
fn respond(mut stream: TcpStream, mut script: impl FnMut(Frame, u64) -> Option<Frame>) {
    let mut reader = FrameReader::default();
    let mut rows = 0u64;
    while let Ok(frame) = read_reply(&mut stream, &mut reader, || false) {
        let reply = match frame {
            Frame::Goodbye => return,
            Frame::Ingest { users, .. } => {
                rows += users.len() as u64;
                continue;
            }
            other => match script(other, rows) {
                Some(reply) => reply,
                None => return,
            },
        };
        if stream.write_all(&reply.encode()).is_err() {
            return;
        }
    }
}

fn ack(accepted: u64) -> Frame {
    Frame::IngestAck {
        accepted,
        dropped: 0,
        rejected: 0,
    }
}

/// One report for each of `users` distinct users.
fn batch(users: u64) -> ReportBatch {
    let mut batch = ReportBatch::new();
    for user in 0..users {
        batch.push(user, 0, 0.5);
    }
    batch
}

fn bind_router(downstreams: Vec<SocketAddr>) -> Router {
    Router::bind(downstreams, RouterConfig::default()).expect("bind router")
}

fn counter(router: &Router, name: &str) -> u64 {
    router
        .metrics()
        .counter(name)
        .unwrap_or_else(|| panic!("{name} is registered"))
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn assert_degraded(err: &std::io::Error) {
    assert!(
        err.to_string().contains("downstreams unavailable"),
        "expected a DEGRADED refusal, got {err}"
    );
}

/// Two downstreams that each sit on their ack for 150 ms: the barrier is
/// on both wires before either ack is awaited, so the client waits once,
/// not twice — and still gets the summed ledger, built after the last ack.
#[test]
fn the_slowest_downstream_sets_the_ack_latency_not_the_sum() {
    const HOLD: Duration = Duration::from_millis(150);
    let slow = || {
        FakeDownstream::start(|stream, _| {
            respond(stream, |frame, rows| {
                matches!(frame, Frame::IngestSync).then(|| {
                    std::thread::sleep(HOLD);
                    ack(rows)
                })
            });
        })
    };
    let (a, b) = (slow(), slow());
    let mut router = bind_router(vec![a.addr, b.addr]);
    let mut client = RemoteCollector::connect(router.local_addr()).unwrap();
    client.ingest(&batch(100)).unwrap();

    let started = Instant::now();
    let ledger = client.sync().unwrap();
    let waited = started.elapsed();
    assert_eq!(ledger.accepted, 100, "both downstreams' ledgers, summed");
    assert!(
        waited >= HOLD,
        "acked after {waited:?}, before a downstream"
    );
    assert!(
        waited < 2 * HOLD,
        "acked after {waited:?}: the waits added up"
    );
    assert!(counter(&router, "router.downstream.00.rows") > 0);
    assert!(counter(&router, "router.downstream.01.rows") > 0);

    drop(client);
    router.shutdown();
}

/// A downstream that accepts and never reads. The router's connection
/// thread blocks writing to it, stops reading its client, and the client's
/// own writes time out — after the socket buffers' worth of frames, not
/// after the router has swallowed the stream into memory.
#[test]
fn a_stalled_downstream_stops_the_client_through_tcp() {
    const MUST_STALL_BEFORE: usize = 64 << 20;
    const GIVE_UP_AT: usize = 256 << 20;
    let stalled = FakeDownstream::start(|_stream, closed| {
        while !closed.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    let mut router = bind_router(vec![stalled.addr]);

    let mut frame = Vec::new();
    Frame::encode_ingest_into(&batch(8_192), &mut frame);
    let mut client = TcpStream::connect(router.local_addr()).unwrap();
    client
        .set_write_timeout(Some(Duration::from_millis(1_500)))
        .unwrap();
    let mut pushed = 0usize;
    let mut stall = None;
    while pushed < GIVE_UP_AT {
        if let Err(e) = client.write_all(&frame) {
            stall = Some(e);
            break;
        }
        pushed += frame.len();
    }
    // Tear down before judging, and release the stall first: the router's
    // blocked write then fails now rather than at its own timeout, pass or
    // fail (a router that queued the stream would otherwise spend minutes
    // draining it into the stalled socket).
    drop(client);
    drop(stalled);
    router.shutdown();

    let stall = stall.unwrap_or_else(|| panic!("router absorbed {pushed} bytes and kept reading"));
    assert!(
        matches!(stall.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        "expected a write timeout, got {stall}"
    );
    assert!(
        pushed < MUST_STALL_BEFORE,
        "client stalled only after {pushed} bytes"
    );
}

/// A downstream reads a `QueryParts` and hangs up without replying, once.
/// Queries are stateless downstream, so the retry on a fresh connection is
/// exact and the client never notices.
#[test]
fn a_query_reply_lost_mid_exchange_is_answered_from_a_fresh_connection() {
    let hung_up = Arc::new(AtomicBool::new(false));
    let flaky = FakeDownstream::start({
        let hung_up = Arc::clone(&hung_up);
        move |stream, _| {
            respond(stream, |frame, _| {
                let asked = matches!(frame, Frame::QueryParts { .. });
                (asked && hung_up.swap(true, Ordering::SeqCst)).then(|| {
                    Frame::Parts(SnapshotPart {
                        total_reports: 6,
                        user_count: 3,
                        user_mean_sum: 1.5,
                        ..SnapshotPart::default()
                    })
                })
            });
        }
    });
    let mut router = bind_router(vec![flaky.addr]);
    let mut client = RemoteCollector::connect(router.local_addr()).unwrap();

    let summary = client.summary().unwrap();
    assert!(hung_up.load(Ordering::SeqCst), "the first ask was dropped");
    assert_eq!((summary.total_reports, summary.user_count), (6, 3));
    assert_eq!(summary.population_mean, Some(0.5));
    assert_eq!(counter(&router, "router.downstream.00.reconnects"), 1);
    assert_eq!(counter(&router, "router.downstream.00.degraded_acks"), 0);

    drop(client);
    router.shutdown();
}

/// The same hang-up on an `IngestSync` with ingest frames unacked on the
/// wire: the retry's ack comes from a fresh server-side ledger that never
/// saw those frames, so that barrier is refused DEGRADED — once — and the
/// next one acks what the new connection carried.
#[test]
fn a_barrier_reply_lost_with_frames_in_flight_degrades_exactly_once() {
    let hung_up = Arc::new(AtomicBool::new(false));
    let flaky = FakeDownstream::start({
        let hung_up = Arc::clone(&hung_up);
        move |stream, _| {
            respond(stream, |frame, rows| {
                let asked = matches!(frame, Frame::IngestSync);
                (asked && hung_up.swap(true, Ordering::SeqCst)).then(|| ack(rows))
            });
        }
    });
    let mut router = bind_router(vec![flaky.addr]);
    let mut client = RemoteCollector::connect(router.local_addr()).unwrap();

    client.ingest(&batch(10)).unwrap();
    assert_degraded(&client.sync().unwrap_err());
    assert_eq!(counter(&router, "router.downstream.00.degraded_acks"), 1);
    assert_eq!(counter(&router, "router.downstream.00.reconnects"), 1);

    client.ingest(&batch(4)).unwrap();
    assert_eq!(client.sync().unwrap().accepted, 4, "the fresh ledger");
    assert_eq!(counter(&router, "router.downstream.00.degraded_acks"), 1);
    assert_eq!(counter(&router, "router.downstream.00.lost_frames"), 0);

    drop(client);
    router.shutdown();
}

/// A downstream goes down after acking a barrier (a metrics query finds
/// it gone), is still down for the next ingest — whose rows the router
/// counts and drops — and is back for the barrier after it. That barrier's
/// ack would come from a fresh ledger that never saw the dropped rows, so
/// it is refused DEGRADED, once; the next barrier acks.
#[test]
fn an_ingest_dropped_while_a_downstream_was_down_degrades_the_next_barrier_once() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind downstream");
    let addr = listener.local_addr().expect("local addr");
    let acks = |stream| {
        respond(stream, |frame, rows| {
            matches!(frame, Frame::IngestSync).then(|| ack(rows))
        })
    };
    let (down, is_down) = std::sync::mpsc::channel();
    let first_life = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("the link's dial");
        acks(stream); // hangs up on the first frame that is not a barrier
        drop(listener);
        down.send(()).expect("test alive");
    });
    let mut router = bind_router(vec![addr]);
    let mut client = RemoteCollector::connect(router.local_addr()).unwrap();

    client.ingest(&batch(10)).unwrap();
    assert_eq!(client.sync().unwrap().accepted, 10);
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.gauge("downstream.00.answered"), Some(0));
    is_down.recv().expect("the downstream went down");
    first_life.join().expect("first life");

    client.ingest(&batch(4)).unwrap();
    wait_for(
        || counter(&router, "router.downstream.00.lost_frames") == 1,
        "the router to drop the ingest",
    );
    let listener = TcpListener::bind(addr).expect("rebind the downstream's port");
    let second_life = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("the barrier's dial");
        acks(stream);
    });

    assert_degraded(&client.sync().unwrap_err());
    assert_eq!(counter(&router, "router.downstream.00.degraded_acks"), 1);
    client.ingest(&batch(3)).unwrap();
    assert_eq!(client.sync().unwrap().accepted, 3, "the fresh ledger");
    assert_eq!(counter(&router, "router.downstream.00.degraded_acks"), 1);
    assert_eq!(counter(&router, "router.downstream.00.lost_rows"), 4);

    drop(client);
    router.shutdown();
    second_life.join().expect("second life");
}

/// A downstream that hangs up on every connection the moment it accepts
/// it: each fanned-out request costs the first dial plus the reconnect
/// budget, no more — splitting the first attempt in two added no dial.
#[test]
fn a_dead_target_costs_one_dial_plus_the_retry_budget_per_request() {
    let dead = FakeDownstream::start(|stream, _| drop(stream));
    let mut router = bind_router(vec![dead.addr]);
    let per_request = 1 + 3; // the first dial plus a handle's three retries
    let mut client = RemoteCollector::connect(router.local_addr()).unwrap();

    // (A dial completes in the listener's backlog before the fake counts
    // it, so each count is awaited; a dial too many fails the next one.)
    assert_degraded(&client.summary().unwrap_err());
    wait_for(|| dead.accepted() == per_request, "the query's dials");
    assert_degraded(&client.sync().unwrap_err());
    wait_for(|| dead.accepted() == 2 * per_request, "the barrier's");
    // Metrics are not refused: the dead downstream is marked unanswered.
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.gauge("downstream.00.answered"), Some(0));
    wait_for(|| dead.accepted() == 3 * per_request, "the metrics'");
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(dead.accepted(), 3 * per_request, "and not one more");

    drop(client);
    router.shutdown();
}

/// A router's `Metrics` carries each downstream's snapshot under
/// `downstream.NN.`; a downstream whose names would not fit the wire's
/// `u16` name length once renamed is marked `answered 0` instead, the
/// reply still encodes, and the connection keeps serving.
#[test]
fn a_downstream_metric_name_too_long_to_rename_is_marked_not_merged() {
    let snapshot = |name: String| {
        Frame::Metrics(TelemetrySnapshot {
            entries: vec![MetricEntry {
                name,
                value: MetricValue::Counter(7),
            }],
        })
    };
    let script = |name: &'static str, len: usize| {
        move |stream, _: &AtomicBool| {
            respond(stream, |frame, _| match frame {
                Frame::QueryMetrics => Some(snapshot(name.repeat(len))),
                _ => None,
            });
        }
    };
    let fine = FakeDownstream::start(script("a", 1));
    let hostile = FakeDownstream::start(script("x", 65_530));
    let mut router = bind_router(vec![fine.addr, hostile.addr]);
    let mut client = RemoteCollector::connect(router.local_addr()).unwrap();

    // The second pass is the connection serving on after the first.
    for _ in 0..2 {
        let metrics = client.metrics().expect("the router replies");
        assert_eq!(metrics.gauge("downstream.00.answered"), Some(1));
        assert_eq!(metrics.counter("downstream.00.a"), Some(7));
        assert_eq!(metrics.gauge("downstream.01.answered"), Some(0));
        let from_hostile = metrics
            .entries
            .iter()
            .filter(|e| e.name.starts_with("downstream.01."))
            .count();
        assert_eq!(from_hostile, 1, "only the answered gauge");
        assert!(metrics.counter("router.queries.answered") > Some(0));
    }
    assert_eq!(client.reconnects(), 0, "on the one connection");

    drop(client);
    router.shutdown();
}

/// A downstream that reads a client's query and never answers it: the
/// link's reply read ends at the router's shutdown, so `shutdown` returns
/// instead of waiting on a peer that will never speak. (A watchdog fails
/// the test rather than hang it.)
#[test]
fn shutdown_returns_while_a_mute_downstream_holds_a_link() {
    let asked = Arc::new(AtomicBool::new(false));
    let mute = FakeDownstream::start({
        let asked = Arc::clone(&asked);
        move |stream, closed| {
            respond(stream, |_, _| {
                asked.store(true, Ordering::SeqCst);
                while !closed.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                None
            });
        }
    });
    let mut router = bind_router(vec![mute.addr]);
    let front = router.local_addr();
    let querying = std::thread::spawn(move || {
        let mut client = RemoteCollector::connect(front).unwrap();
        client.summary()
    });
    wait_for(|| asked.load(Ordering::SeqCst), "the link's query");

    let (done, finished) = std::sync::mpsc::channel();
    let watchdog = std::thread::spawn(move || {
        router.shutdown();
        let _ = done.send(());
    });
    let returned = finished.recv_timeout(Duration::from_secs(5));
    // Release the link's connection either way, so the watchdog joins.
    drop(mute);
    watchdog.join().expect("watchdog thread");
    assert!(returned.is_ok(), "Router::shutdown still blocked after 5 s");
    let answer = querying.join().expect("querying client");
    assert!(
        answer.is_err(),
        "a query no downstream answered: {answer:?}"
    );
}
