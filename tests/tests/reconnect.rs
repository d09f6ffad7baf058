//! [`RemoteCollector`] reconnect-with-backoff: a client whose first
//! connection is killed by the server transparently redials (bounded by
//! [`ReconnectPolicy`]) and completes the operation; with the policy
//! disabled the same drop is fatal. Pinned against a raw in-test
//! listener so the test controls exactly which connections die. The
//! router's downstream links are this same handle, so its dial and retry
//! rules are pinned here on the client too.

use ldp_collector::ReportBatch;
use ldp_server::wire::{SummaryBody, HEADER_LEN};
use ldp_server::{read_reply, Frame, Header, IngestLoss, ReconnectPolicy, RemoteCollector};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A server that drops its first `drop_first` accepted connections on
/// the floor, then answers transport verbs on the survivors.
struct FlakyServer {
    addr: SocketAddr,
    accepted: Arc<AtomicUsize>,
    closed: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl FlakyServer {
    fn start(drop_first: usize) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind flaky server");
        let addr = listener.local_addr().expect("local addr");
        let accepted = Arc::new(AtomicUsize::new(0));
        let closed = Arc::new(AtomicBool::new(false));
        let counter = Arc::clone(&accepted);
        let stop = Arc::clone(&closed);
        let join = std::thread::spawn(move || loop {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            if stop.load(Ordering::SeqCst) {
                return; // the Drop handshake, not a client
            }
            let n = counter.fetch_add(1, Ordering::SeqCst);
            if n < drop_first {
                drop(stream); // the flake: hang up before any frame
                continue;
            }
            serve_one(stream);
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

impl Drop for FlakyServer {
    fn drop(&mut self) {
        // Unblock the accept loop so the thread can be joined.
        self.closed.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Minimal frame responder: Ping → Pong, Goodbye/EOF → done.
fn serve_one(mut stream: TcpStream) {
    let mut header = [0u8; HEADER_LEN];
    loop {
        if stream.read_exact(&mut header).is_err() {
            return;
        }
        let parsed = match Header::parse(&header) {
            Ok(parsed) => parsed,
            Err(_) => return,
        };
        let mut payload = vec![0u8; parsed.payload_len as usize];
        if stream.read_exact(&mut payload).is_err() || parsed.verify(&payload).is_err() {
            return;
        }
        let reply = match Frame::decode_body(parsed.frame_type, &payload) {
            Ok(Frame::Ping { nonce }) => Frame::Pong { nonce },
            Ok(Frame::Goodbye) | Err(_) => return,
            Ok(_) => Frame::Error {
                code: ldp_server::wire::code::UNSUPPORTED,
                message: "flaky test server only pongs".to_string(),
            },
        };
        if stream.write_all(&reply.encode()).is_err() {
            return;
        }
    }
}

/// The satellite pin: the server kills the client's first connection,
/// and the default policy rides it out — the ping succeeds on a fresh
/// dial the client made by itself.
#[test]
fn client_survives_server_killing_first_connection() {
    let server = FlakyServer::start(1);
    // connect() itself succeeds — the TCP handshake completes before the
    // server hangs up — so the flake surfaces on the first operation.
    let mut client = RemoteCollector::connect_with(
        server.addr,
        ReconnectPolicy {
            max_retries: 3,
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
        },
    )
    .expect("initial connect");
    client.ping().expect("ping survives a killed connection");
    assert!(
        server.accepted() >= 2,
        "client must have redialed (saw {} connections)",
        server.accepted()
    );
}

/// With reconnection disabled the identical flake is fatal — the pre-v3
/// behavior, preserved as an explicit opt-out.
#[test]
fn disabled_policy_makes_first_drop_fatal() {
    let server = FlakyServer::start(1);
    let mut client = RemoteCollector::connect_with(server.addr, ReconnectPolicy::none())
        .expect("initial connect");
    client.ping().expect_err("no-retry client must fail");
    assert_eq!(server.accepted(), 1, "no redial without a policy");
}

/// A flake longer than the retry budget is also fatal: the backoff is
/// bounded, not an infinite loop against a dead host.
#[test]
fn retry_budget_is_bounded() {
    let server = FlakyServer::start(10);
    let mut client = RemoteCollector::connect_with(
        server.addr,
        ReconnectPolicy {
            max_retries: 2,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
        },
    )
    .expect("initial connect");
    client.ping().expect_err("budget exhausted must fail");
    assert!(
        server.accepted() <= 4,
        "1 initial + at most 2 retries per op (saw {})",
        server.accepted()
    );
}

/// Frame responder that acknowledges sync barriers: IngestSync →
/// IngestAck{0,0,0}, pipelined ingest frames consumed silently,
/// Goodbye/EOF → done. Models the fresh post-reconnect connection whose
/// ledger never saw the lost frames.
fn serve_empty_acks(mut stream: TcpStream) {
    let mut header = [0u8; HEADER_LEN];
    loop {
        if stream.read_exact(&mut header).is_err() {
            return;
        }
        let Ok(parsed) = Header::parse(&header) else {
            return;
        };
        let mut payload = vec![0u8; parsed.payload_len as usize];
        if stream.read_exact(&mut payload).is_err() || parsed.verify(&payload).is_err() {
            return;
        }
        match Frame::decode_body(parsed.frame_type, &payload) {
            Ok(Frame::IngestSync) => {
                let ack = Frame::IngestAck {
                    accepted: 0,
                    dropped: 0,
                    rejected: 0,
                };
                if stream.write_all(&ack.encode()).is_err() {
                    return;
                }
            }
            Ok(Frame::Goodbye) | Err(_) => return,
            Ok(_) => {} // pipelined ingest: no reply expected
        }
    }
}

/// The reconnect satellite's sharp edge, fixed: pipelined ingest frames
/// that died with the old connection are **not** silently re-acked by the
/// replacement connection's fresh ledger — the first sync after the loss
/// surfaces a typed [`IngestLoss`] with exact frame/row counts, and the
/// cumulative accessors keep the books.
#[test]
fn lost_pipelined_ingest_surfaces_typed_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        // Connection 1: swallow exactly one framed message (the pipelined
        // ingest), then hang up — the frame is gone, unacknowledged.
        let (mut s1, _) = listener.accept().expect("accept 1");
        let mut header = [0u8; HEADER_LEN];
        s1.read_exact(&mut header).expect("ingest header");
        let parsed = Header::parse(&header).expect("parse header");
        let mut payload = vec![0u8; parsed.payload_len as usize];
        s1.read_exact(&mut payload).expect("ingest payload");
        drop(s1);
        // Connection 2: the client's redial; serve empty acks.
        let (s2, _) = listener.accept().expect("accept 2");
        serve_empty_acks(s2);
    });

    let mut client = RemoteCollector::connect_with(
        addr,
        ReconnectPolicy {
            max_retries: 3,
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
        },
    )
    .expect("initial connect");

    let mut batch = ReportBatch::new();
    for user in 0..5u64 {
        assert!(batch.push(user, 0, 0.5));
    }
    client.ingest(&batch).expect("pipelined write succeeds");

    let err = client
        .sync()
        .expect_err("lost frames must not be silently acked");
    let loss = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<IngestLoss>())
        .expect("error must downcast to IngestLoss");
    assert_eq!(loss.lost_frames, 1, "one pipelined frame in flight");
    assert_eq!(loss.lost_rows, 5, "its rows are counted");
    assert_eq!(client.lost_frames(), 1, "cumulative frame ledger");
    assert_eq!(client.lost_rows(), 5, "cumulative row ledger");

    // The loss is reported once; the next sync proceeds against the
    // replacement connection's (empty) ledger.
    let outcome = client.sync().expect("post-loss sync proceeds");
    assert_eq!(outcome.accepted, 0);
    drop(client);
    server.join().expect("server thread");
}

/// An ack covers the frames its connection carried even when the same
/// `sync` reports an earlier connection's loss: those frames are not
/// booked lost a second time when their connection dies too.
#[test]
fn frames_an_ack_covered_are_not_booked_lost_again() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let mut buf = Vec::new();
        let mut next = |stream: &mut TcpStream| read_reply(stream, &mut buf, || false);
        // Connection 1 takes ingest A, then hangs up on the ping: A is lost.
        let (mut s1, _) = listener.accept().expect("accept 1");
        assert!(matches!(next(&mut s1), Ok(Frame::Ingest { .. })));
        assert!(matches!(next(&mut s1), Ok(Frame::Ping { .. })));
        drop(s1);
        // Connection 2 answers the retried ping, takes B and C, acks
        // them, then hangs up.
        let (mut s2, _) = listener.accept().expect("accept 2");
        let Ok(Frame::Ping { nonce }) = next(&mut s2) else {
            panic!("the retried ping");
        };
        s2.write_all(&Frame::Pong { nonce }.encode()).expect("pong");
        for _ in 0..2 {
            assert!(matches!(next(&mut s2), Ok(Frame::Ingest { .. })));
        }
        assert_eq!(next(&mut s2).expect("the barrier"), Frame::IngestSync);
        let ack = Frame::IngestAck {
            accepted: 4,
            dropped: 0,
            rejected: 0,
        };
        s2.write_all(&ack.encode()).expect("ack");
        drop(s2);
        // Connection 3: the next sync's redial.
        let (s3, _) = listener.accept().expect("accept 3");
        serve_empty_acks(s3);
    });

    let mut client = RemoteCollector::connect_with(
        addr,
        ReconnectPolicy {
            max_retries: 3,
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
        },
    )
    .expect("initial connect");
    let rows = |user: u64| ReportBatch::from_stream(user, 0, &[0.5, 0.25]);
    client.ingest(&rows(1)).expect("A");
    client.ping().expect("the ping rides out the hang-up");
    client.ingest(&rows(2)).expect("B");
    client.ingest(&rows(3)).expect("C");

    let err = client.sync().expect_err("A's loss outranks the ack");
    let loss = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<IngestLoss>())
        .copied();
    let only_a = IngestLoss {
        lost_frames: 1,
        lost_rows: 2,
    };
    assert_eq!(loss, Some(only_a));

    // Connection 2 is gone too, but everything it carried was acked.
    let outcome = client.sync().expect("nothing unacked died with it");
    assert_eq!(outcome.accepted, 0, "connection 3's fresh ledger");
    assert_eq!((client.lost_frames(), client.lost_rows()), (1, 2));
    drop(client);
    server.join().expect("server thread");
}

/// A fresh handle's first `ingest` gets the policy's budget: a
/// `with_stop` handle dials on first use, and a peer that comes up during
/// the backoff takes the upload.
#[test]
fn a_fresh_handles_first_ingest_gets_the_retry_budget() {
    // Reserve a port, then free it: nobody listens there until the peer
    // binds it 30 ms into the first backoff.
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|probe| probe.local_addr())
        .expect("a free port");
    let peer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        let listener = TcpListener::bind(addr).expect("rebind the freed port");
        let (mut stream, _) = listener.accept().expect("the ingest's dial");
        read_reply(&mut stream, &mut Vec::new(), || false).expect("the upload")
    });

    let mut client = RemoteCollector::with_stop(
        addr,
        ReconnectPolicy {
            max_retries: 3,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(50),
        },
        Arc::default(),
    );
    let batch = ReportBatch::from_stream(7, 0, &[0.5]);
    client
        .ingest(&batch)
        .expect("the first ingest waits out a peer that is not up yet");
    let upload = peer.join().expect("late peer");
    assert!(matches!(upload, Frame::Ingest { users, .. } if users == [7]));
}

/// Waits (bounded) for `cond`: a dial completes in the listener's backlog
/// before the test server's accept loop counts it.
fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A handle whose last operation used up its retry budget is known dead:
/// the next `ingest` makes exactly one dial and sleeps no backoff, so a
/// dead peer cannot stall an upload loop for the whole budget per batch.
#[test]
fn an_ingest_after_an_exhausted_budget_costs_one_dial_and_no_backoff() {
    const BACKOFF: Duration = Duration::from_millis(300);
    let server = FlakyServer::start(usize::MAX); // hangs up on everyone
    let mut client = RemoteCollector::connect_with(
        server.addr,
        ReconnectPolicy {
            max_retries: 2,
            initial_backoff: BACKOFF,
            max_backoff: BACKOFF,
        },
    )
    .expect("initial connect");
    client.ping().expect_err("every connection is hung up on");
    wait_for(|| server.accepted() == 3, "the dial plus the two retries");

    let mut batch = ReportBatch::new();
    assert!(batch.push(7, 0, 0.5));
    let started = Instant::now();
    // Whether the write lands before the hang-up is a race; the dial
    // count and the absence of a backoff are not.
    let _ = client.ingest(&batch);
    let took = started.elapsed();
    wait_for(|| server.accepted() == 4, "the ingest's dial");
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(server.accepted(), 4, "exactly one dial");
    assert!(took < BACKOFF, "the ingest slept a backoff ({took:?})");
}

/// A peer that reads a query and hangs up before replying: the client
/// retries the whole exchange — dial, write, read — on a fresh connection
/// and returns that connection's answer.
#[test]
fn a_query_reply_lost_mid_exchange_is_retried_on_a_fresh_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let mut buf = Vec::new();
        let (mut first, _) = listener.accept().expect("accept 1");
        let asked = read_reply(&mut first, &mut buf, || false).expect("the query");
        assert_eq!(asked, Frame::QuerySummary);
        drop(first); // read, never answered
        let (mut second, _) = listener.accept().expect("accept 2");
        let asked = read_reply(&mut second, &mut buf, || false).expect("the retry");
        assert_eq!(asked, Frame::QuerySummary);
        let reply = Frame::Summary(SummaryBody {
            total_reports: 6,
            user_count: 3,
            ..SummaryBody::default()
        });
        second.write_all(&reply.encode()).expect("reply");
        // Hold the connection until the client's Goodbye.
        let _ = read_reply(&mut second, &mut buf, || false);
    });

    let mut client = RemoteCollector::connect_with(
        addr,
        ReconnectPolicy {
            max_retries: 3,
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
        },
    )
    .expect("initial connect");
    let summary = client
        .summary()
        .expect("answered from the second connection");
    assert_eq!((summary.total_reports, summary.user_count), (6, 3));
    assert_eq!(client.reconnects(), 1);
    drop(client);
    server.join().expect("server thread");
}

/// Backoff arithmetic: doubling from `initial` (attempts are 1-based),
/// capped at `max`.
#[test]
fn backoff_doubles_and_caps() {
    let policy = ReconnectPolicy {
        max_retries: 8,
        initial_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(200),
    };
    assert_eq!(policy.backoff(1), Duration::from_millis(10));
    assert_eq!(policy.backoff(2), Duration::from_millis(20));
    assert_eq!(policy.backoff(3), Duration::from_millis(40));
    assert_eq!(policy.backoff(5), Duration::from_millis(160));
    assert_eq!(policy.backoff(6), Duration::from_millis(200), "capped");
    assert_eq!(
        policy.backoff(63),
        Duration::from_millis(200),
        "cap survives shift overflow"
    );
}
