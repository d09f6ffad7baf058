//! End-to-end guarantees of the framed TCP service:
//!
//! 1. **Transport transparency** — a fleet driven through
//!    `RemoteCollector` → loopback TCP → `Server` → `Collector` agrees
//!    with the in-process path to ≤ 1e-9 on `population_mean` and every
//!    windowed slot mean, for the same seeded report stream.
//! 2. **Robustness** — malformed frames (garbage, truncation, bad
//!    checksum, wrong version, hostile lengths) are rejected without
//!    panicking, and only the offending connection is closed: other
//!    connections keep ingesting and querying. This *transport contract*
//!    is written once and run against both tiers — a `Server`, and a
//!    `Router` over a `Server`.
//! 3. **Accounting** — the server's metrics frame reports exactly what the
//!    collector and the connection ledgers saw.
//! 4. **One read path** — every derived read verb answers bit for bit what
//!    a client computes from `MergedParts::merge` of one `Parts` reply.

use ldp_collector::{
    ClientFleet, Collector, CollectorConfig, FleetConfig, MergedParts, ReportBatch, SlotRetention,
    SnapshotPart,
};
use ldp_core::online::{PipelineSpec, SessionKind};
use ldp_router::{Router, RouterConfig};
use ldp_server::wire::{checksum, code, Frame, HEADER_LEN, MAGIC, MAX_QUERY_SLOTS, WIRE_VERSION};
use ldp_server::{
    drive_fleet_remote, read_reply, FrameReader, RemoteCollector, Server, ServerConfig,
};
use ldp_telemetry::TelemetrySnapshot;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

fn server(shards: usize) -> Server {
    let collector = Arc::new(Collector::new(CollectorConfig {
        shards,
        ..CollectorConfig::default()
    }));
    Server::bind(collector, ServerConfig::default()).expect("bind loopback")
}

fn fleet(threads: usize, seed: u64) -> ClientFleet {
    ClientFleet::new(FleetConfig {
        spec: PipelineSpec::sw(SessionKind::Capp),
        epsilon: 2.0,
        w: 8,
        seed,
        threads,
    })
}

/// The satellite agreement test: remote-vs-in-process ≤ 1e-9, with one
/// fleet thread (one connection) and with four.
#[test]
fn remote_fleet_agrees_with_in_process_fleet() {
    let (users, slots) = (60, 40);
    let population = ldp_streams::synthetic::taxi_population(users, slots, 21);
    for threads in [1, 4] {
        let fleet = fleet(threads, 1234);

        // In-process reference.
        let local = Collector::new(CollectorConfig {
            shards: 4,
            ..CollectorConfig::default()
        });
        let local_accepted = fleet.drive(&population, 0..slots, &local).unwrap();
        let reference = local.snapshot();

        // Remote path over real loopback TCP.
        let srv = server(4);
        let remote_accepted =
            drive_fleet_remote(&fleet, &population, 0..slots, srv.local_addr()).unwrap();
        assert_eq!(remote_accepted, local_accepted, "every report arrived");

        // Queries answered over the wire agree with the local snapshot.
        let mut client = RemoteCollector::connect(srv.local_addr()).unwrap();
        let remote_pop = client.population_mean().unwrap().unwrap();
        let local_pop = reference.population_mean().unwrap();
        assert!(
            (remote_pop - local_pop).abs() <= 1e-9,
            "population mean drifted over the wire: {remote_pop} vs {local_pop}"
        );
        // Windowed means: every window of width w, plus the full range.
        let w = 8usize;
        for start in 0..=(slots - w) {
            let remote = client
                .windowed_mean(start as u64..(start + w) as u64)
                .unwrap()
                .unwrap();
            let local = reference.windowed_mean(start..start + w).unwrap();
            assert!(
                (remote - local).abs() <= 1e-9,
                "window {start}..{}: {remote} vs {local}",
                start + w
            );
        }
        let remote_full = client.windowed_mean(0..slots as u64).unwrap().unwrap();
        let local_full = reference.windowed_mean(0..slots).unwrap();
        assert!((remote_full - local_full).abs() <= 1e-9);

        // Per-slot means agree slot-for-slot.
        let means = client.slot_means(0..slots as u64).unwrap();
        assert_eq!(means.len(), slots);
        for (slot, remote) in means.iter().enumerate() {
            let local = reference.slot_mean(slot).unwrap();
            assert!((remote.unwrap() - local).abs() <= 1e-9, "slot {slot}");
        }

        // The server-side collector is *exactly* as populated as the local
        // one on per-user state (each user's reports ride one connection, so
        // per-user sums are order-identical).
        let served = srv.collector().snapshot();
        assert_eq!(served.total_reports(), reference.total_reports());
        assert_eq!(served.per_user_means(), reference.per_user_means());

        // Summary + metrics frames account for everything.
        let summary = client.summary().unwrap();
        assert_eq!(summary.total_reports, local_accepted);
        assert_eq!(summary.user_count, users as u64);
        assert_eq!(summary.slot_end, slots as u64);
        let metrics = client.metrics().unwrap();
        let counter = |name| metrics.counter(name).expect("registered");
        assert_eq!(counter("collector.reports.accepted"), local_accepted);
        assert_eq!(counter("collector.reports.dropped"), 0);
        assert_eq!(counter("server.frames.failed"), 0);
        assert!(
            counter("server.frames.decoded") >= users as u64,
            "one ingest frame per user"
        );
        assert!(counter("server.queries.answered") > 0);
    }
}

/// Ingest acks carry the per-connection disposition ledger, and
/// client-side rejections reach the server's books.
#[test]
fn ingest_sync_ledger_accounts_for_drops_and_rejects() {
    let collector = Arc::new(Collector::new(CollectorConfig {
        shards: 2,
        max_slots: 100,
        ..CollectorConfig::default()
    }));
    let srv = Server::bind(collector, ServerConfig::default()).unwrap();
    let mut client = RemoteCollector::connect(srv.local_addr()).unwrap();

    let mut batch = ReportBatch::new();
    batch.push(1, 0, 0.5); // accepted
    batch.push(2, 500, 0.5); // dropped (slot ≥ max_slots)
    batch.push(3, 1, f64::NAN); // rejected client-side, never enters the batch
    batch.push(4, 2, 0.25); // accepted
    client.ingest(&batch).unwrap();
    let totals = client.sync().unwrap();
    assert_eq!(totals.accepted, 2);
    assert_eq!(totals.dropped, 1);
    assert_eq!(totals.rejected, 1, "client-side NaN reaches the ledger");

    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.counter("collector.reports.accepted"), Some(2));
    assert_eq!(metrics.counter("collector.reports.dropped"), Some(1));
    assert_eq!(metrics.counter("collector.reports.rejected"), Some(1));

    // A NaN smuggled around ReportBatch::push (raw columns, as a buggy
    // client could) is still screened server-side.
    let poison = ReportBatch::from_columns(vec![9], vec![3], vec![f64::INFINITY]);
    client.ingest(&poison).unwrap();
    let totals = client.sync().unwrap();
    assert_eq!(totals.rejected, 2);
    assert!(srv
        .collector()
        .snapshot()
        .slots()
        .iter()
        .all(|s| s.sum.is_finite()));
}

// ---------------------------------------------------------------------
// The transport contract: written once, run against both tiers. A
// `Server` and a `Router` are the same connection driver over different
// backends, so everything a front socket promises — framing errors close
// only their own connection, bad queries do not, the cap refuses with
// BUSY, the books count all of it — must hold at either.
// ---------------------------------------------------------------------

/// A front socket under test: a plain `Server`, or a `Router` over
/// in-process `Server`s (over one: the topology `benchmark/src/topology.rs`
/// builds).
enum Front {
    Server(Server),
    Router {
        router: Router,
        _downstreams: Vec<Server>,
    },
}

impl Front {
    fn server(max_connections: usize) -> Self {
        let collector = Arc::new(Collector::new(CollectorConfig::default()));
        let config = ServerConfig { max_connections };
        Front::Server(Server::bind(collector, config).expect("bind server"))
    }

    fn router(max_connections: usize) -> Self {
        let downstream = server(2);
        let config = RouterConfig { max_connections };
        let router = Router::bind(vec![downstream.local_addr()], config).expect("bind router");
        Front::Router {
            router,
            _downstreams: vec![downstream],
        }
    }

    /// A front over collectors that keep only the last `retain` slots: a
    /// plain `Server` when `downstreams` is 0, else a `Router` over that
    /// many.
    fn retaining(retain: u64, downstreams: usize) -> Self {
        let bind = || {
            let collector = Arc::new(Collector::new(CollectorConfig {
                retention: SlotRetention::Last(retain),
                shards: 2,
                ..CollectorConfig::default()
            }));
            Server::bind(collector, ServerConfig::default()).expect("bind server")
        };
        if downstreams == 0 {
            return Front::Server(bind());
        }
        let servers: Vec<Server> = (0..downstreams).map(|_| bind()).collect();
        let addrs = servers.iter().map(Server::local_addr).collect();
        let router = Router::bind(addrs, RouterConfig::default()).expect("bind router");
        Front::Router {
            router,
            _downstreams: servers,
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Front::Server(server) => server.local_addr(),
            Front::Router { router, .. } => router.local_addr(),
        }
    }

    /// The tier's own registry, and the prefix its front books carry.
    fn metrics(&self) -> (&'static str, TelemetrySnapshot) {
        match self {
            Front::Server(server) => ("server", server.metrics()),
            Front::Router { router, .. } => ("router", router.metrics()),
        }
    }

    /// The prefix the tier's front books carry.
    fn tier(&self) -> &'static str {
        match self {
            Front::Server(_) => "server",
            Front::Router { .. } => "router",
        }
    }

    /// Where the collector's books sit in the tier's wire-served metrics:
    /// at the top of a server's, under its one downstream's in a router's.
    fn ledger(&self) -> &'static str {
        match self {
            Front::Server(_) => "",
            Front::Router { .. } => "downstream.00.",
        }
    }

    fn shutdown(&mut self) {
        match self {
            Front::Server(server) => server.shutdown(),
            Front::Router { router, .. } => router.shutdown(),
        }
    }
}

/// Malformed input closes only the offending connection; a healthy
/// connection opened before keeps working, and the tier never panics.
fn malformed_frames_contract(front: &Front) {
    let addr = front.addr();
    let mut healthy = RemoteCollector::connect(addr).unwrap();
    healthy
        .ingest(&ReportBatch::from_stream(1, 0, &[0.5, 0.75]))
        .unwrap();
    assert_eq!(healthy.sync().unwrap().accepted, 2);

    let expect_error_then_close = |raw: &[u8], what: &str| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw).unwrap();
        // The front answers with an error frame, then closes.
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).unwrap();
        let (frame, _) = Frame::decode(&reply, ldp_server::wire::DEFAULT_MAX_PAYLOAD)
            .unwrap_or_else(|e| {
                panic!("{what}: reply not a frame ({e}); got {} bytes", reply.len())
            });
        match frame {
            Frame::Error { code: c, .. } => assert_eq!(c, code::MALFORMED, "{what}"),
            other => panic!("{what}: expected error frame, got {other:?}"),
        }
    };

    // Garbage that is not even a header.
    expect_error_then_close(&[0xAB; HEADER_LEN], "garbage header");

    // Unknown version byte.
    let mut bad_version = Frame::IngestSync.encode();
    bad_version[4] = WIRE_VERSION + 7;
    expect_error_then_close(&bad_version, "unknown version");

    // Corrupt payload checksum.
    let mut bad_sum = Frame::QueryWindowedMean { start: 0, end: 4 }.encode();
    let last = bad_sum.len() - 1;
    bad_sum[last] ^= 0xFF;
    expect_error_then_close(&bad_sum, "bad checksum");

    // Oversized length field: rejected before any allocation.
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&MAGIC);
    oversized.push(WIRE_VERSION);
    oversized.push(2); // IngestSync
    oversized.extend_from_slice(&[0, 0]);
    oversized.extend_from_slice(&u32::MAX.to_le_bytes());
    oversized.extend_from_slice(&checksum(&[]).to_le_bytes());
    expect_error_then_close(&oversized, "oversized length");

    // Unknown frame type.
    let mut unknown = Frame::IngestSync.encode();
    unknown[5] = 250;
    expect_error_then_close(&unknown, "unknown frame type");

    // Truncated frame: header promises payload, peer hangs up early.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let full = Frame::QueryWindowedMean { start: 0, end: 4 }.encode();
        stream.write_all(&full[..full.len() - 3]).unwrap();
        drop(stream); // EOF mid-payload
    }

    // Through all of that, the healthy connection still serves.
    healthy
        .ingest(&ReportBatch::from_stream(2, 0, &[0.25, 0.5]))
        .unwrap();
    assert_eq!(healthy.sync().unwrap().accepted, 4);
    assert!(healthy.population_mean().unwrap().is_some());
    // The truncated-EOF connection races the accept loop: poll until the
    // front has processed (and counted) all six malformed streams.
    let failed_name = format!("{}.frames.failed", front.tier());
    let mut wire = healthy.metrics().unwrap();
    for _ in 0..200 {
        if wire.counter(&failed_name) >= Some(6) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        wire = healthy.metrics().unwrap();
    }
    let failed = wire.counter(&failed_name).expect("registered");
    assert!(failed >= 6, "each malformed stream counted: {failed}");
    assert_eq!(
        wire.counter(&format!("{}collector.reports.accepted", front.ledger())),
        Some(4),
        "nothing malformed was folded"
    );
    assert_eq!(healthy.summary().unwrap().total_reports, 4);

    // The per-type books are the same driver's at either tier: both
    // ingest frames arrived on the healthy connection.
    let (tier, metrics) = front.metrics();
    let counter = |name: &str| metrics.counter(&format!("{tier}.{name}"));
    assert_eq!(counter("ingest.frames"), Some(2));
    assert_eq!(counter("frames.by_type.ingest"), counter("ingest.frames"));
    assert_eq!(counter("frames.failed"), Some(failed));
}

#[test]
fn malformed_frames_reject_without_killing_other_connections() {
    malformed_frames_contract(&Front::server(64));
}

/// The same contract at a federation front (this subsumes the one
/// garbage-frame case `federation.rs` used to carry).
#[test]
fn router_front_rejects_malformed_frames_without_killing_other_connections() {
    malformed_frames_contract(&Front::router(64));
}

/// Query-level errors (bad arguments, a frame flowing the wrong way) keep
/// the connection open.
fn bad_queries_contract(front: &Front) {
    let mut client = RemoteCollector::connect(front.addr()).unwrap();
    client
        .ingest(&ReportBatch::from_stream(1, 0, &[0.5]))
        .unwrap();
    client.sync().unwrap();

    // Inverted/empty ranges are refused…
    let err = client.windowed_mean(5..5).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    #[allow(clippy::reversed_empty_ranges)] // the inverted range IS the test
    let err = client.slot_means(9..3).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    // …as is a range that would force a huge response allocation.
    let err = client.slot_means(0..u64::MAX).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    // The same connection keeps answering well-formed queries.
    assert!(client.windowed_mean(0..1).unwrap().is_some());
    assert_eq!(client.summary().unwrap().total_reports, 1);

    // One bound for every ranged verb, the same at either tier: a span of
    // MAX_QUERY_SLOTS is answered, one slot more is refused — also by a
    // collector that does hold that many slots. (A `Server` used to answer
    // any windowed mean while a `Router` relayed its downstream's refusal
    // of the `QueryParts` behind it.)
    let stream = vec![0.5; MAX_QUERY_SLOTS as usize + 1];
    client
        .ingest(&ReportBatch::from_stream(2, 0, &stream))
        .unwrap();
    client.sync().unwrap();
    let (at, over) = (0..MAX_QUERY_SLOTS, 0..MAX_QUERY_SLOTS + 1);
    assert_eq!(client.windowed_mean(at.clone()).unwrap(), Some(0.5));
    assert_eq!(
        client.slot_means(at.clone()).unwrap().len(),
        at.end as usize
    );
    assert_eq!(client.query_parts(at).unwrap().slots.len(), 1 << 16);
    for refused in [
        client.windowed_mean(over.clone()).map(drop),
        client.slot_means(over.clone()).map(drop),
        client.query_parts(over).map(drop),
    ] {
        assert_eq!(
            refused.unwrap_err().kind(),
            std::io::ErrorKind::InvalidInput
        );
    }
    // `QueryParts` bounds what it would send, not what was asked for.
    let tail = client.query_parts(1..u64::MAX).unwrap();
    assert_eq!((tail.start, tail.slots.len()), (1, 1 << 16));

    // A server-to-client frame is refused from its type byte; its length
    // prefix and checksum keep the stream in sync, so it is answered
    // UNSUPPORTED and the connection keeps serving.
    let mut raw = TcpStream::connect(front.addr()).unwrap();
    let mut reader = FrameReader::default();
    raw.write_all(&Frame::PopulationMean { mean: None }.encode())
        .unwrap();
    match read_reply(&mut raw, &mut reader, || false).unwrap() {
        Frame::Error { code: c, .. } => assert_eq!(c, code::UNSUPPORTED),
        other => panic!("expected an error frame, got {other:?}"),
    }
    raw.write_all(&Frame::QueryMetrics.encode()).unwrap();
    let reply = read_reply(&mut raw, &mut reader, || false).unwrap();
    assert!(matches!(reply, Frame::Metrics(_)), "{reply:?}");

    // None of that was a framing failure.
    let failed = format!("{}.frames.failed", front.tier());
    assert_eq!(client.metrics().unwrap().counter(&failed), Some(0));
}

#[test]
fn bad_queries_error_but_do_not_close_the_connection() {
    bad_queries_contract(&Front::server(64));
}

#[test]
fn router_front_bad_queries_error_but_do_not_close_the_connection() {
    bad_queries_contract(&Front::router(64));
}

/// A downstream that answers every `QueryParts` with a zero-record part
/// claiming to cover 2³⁶ slots — 92 bytes the wire rightly accepts. The
/// router must size its merge from the records it received, not from the
/// claim (which used to be a 1.6 TB allocation: the whole process aborted,
/// every front connection with it), answer, and stay up.
#[test]
fn router_survives_a_downstream_claiming_an_enormous_slot_range() {
    const CLAIMED_END: u64 = 1 << 36;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub downstream");
    let stub_addr = listener.local_addr().expect("stub addr");
    let stub = std::thread::spawn(move || {
        // Serve connections until the test's closing `Goodbye` probe.
        let mut handlers = Vec::new();
        loop {
            let (mut stream, _) = listener.accept().expect("stub accept");
            let mut reader = FrameReader::default();
            let first = read_reply(&mut stream, &mut reader, || false);
            if matches!(first, Ok(Frame::Goodbye)) {
                break;
            }
            handlers.push(std::thread::spawn(move || {
                let mut next = first;
                while let Ok(frame) = next {
                    let reply = match frame {
                        Frame::QueryParts { .. } => Frame::Parts(SnapshotPart {
                            slot_end: CLAIMED_END,
                            ..SnapshotPart::default()
                        }),
                        _ => return,
                    };
                    if stream.write_all(&reply.encode()).is_err() {
                        return;
                    }
                    next = read_reply(&mut stream, &mut reader, || false);
                }
            }));
        }
        for handler in handlers {
            handler.join().expect("stub handler");
        }
    });

    let honest = server(2);
    let mut direct = RemoteCollector::connect(honest.local_addr()).unwrap();
    direct
        .ingest(&ReportBatch::from_stream(1, 0, &[0.25, 0.75]))
        .unwrap();
    direct.sync().unwrap();

    let mut router = Router::bind(
        vec![stub_addr, honest.local_addr()],
        RouterConfig::default(),
    )
    .expect("bind router");
    let mut client = RemoteCollector::connect(router.local_addr()).unwrap();
    let summary = client.summary().unwrap();
    assert_eq!(
        summary.slot_end, CLAIMED_END,
        "the claim travels as a scalar"
    );
    assert_eq!(summary.total_reports, 2);
    assert_eq!(client.population_mean().unwrap(), Some(0.5));
    // The honest downstream's slots are still served, and the merged part
    // carries exactly those.
    assert_eq!(client.windowed_mean(0..2).unwrap(), Some(0.5));
    let part = client.query_parts(0..CLAIMED_END).unwrap();
    assert_eq!((part.slot_end, part.slots.len()), (CLAIMED_END, 2));
    assert_eq!(client.summary().unwrap().total_reports, 2, "still up");

    drop(client);
    router.shutdown();
    TcpStream::connect(stub_addr)
        .and_then(|mut s| s.write_all(&Frame::Goodbye.encode()))
        .expect("stop the stub");
    stub.join().expect("stub thread");
}

/// Every derived read verb is a merge of one `Parts` reply: after a seeded
/// fleet has synced, `population_mean`, `summary`, `windowed_mean(r)` and
/// `slot_means(r)` equal, bit for bit, what the client computes from
/// `MergedParts::merge` of one `query_parts(r)` — for ranges inside the
/// retained window, straddling its expired edge, wholly expired, running
/// past the last slot, and the whole line. This is what a dashboard that
/// reads only `Parts` relies on. The front's collectors keep the last
/// [`RETAIN`] slots.
fn derived_verbs_contract(front: &Front) {
    let (users, slots) = (40, 48u64);
    let population = ldp_streams::synthetic::taxi_population(users, slots as usize, 5);
    let accepted = drive_fleet_remote(&fleet(2, 77), &population, 0..slots as usize, front.addr())
        .expect("fleet drive");
    assert_eq!(accepted, users as u64 * slots);

    let mut client = RemoteCollector::connect(front.addr()).unwrap();
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    let base = slots - RETAIN;
    let ranges = [
        0..u64::MAX,
        0..slots,
        base..slots,
        base + 3..base + 9,
        base - 5..base + 5,
        0..base,
        3..11,
        slots - 4..slots + 20,
        slots - 1..slots,
        slots + 2..slots + 30,
    ];
    let summary = client.summary().unwrap();
    let population_mean = client.population_mean().unwrap();
    for r in ranges {
        let part = client.query_parts(r.clone()).unwrap();
        let merged = MergedParts::merge(std::slice::from_ref(&part));
        assert_eq!(merged.retained_base(), base, "{r:?}: retention clipped");

        assert_eq!(
            bits(population_mean),
            bits(merged.population_mean()),
            "population mean vs parts {r:?}"
        );
        let from_parts = (
            merged.total_reports(),
            merged.user_count(),
            merged.retained_base(),
            merged.slot_end(),
            merged.frozen().count,
            bits(merged.population_mean()),
        );
        let served = (
            summary.total_reports,
            summary.user_count,
            summary.retained_base,
            summary.slot_end,
            summary.frozen_count,
            bits(summary.population_mean),
        );
        assert_eq!(served, from_parts, "summary vs parts {r:?}");

        if r.end - r.start > MAX_QUERY_SLOTS {
            continue; // the ranged verbs refuse it (bad_queries_contract)
        }
        let window = r.start as usize..r.end as usize;
        assert_eq!(
            bits(client.windowed_mean(r.clone()).unwrap()),
            bits(merged.windowed_mean(window)),
            "windowed mean {r:?}"
        );
        let served: Vec<_> = client
            .slot_means(r.clone())
            .unwrap()
            .into_iter()
            .map(bits)
            .collect();
        let from_parts: Vec<_> = r
            .clone()
            .map(|slot| bits(merged.slot_mean(slot as usize)))
            .collect();
        assert_eq!(served, from_parts, "slot means {r:?}");
    }
}

const RETAIN: u64 = 16;

#[test]
fn derived_verbs_equal_a_merge_of_one_parts_reply() {
    derived_verbs_contract(&Front::retaining(RETAIN, 0));
}

#[test]
fn router_front_derived_verbs_equal_a_merge_of_one_parts_reply() {
    derived_verbs_contract(&Front::retaining(RETAIN, 2));
}

/// The connection limit turns extra clients away with a BUSY error frame
/// while existing connections keep working, and graceful shutdown joins
/// everything.
fn connection_limit_contract(mut front: Front) {
    let addr = front.addr();
    let mut first = RemoteCollector::connect(addr).unwrap();
    first
        .ingest(&ReportBatch::from_stream(1, 0, &[0.5]))
        .unwrap();
    assert_eq!(first.sync().unwrap().accepted, 1);

    // Second connection: refused with BUSY (the refusal frame may race
    // the accept loop, so poll until the counter shows it).
    let mut refused = false;
    for _ in 0..50 {
        let mut second = match RemoteCollector::connect(addr) {
            Ok(c) => c,
            Err(_) => continue,
        };
        match second.population_mean() {
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                refused = true;
                break;
            }
            // Connection dropped without a frame, or raced shutdown of a
            // previous refusal — retry.
            _ => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
    assert!(refused, "over-limit connection was never refused with BUSY");

    // The first connection is untouched by the refusals, and reads them
    // back through QueryMetrics — the same books the tier holds.
    assert!(first.population_mean().unwrap().is_some());
    let wire = first.metrics().unwrap();
    let (tier, books) = front.metrics();
    let rejected = wire
        .counter(&format!("{tier}.connections.rejected"))
        .expect("registered");
    assert!(rejected >= 1, "{rejected}");
    assert_eq!(wire.gauge(&format!("{tier}.connections.active")), Some(1));
    assert_eq!(
        books.counter(&format!("{tier}.connections.rejected")),
        Some(rejected)
    );

    front.shutdown(); // idempotent, joins accept/helper/conn threads
    front.shutdown();
}

#[test]
fn connection_limit_and_graceful_shutdown() {
    connection_limit_contract(Front::server(1));
}

#[test]
fn router_front_connection_limit_and_graceful_shutdown() {
    connection_limit_contract(Front::router(1));
}
