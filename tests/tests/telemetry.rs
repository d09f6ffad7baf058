//! Telemetry subsystem integration: lock-free registry exactness under
//! concurrent recording, `MetricsSnapshot` wire-frame round-trips
//! (including truncated and corrupted payloads), and the end-to-end
//! acceptance pin — the server's wire-served metric counters must agree
//! **exactly** with the sums of the client-side ingest ledgers. Not
//! approximately: the telemetry counters ARE the collector's books, so
//! any daylight between the two is a bug, not sampling noise.

use ldp_collector::{Collector, CollectorConfig, ReportBatch};
use ldp_server::wire::{Frame, HEADER_LEN};
use ldp_server::{RemoteCollector, Server, ServerConfig};
use ldp_telemetry::{
    HistogramSnapshot, MetricEntry, MetricValue, Registry, TelemetrySnapshot, HISTOGRAM_BUCKETS,
};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Concurrent registry exactness
// ---------------------------------------------------------------------------

#[test]
fn concurrent_recording_is_exact_and_snapshots_never_tear() {
    const WRITERS: u64 = 8;
    const PER_WRITER: u64 = 50_000;
    let registry = Arc::new(Registry::new());
    let events = registry.counter("test.events");
    let level = registry.gauge("test.level");
    let latency = registry.histogram("test.latency");
    // Every writer records the same value stream, so the quiescent sum is
    // exactly `WRITERS` times this.
    let per_writer_sum: u64 = (0..PER_WRITER).map(|i| (i % 1024) + 1).sum();

    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            let events = Arc::clone(&events);
            let level = Arc::clone(&level);
            let latency = Arc::clone(&latency);
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    events.inc();
                    if i % 2 == 0 {
                        level.inc();
                    } else {
                        level.dec();
                    }
                    latency.record((i % 1024) + 1);
                }
            });
        }
        // Concurrent reader: every snapshot taken mid-flight must be
        // internally coherent — monotone counts, bucket totals that are
        // never torn, and values bounded by what the writers could have
        // recorded so far.
        let registry = Arc::clone(&registry);
        scope.spawn(move || {
            let (mut last_events, mut last_count) = (0u64, 0u64);
            for _ in 0..500 {
                let snap = registry.snapshot();
                let events = snap.counter("test.events").expect("registered");
                let hist = snap.histogram("test.latency").expect("registered");
                let count = hist.count();
                assert!(events >= last_events, "counter went backwards");
                assert!(count >= last_count, "histogram count went backwards");
                assert!(events <= WRITERS * PER_WRITER);
                assert!(count <= WRITERS * PER_WRITER);
                assert_eq!(
                    count,
                    hist.buckets().iter().sum::<u64>(),
                    "count is derived from the snapshot's own buckets"
                );
                assert!(hist.max() <= 1024, "no sample larger than any recorded");
                assert!(hist.sum() <= WRITERS * per_writer_sum);
                (last_events, last_count) = (events, count);
            }
        });
    });

    // Quiescent: every one of the 400k increments landed exactly once.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("test.events"), Some(WRITERS * PER_WRITER));
    assert_eq!(snap.gauge("test.level"), Some(0), "inc/dec pairs cancel");
    let hist = snap.histogram("test.latency").expect("registered");
    assert_eq!(hist.count(), WRITERS * PER_WRITER);
    assert_eq!(hist.sum(), WRITERS * per_writer_sum);
    assert_eq!(hist.max(), 1024);
}

// ---------------------------------------------------------------------------
// MetricsSnapshot wire round-trip (property)
// ---------------------------------------------------------------------------

/// How many distinct metric names the generator can draw from.
const NAME_TABLE: usize = 24;

/// Splitmix-style value stream so each case derives its whole snapshot
/// from one generated seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A snapshot over the (sorted, deduplicated) `indices` of the name
/// table, with kinds and values drawn from `seed`.
fn random_snapshot(indices: &[usize], seed: u64) -> TelemetrySnapshot {
    let mut rng = Mix(seed);
    let mut sorted: Vec<usize> = indices.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let entries = sorted
        .into_iter()
        .map(|i| {
            let value = match rng.next() % 3 {
                0 => MetricValue::Counter(rng.next()),
                1 => MetricValue::Gauge(rng.next() as i64),
                _ => {
                    let n = (rng.next() as usize) % (HISTOGRAM_BUCKETS + 1);
                    // Bounded bucket counts so derived sums can't overflow.
                    let buckets = (0..n).map(|_| rng.next() & 0xFFFF_FFFF).collect();
                    MetricValue::Histogram(HistogramSnapshot::from_parts(
                        rng.next(),
                        rng.next(),
                        buckets,
                    ))
                }
            };
            MetricEntry {
                name: format!("prop.metric.{i:02}"),
                value,
            }
        })
        .collect();
    TelemetrySnapshot { entries }
}

proptest! {
    #[test]
    fn metrics_snapshots_round_trip_and_resist_mangling(
        indices in proptest::collection::vec(0usize..NAME_TABLE, 1..16),
        seed in any::<u64>(),
        cut in 0usize..1 << 20,
        flip in 0usize..1 << 20,
    ) {
        let snap = random_snapshot(&indices, seed);
        let bytes = Frame::Metrics(snap.clone()).encode();
        let (decoded, consumed) = Frame::decode(&bytes, u32::MAX).expect("round trip");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded, Frame::Metrics(snap));

        // Every truncation is refused — there is no shorter prefix that
        // quietly parses as a smaller snapshot.
        prop_assert!(Frame::decode(&bytes[..cut % bytes.len()], u32::MAX).is_err());

        // Any single corrupted payload byte is caught (checksum, or the
        // payload validator for the rare colliding flip).
        let flip = HEADER_LEN + flip % (bytes.len() - HEADER_LEN);
        let mut mangled = bytes;
        mangled[flip] ^= 0x01;
        prop_assert!(Frame::decode(&mangled, u32::MAX).is_err());
    }
}

// ---------------------------------------------------------------------------
// Loopback: wire-served metrics vs. client ledgers, exactly
// ---------------------------------------------------------------------------

/// A push-built batch: 50 finite reports over slots `0..80` (everything
/// at or above the collector's `max_slots = 64` will be dropped) plus two
/// non-finite values that `push` screens client-side — those ride the
/// ingest frame as upstream rejections.
fn pushed_batch(conn: u64, round: u64) -> ReportBatch {
    let mut batch = ReportBatch::with_capacity(52);
    for i in 0..50 {
        batch.push(conn * 1_000 + i, (i * 3 + round) % 80, (i as f64) / 64.0);
    }
    assert!(!batch.push(conn * 1_000 + 999, 1, f64::NAN));
    assert!(!batch.push(conn * 1_000 + 998, 2, f64::INFINITY));
    batch
}

/// A column-built batch: `from_columns` performs no screening, so the
/// three non-finite values reach the server and are rejected *at ingest*
/// (the other screening path), alongside a few out-of-bounds slots.
fn column_batch(conn: u64, round: u64) -> ReportBatch {
    let mut users = Vec::new();
    let mut slots = Vec::new();
    let mut values = Vec::new();
    for i in 0..48u64 {
        users.push(conn * 1_000 + 500 + i);
        slots.push((i * 5 + round) % 72);
        values.push(match i {
            7 => f64::NAN,
            19 => f64::INFINITY,
            31 => f64::NEG_INFINITY,
            _ => (i as f64) / 48.0,
        });
    }
    ReportBatch::from_columns(users, slots, values)
}

#[test]
fn loopback_metrics_agree_exactly_with_client_ledgers() {
    const CONNECTIONS: u64 = 3;
    const ROUNDS: u64 = 2;
    let collector = Arc::new(Collector::new(CollectorConfig {
        shards: 4,
        max_slots: 64,
        ..CollectorConfig::default()
    }));
    let server = Server::bind(Arc::clone(&collector), ServerConfig::default()).expect("bind");

    // Drive ingest over real connections, summing each connection's
    // sync-acknowledged ledger. `sync` is a barrier, so by the time the
    // last one returns every frame below is folded and tallied.
    let (mut accepted, mut dropped, mut rejected) = (0u64, 0u64, 0u64);
    let (mut ingest_frames, mut ingest_bytes) = (0u64, 0u64);
    let mut scratch = Vec::new();
    for conn in 0..CONNECTIONS {
        let mut client = RemoteCollector::connect(server.local_addr()).expect("connect");
        for round in 0..ROUNDS {
            for batch in [pushed_batch(conn, round), column_batch(conn, round)] {
                // Re-encode locally to know exactly how many wire bytes
                // this frame put on the socket.
                scratch.clear();
                Frame::encode_ingest_into(&batch, &mut scratch);
                ingest_bytes += scratch.len() as u64;
                client.ingest(&batch).expect("ingest");
                ingest_frames += 1;
            }
        }
        let outcome = client.sync().expect("sync barrier");
        accepted += outcome.accepted;
        dropped += outcome.dropped;
        rejected += outcome.rejected;
    }
    assert!(
        accepted > 0 && dropped > 0 && rejected > 0,
        "every disposition exercised"
    );
    // 2 NaN/inf screened client-side per pushed batch.
    let upstream = CONNECTIONS * ROUNDS * 2;

    // The in-process books match the ledger sums…
    assert_eq!(collector.total_reports(), accepted);
    assert_eq!(collector.dropped_reports(), dropped);
    assert_eq!(collector.rejected_reports(), rejected);
    let books = collector.telemetry().snapshot();
    assert_eq!(
        books.counter("collector.reports.rejected_upstream"),
        Some(upstream)
    );
    assert_eq!(
        books.counter("collector.ingest.batches"),
        Some(ingest_frames)
    );

    // …and so does the MetricsSnapshot frame, the one way counters
    // travel the wire: the same atomics, serialized through the registry.
    let mut dash = RemoteCollector::connect(server.local_addr()).expect("connect");
    let metrics = dash.metrics().expect("metrics");
    assert_eq!(
        metrics.counter("collector.reports.accepted"),
        Some(accepted)
    );
    assert_eq!(metrics.counter("collector.reports.dropped"), Some(dropped));
    assert_eq!(
        metrics.counter("collector.reports.rejected"),
        Some(rejected)
    );
    assert_eq!(
        metrics.counter("collector.reports.rejected_upstream"),
        Some(upstream)
    );
    assert_eq!(
        metrics.counter("collector.ingest.batches"),
        Some(ingest_frames)
    );
    assert_eq!(metrics.counter("server.ingest.frames"), Some(ingest_frames));
    let bytes_in = metrics.counter("server.bytes.in").expect("registered");
    assert!(
        bytes_in >= ingest_bytes,
        "transport counted at least the ingest traffic ({bytes_in} < {ingest_bytes})"
    );
    assert!(
        metrics.counter("server.bytes.out") > Some(0),
        "replies were counted"
    );
    assert_eq!(
        metrics.counter("server.frames.by_type.ingest"),
        Some(ingest_frames)
    );
    assert_eq!(
        metrics
            .histogram("collector.ingest.fold_nanos")
            .expect("registered")
            .count(),
        ingest_frames,
        "one fold-latency sample per non-empty ingest frame"
    );

    // Per-shard batch counters exist for every shard and account for at
    // least one shard fold per frame (a frame spanning shards counts once
    // per shard it touched).
    let shard_counters: Vec<u64> = metrics
        .entries
        .iter()
        .filter(|e| e.name.starts_with("collector.shard.") && e.name.ends_with(".batches"))
        .filter_map(|e| match e.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        })
        .collect();
    assert_eq!(shard_counters.len(), 4, "one batch counter per shard");
    assert!(shard_counters.iter().sum::<u64>() >= ingest_frames);

    // The decoded snapshot preserves the registry's sorted-unique order —
    // the invariant its binary-search lookups rely on survived the wire.
    assert!(metrics
        .entries
        .windows(2)
        .all(|pair| pair[0].name < pair[1].name));
}
