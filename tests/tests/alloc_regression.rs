//! Allocation-regression pin for the zero-copy ingest fast path.
//!
//! The tentpole claim of the wire-path optimization is that the
//! steady-state per-frame pipeline — encode → header parse/verify →
//! borrowed decode → shard routing → fold — performs **zero heap
//! allocations** once its reusable buffers are warm. A throughput number
//! can regress quietly; an allocation count cannot: this test swaps in a
//! counting global allocator and asserts the steady state allocates
//! nothing at all.
//!
//! The counter is thread-local, so the other tests in this binary (and
//! any helper threads) cannot perturb the measurement.
//!
//! What runs is the **production per-connection loop** — the transport
//! driver's framed read → `bytes.in` → decode timer → verify → borrowed
//! decode → frame counters → backend ingest, reply write included —
//! driven over an in-memory `Read + Write` ([`Server::serve_stream`]), not
//! a replica of it: the scripted peer serves warm-up frames, then the
//! measured frames, and samples the allocator at the boundary and at EOF.
//! The same peer pins the hostile side: megabyte-sized server-to-client
//! frames sent to a server cost it only its refusals.
//!
//! Telemetry rides along deliberately: the collector's ingest metrics
//! (fold-latency histogram, disposition counters) record inside
//! `ingest_outcome`, and the loop performs the server's per-frame
//! recording (decode timer, frame/byte counters) — so a pass here proves
//! the telemetry subsystem keeps the steady state allocation-free *while
//! enabled and recording*.

use ldp_collector::{
    Collector, CollectorConfig, MergedParts, ReportBatch, SlotStats, SnapshotPart,
    PARALLEL_FOLD_MIN,
};
use ldp_server::wire::{code, Frame, IngestScratch, DEFAULT_MAX_PAYLOAD, HEADER_LEN};
use ldp_server::{read_reply, FrameReader, Server, ServerConfig};
use ldp_telemetry::{MetricEntry, MetricValue, TelemetrySnapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::sync::Arc;

/// Counts allocation events (alloc / alloc_zeroed / realloc) and the bytes
/// they asked for on the current thread, delegating the actual memory
/// management to [`System`].
struct CountingAllocator;

thread_local! {
    static ALLOCATION_EVENTS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    ALLOCATION_EVENTS.with(|c| c.set(c.get() + 1));
    ALLOCATED_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

fn allocation_events() -> u64 {
    ALLOCATION_EVENTS.with(Cell::get)
}

/// Bytes requested so far on this thread (a realloc counts its whole new
/// size; nothing is subtracted on free).
fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.with(Cell::get)
}

// SAFETY: pure pass-through to `System`; the only addition is a
// pair of thread-local counters, which allocate nothing and uphold every
// `GlobalAlloc` contract by construction.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: caller upholds the `GlobalAlloc::alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: caller upholds the `GlobalAlloc::alloc_zeroed` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: caller upholds the `GlobalAlloc::realloc` contract, and
        // `ptr` came from this allocator (which delegates to `System`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator with `layout`,
        // per the `GlobalAlloc::dealloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A deterministic multi-user batch over a fixed user/slot universe, so
/// repeated frames revisit warm table entries instead of growing state.
fn steady_batch(reports: usize, users: u64, slots: u64, salt: u64) -> ReportBatch {
    let mut batch = ReportBatch::with_capacity(reports);
    let mut state = 0x2545_F491_4F6C_DD1Du64.wrapping_add(salt);
    for i in 0..reports {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        batch.push(
            (state >> 33) % users,
            i as u64 % slots,
            ((state >> 11) % 4096) as f64 / 4096.0,
        );
    }
    batch
}

/// The ingest inputs every zero-allocation test below runs: a mixed
/// batch, then one per id-column shape the wire narrows to — every row
/// on one slot (slot column at width 0) and users spread over a million
/// ids (user column at width 4) — each with the wire bytes per row its
/// id widths give.
fn steady_inputs(reports: usize, salt: u64) -> [(ReportBatch, usize); 3] {
    [
        (steady_batch(reports, 512, 64, salt), 2 + 1 + 8),
        (steady_batch(reports, 512, 1, salt), 2 + 8),
        (steady_batch(reports, 1_000_000, 64, salt), 4 + 1 + 8),
    ]
}

/// Asserts `batch` travels at `row_bytes` per row: 12 preamble bytes and
/// two 9-byte id column headers, then the columns.
fn assert_row_bytes(batch: &ReportBatch, row_bytes: usize) {
    let mut frame = Vec::new();
    Frame::encode_ingest_into(batch, &mut frame);
    assert_eq!(frame.len(), HEADER_LEN + 30 + row_bytes * batch.len());
}

/// This thread's allocation events and requested bytes so far.
fn allocation_sample() -> (u64, u64) {
    (allocation_events(), allocated_bytes())
}

/// The in-memory peer of one scripted connection: serves `bytes` to the
/// production loop, sampling this thread's allocation counters when the
/// loop comes back for the first measured byte (everything before
/// `boundary` is warm-up, fully processed by then) and when it reads EOF.
/// No read crosses `boundary`, so a buffered reader comes back for it.
struct ScriptedPeer {
    bytes: Vec<u8>,
    pos: usize,
    boundary: usize,
    at_boundary: Option<(u64, u64)>,
    at_eof: Option<(u64, u64)>,
    /// What the loop wrote back; pre-sized, so collecting it allocates
    /// nothing on the measured thread.
    written: Vec<u8>,
}

impl Read for ScriptedPeer {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.boundary {
            self.at_boundary.get_or_insert_with(allocation_sample);
        }
        if self.pos == self.bytes.len() {
            self.at_eof.get_or_insert_with(allocation_sample);
        }
        let end = if self.pos < self.boundary {
            self.boundary
        } else {
            self.bytes.len()
        };
        let n = buf.len().min(end - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for ScriptedPeer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        assert!(
            self.written.len() + buf.len() <= self.written.capacity(),
            "reply buffer was sized for the script"
        );
        self.written.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one scripted connection observed.
struct Driven {
    /// Allocation events on this thread across the measured span.
    allocations: u64,
    /// Bytes those allocations asked for.
    allocated_bytes: u64,
    /// Every frame the loop wrote back, warm-up included.
    replies: Vec<Frame>,
}

/// Serves `bytes` to one connection with the production loop, measuring
/// from `boundary` to EOF; the replies must fit `reply_capacity` bytes.
fn serve_script(server: &Server, bytes: Vec<u8>, boundary: usize, reply_capacity: usize) -> Driven {
    let mut peer = ScriptedPeer {
        bytes,
        pos: 0,
        boundary,
        at_boundary: None,
        at_eof: None,
        written: Vec::with_capacity(reply_capacity),
    };
    server.serve_stream(&mut peer);

    let mut replies = Vec::new();
    let mut rest = &peer.written[..];
    while !rest.is_empty() {
        let (reply, used) = Frame::decode(rest, DEFAULT_MAX_PAYLOAD).expect("reply decodes");
        replies.push(reply);
        rest = &rest[used..];
    }
    let (events_before, bytes_before) = peer.at_boundary.expect("measured span");
    let (events_after, bytes_after) = peer.at_eof.expect("read to EOF");
    Driven {
        allocations: events_after - events_before,
        allocated_bytes: bytes_after - bytes_before,
        replies,
    }
}

/// Serves one connection over memory with the production loop: `warmup`
/// copies of `batch` as ingest frames, then `measured` more — each span
/// closed by an `IngestSync` when `sync` is set, so the reply path (and
/// its reused `out` buffer) is warmed and measured too.
fn drive(
    server: &Server,
    batch: &ReportBatch,
    warmup: usize,
    measured: usize,
    sync: bool,
) -> Driven {
    let mut frame = Vec::new();
    Frame::encode_ingest_into(batch, &mut frame);
    let barrier = if sync {
        Frame::IngestSync.encode()
    } else {
        Vec::new()
    };
    let mut bytes = Vec::new();
    for span in [warmup, measured] {
        for _ in 0..span {
            bytes.extend_from_slice(&frame);
        }
        bytes.extend_from_slice(&barrier);
    }
    let boundary = warmup * frame.len() + barrier.len();
    serve_script(server, bytes, boundary, 256)
}

fn serving(config: CollectorConfig) -> (Arc<Collector>, Server) {
    let collector = Arc::new(Collector::new(config));
    let server = Server::bind(Arc::clone(&collector), ServerConfig::default()).expect("bind");
    (collector, server)
}

#[test]
fn steady_state_ingest_path_performs_zero_allocations() {
    for (batch, row_bytes) in steady_inputs(4096, 7) {
        assert_row_bytes(&batch, row_bytes);
        // Multi-shard so the thread-local routing scratch is exercised
        // too (a single-shard collector skips it entirely).
        let (collector, server) = serving(CollectorConfig {
            shards: 4,
            ..CollectorConfig::default()
        });

        // Warmup grows the payload buffer, the decode scratch, the
        // routing scratch, each shard's slot window, and every user-table
        // entry.
        let driven = drive(&server, &batch, 8, 32, false);
        assert_eq!(
            driven.allocations, 0,
            "steady-state read → decode → route → fold — telemetry included — \
             must not touch the heap ({row_bytes} bytes per row)"
        );
        assert!(driven.replies.is_empty(), "ingest is fire-and-forget");

        // The registry observed every frame (recording worked, it wasn't
        // no-op'd away): one fold + one decode sample and one frame count
        // per frame, and the accepted counter is the collector's own
        // ledger.
        let snap = collector.telemetry().snapshot();
        assert_eq!(snap.counter("server.frames.decoded"), Some(40));
        assert_eq!(snap.counter("server.ingest.frames"), Some(40));
        assert_eq!(
            snap.histogram("collector.ingest.fold_nanos")
                .unwrap()
                .count(),
            40
        );
        assert_eq!(
            snap.histogram("server.frame.decode_nanos").unwrap().count(),
            40
        );
        assert_eq!(
            snap.counter("collector.reports.accepted"),
            Some(40 * batch.len() as u64),
            "every report folded"
        );
    }
}

#[test]
fn an_unwarmed_connection_is_seen_allocating() {
    // The instrument is live: with no warm-up span the measured one
    // contains the connection's buffer growth, and the peer's boundary
    // sample sees it.
    let (_, server) = serving(CollectorConfig::default());
    let batch = steady_batch(1024, 64, 8, 3);
    assert!(drive(&server, &batch, 0, 2, true).allocations > 0);
}

#[test]
fn a_trailing_sync_reply_allocates_nothing_either() {
    // The ack is encoded into the connection's reused `out` buffer, which
    // the warm-up span's own sync has already grown.
    let (collector, server) = serving(CollectorConfig {
        shards: 4,
        ..CollectorConfig::default()
    });
    let batch = steady_batch(4096, 512, 64, 9);
    let driven = drive(&server, &batch, 8, 32, true);
    assert_eq!(driven.allocations, 0, "ingest + sync + ack write");

    let rows = batch.len() as u64;
    let acked = |accepted| Frame::IngestAck {
        accepted,
        dropped: 0,
        rejected: 0,
    };
    assert_eq!(driven.replies, [acked(8 * rows), acked(40 * rows)]);
    assert_eq!(collector.total_reports(), 40 * rows);
    let snap = collector.telemetry().snapshot();
    assert_eq!(snap.counter("server.frames.decoded"), Some(42));
    assert_eq!(snap.counter("server.frames.by_type.ingest_sync"), Some(2));
}

#[test]
fn misdirected_replies_cost_a_server_only_its_refusals() {
    // A server refuses a server-to-client frame type from its type byte,
    // before parsing the payload. Four such frames of 0.5–1.2 MB, each one
    // an owned decode would spend megabytes materializing, cost a warmed
    // connection only the four refusal messages.
    let (_, server) = serving(CollectorConfig::default());
    let counters = (0..60_000u64)
        .map(|i| MetricEntry {
            name: format!("m{i:06}"),
            value: MetricValue::Counter(i),
        })
        .collect();
    let record = SlotStats {
        count: 1,
        sum: 0.5,
        sum_sq: 0.25,
    };
    let misdirected = [
        Frame::Metrics(TelemetrySnapshot { entries: counters }),
        Frame::Parts(SnapshotPart {
            slot_end: 40_000,
            slots: vec![record; 40_000],
            ..SnapshotPart::default()
        }),
        Frame::SlotMeans {
            start: 0,
            means: vec![Some(0.5); 60_000],
        },
        Frame::Error {
            code: code::MALFORMED,
            message: "x".repeat(500_000),
        },
    ];
    let mut frames = Vec::new();
    for frame in &misdirected {
        let encoded = frame.encode();
        assert!((500_000..1_200_000).contains(&encoded.len()));
        frames.extend_from_slice(&encoded);
    }
    // The warm-up span sends the same four, growing the payload buffer to
    // the largest; the measured span ends with a sync, so the connection
    // is seen serving on.
    let mut bytes = frames.repeat(2);
    bytes.extend_from_slice(&Frame::IngestSync.encode());
    let driven = serve_script(&server, bytes, frames.len(), 1024);

    assert!(
        driven.allocated_bytes <= 1024,
        "refusing four misdirected replies asked for {} bytes",
        driven.allocated_bytes
    );
    let (refusals, ack) = driven.replies.split_at(8);
    for refusal in refusals {
        assert!(
            matches!(refusal, Frame::Error { code: c, .. } if *c == code::UNSUPPORTED),
            "{refusal:?}"
        );
    }
    assert_eq!(
        ack,
        [Frame::IngestAck {
            accepted: 0,
            dropped: 0,
            rejected: 0
        }]
    );
}

/// One valid header claiming the largest payload the bound allows, then
/// 1 KiB of it: what a peer that stalls (or dies) mid-frame has sent.
fn a_header_claiming_the_bound() -> Vec<u8> {
    let mut bytes = Frame::QueryMetrics.encode();
    bytes[8..12].copy_from_slice(&DEFAULT_MAX_PAYLOAD.to_le_bytes());
    bytes.extend_from_slice(&[0xA5; 1024]);
    bytes
}

#[test]
fn a_claimed_length_costs_a_connection_what_arrived() {
    // The read buffer grows only while one frame fills it, so a header
    // claiming 16 MiB followed by 1 KiB and EOF costs the connection its
    // starting buffer, not the claim.
    let (collector, server) = serving(CollectorConfig::default());
    let bytes = a_header_claiming_the_bound();
    let mut peer = ScriptedPeer {
        boundary: bytes.len(),
        bytes,
        pos: 0,
        at_boundary: None,
        at_eof: None,
        written: Vec::with_capacity(256),
    };
    let before = allocated_bytes();
    server.serve_stream(&mut peer);
    let asked = allocated_bytes() - before;
    assert!(asked < 1 << 20, "the connection asked for {asked} bytes");
    assert!(peer.written.is_empty(), "nobody left to answer");
    let snap = collector.telemetry().snapshot();
    assert_eq!(snap.counter("server.frames.failed"), Some(1));
}

#[test]
fn a_claimed_length_costs_a_reply_read_what_arrived() {
    let mut reader = FrameReader::default();
    let before = allocated_bytes();
    let cut = read_reply(
        &mut std::io::Cursor::new(a_header_claiming_the_bound()),
        &mut reader,
        || false,
    )
    .unwrap_err();
    let asked = allocated_bytes() - before;
    assert_eq!(cut.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(asked < 1 << 20, "the reply read asked for {asked} bytes");

    // A header past the bound is refused at once: a fresh reader asks for
    // its 256 KiB start and the error, never the claim.
    let mut oversized = Frame::QueryMetrics.encode();
    oversized[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut reader = FrameReader::default();
    let before = allocated_bytes();
    let refused = read_reply(&mut std::io::Cursor::new(oversized), &mut reader, || false);
    let asked = allocated_bytes() - before;
    assert_eq!(refused.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
    assert!(
        asked <= (256 << 10) + 1024,
        "the refused reply read asked for {asked} bytes"
    );
}

#[test]
fn parallel_fold_steady_state_performs_zero_allocations() {
    // Pool enabled and engaged: the batch clears `PARALLEL_FOLD_MIN`, so
    // every measured frame dispatches its runs through the work-stealing
    // injector. Run descriptors live on the submitter's stack, the
    // injector is a pre-allocated bounded ring, and the completion wait
    // is park/unpark — none of which may touch the heap. (The counter is
    // thread-local, so worker threads could not hide an allocation of
    // ours; the submitter path is what this pins.)
    let (collector, server) = serving(CollectorConfig {
        shards: 4,
        ingest_workers: 2,
        ..CollectorConfig::default()
    });
    let batch = steady_batch(PARALLEL_FOLD_MIN, 512, 64, 11);

    // Warmup additionally spawns the pool (lazily, on the first
    // qualifying batch) and lets every worker reach its steady loop.
    let driven = drive(&server, &batch, 8, 32, false);
    assert_eq!(
        driven.allocations, 0,
        "parallel dispatch — enqueue, participate, park/unpark — must not \
         touch the heap"
    );
    assert_eq!(
        collector.total_reports(),
        40 * batch.len() as u64,
        "every report folded"
    );

    // Prove the parallel path actually ran for all 40 frames: 4 runs per
    // frame through the injector, one parallel-fold sample each.
    let snap = collector.telemetry().snapshot();
    assert_eq!(snap.counter("server.frames.decoded"), Some(40));
    assert_eq!(
        snap.histogram("server.frame.decode_nanos").unwrap().count(),
        40
    );
    assert_eq!(snap.counter("collector.pool.runs"), Some(160));
    assert_eq!(
        snap.histogram("collector.ingest.fold_parallel_nanos")
            .unwrap()
            .count(),
        40
    );
    assert_eq!(snap.gauge("collector.pool.queue_depth"), Some(0));
}

#[test]
fn laned_fleet_worker_allocates_nothing_per_user() {
    // A fleet worker builds its lane sessions and publish buffers once;
    // after its first upload every further user — full lane groups and
    // the single-lane remainder alike — must publish, upload and fold
    // without touching the heap. The worker runs on a thread the
    // fleet spawns, so the sink (which lives on that thread) samples this
    // file's thread-local allocation counter after every submit.
    use ldp_collector::{ClientFleet, CollectorSink, FleetConfig, ReportSink};
    use ldp_core::online::{PipelineSpec, SessionKind};
    use ldp_streams::synthetic::taxi_population;
    use std::sync::Mutex;

    struct SamplingSink<'c> {
        inner: CollectorSink<'c>,
        samples: &'c Mutex<Vec<u64>>,
    }

    impl ReportSink for SamplingSink<'_> {
        fn submit(&mut self, user: u64, first_slot: u64, values: &[f64]) -> std::io::Result<()> {
            self.inner.submit(user, first_slot, values)?;
            let events = allocation_events();
            // Pre-sized below, so recording a sample allocates nothing.
            self.samples.lock().expect("samples").push(events);
            Ok(())
        }

        fn finish(&mut self) -> std::io::Result<u64> {
            self.inner.finish()
        }
    }

    // 23 users on one worker: five lane groups of four, then three
    // single-lane users.
    let (users, slots) = (23, 200);
    let population = taxi_population(users, slots, 5);
    let collector = Collector::new(CollectorConfig {
        shards: 2,
        ..CollectorConfig::default()
    });
    let fleet = ClientFleet::new(FleetConfig {
        spec: PipelineSpec::sw(SessionKind::Capp),
        epsilon: 2.0,
        w: 10,
        seed: 3,
        threads: 1,
    });
    // Warm-up pass: every user and slot exists in the collector afterwards.
    fleet
        .drive(&population, 0..slots, &collector)
        .expect("valid fleet");

    let samples = Mutex::new(Vec::with_capacity(users));
    let accepted = fleet
        .drive_with_sinks(&population, 0..slots, &|_| {
            Ok(SamplingSink {
                inner: CollectorSink::new(&collector),
                samples: &samples,
            })
        })
        .expect("local sinks cannot fail");
    assert_eq!(accepted, (users * slots) as u64);

    let samples = samples.into_inner().expect("samples");
    assert_eq!(samples.len(), users, "one upload per user");
    assert_eq!(
        samples.last(),
        samples.first(),
        "allocation events on the worker thread after each upload: {samples:?}"
    );
}

#[test]
fn single_shard_fast_path_is_also_allocation_free() {
    let (collector, server) = serving(CollectorConfig {
        shards: 1,
        ..CollectorConfig::default()
    });
    let batch = steady_batch(2048, 256, 32, 21);
    assert_eq!(drive(&server, &batch, 8, 32, false).allocations, 0);
    assert_eq!(collector.total_reports(), 40 * batch.len() as u64);
}

#[test]
fn single_destination_batches_allocate_nothing_either() {
    // Several users that all route to one shard of four: the counting
    // sort leaves one run, folded under one lock by the fold kernel, whose
    // block scratch (row indices and probe results) lives on the stack.
    // Three shapes: mixed slots; every row on one slot (slot column at
    // width 0); neighbours spread over a million ids (user column at
    // width 4).
    for (spacing, slots, row_bytes) in [(1, 16, 1 + 1 + 8), (1, 1, 1 + 8), (20_011, 16, 4 + 1 + 8)]
    {
        let (collector, server) = serving(CollectorConfig {
            shards: 4,
            ..CollectorConfig::default()
        });
        let neighbours: Vec<u64> = (0..)
            .map(|k: u64| k * spacing)
            .filter(|&user| collector.shard_of(user) == 0)
            .take(48)
            .collect();
        let mut batch = ReportBatch::with_capacity(2048);
        for i in 0..2048usize {
            batch.push(neighbours[(i * 7) % 48], i as u64 % slots, 0.25);
        }
        assert_row_bytes(&batch, row_bytes);
        assert_eq!(drive(&server, &batch, 8, 32, false).allocations, 0);
        assert_eq!(
            (1..4).map(|s| collector.shard_epoch(s)).sum::<u64>(),
            0,
            "only shard 0 was ever touched"
        );
    }
}

#[test]
fn screening_on_the_routing_pass_allocates_nothing_either() {
    // Dropped (slot out of bounds) and rejected (non-finite) reports take
    // the screening branches of the routing pass; those must be as
    // allocation-free as the accept branch.
    let (collector, server) = serving(CollectorConfig {
        shards: 2,
        max_slots: 16,
        ..CollectorConfig::default()
    });
    let mut users = Vec::new();
    let mut slots = Vec::new();
    let mut values = Vec::new();
    for i in 0..1024u64 {
        users.push(i % 64);
        slots.push(i % 24); // one in three lands at or above max_slots
        values.push(if i % 5 == 0 { f64::NAN } else { 0.25 });
    }
    let batch = ReportBatch::from_columns(users, slots, values);
    assert_eq!(drive(&server, &batch, 8, 16, false).allocations, 0);
    assert!(
        collector.dropped_reports() > 0,
        "screening branch exercised"
    );
    assert!(collector.rejected_reports() > 0);
}

#[test]
fn a_scalar_query_merge_allocates_nothing() {
    // A router answers `QueryPopulationMean` / `QuerySummary` by fanning
    // out `QueryParts 0..0` and merging the zero-record replies. However
    // many slots their owners claim to cover (2²⁰ here; the merge used to
    // allocate and zero-fill a table that long per query), merging them
    // sizes nothing.
    let parts: Vec<SnapshotPart> = (0..8u64)
        .map(|owner| SnapshotPart {
            retained_base: owner,
            slot_end: 1 << 20,
            start: owner,
            total_reports: 1000 + owner,
            user_count: 10,
            user_mean_sum: 2.5,
            ..SnapshotPart::default()
        })
        .collect();
    let before = allocation_events();
    let merged = MergedParts::merge(&parts);
    let events = allocation_events() - before;
    assert_eq!(events, 0, "scalar-only merge touched the heap");
    assert_eq!(merged.slot_end(), 1 << 20);
    assert_eq!(merged.retained_base(), 7);
    assert_eq!(merged.user_count(), 80);
    assert_eq!(merged.population_mean(), Some(0.25));
}

#[test]
fn wal_batched_ingest_path_performs_zero_allocations() {
    // The durability acceptance bar: with the WAL in batched flush mode,
    // the per-frame path gains append → buffer-copy → (rare) flush and
    // must stay allocation-free. A huge flush interval and segment size
    // keep fsync, segment roll, and checkpoint out of the measured
    // window; the WAL's own write buffer warms to its high-water capacity
    // during warmup, after which appends only copy into it.
    use ldp_server::durable::{self, FlushPolicy, WalConfig};
    use std::time::Duration;

    for (input, (batch, row_bytes)) in steady_inputs(4096, 33).into_iter().enumerate() {
        assert_row_bytes(&batch, row_bytes);
        let dir =
            std::env::temp_dir().join(format!("ldp-alloc-wal-{}-{input}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal_config = WalConfig::new(&dir)
            .flush(FlushPolicy::Batched(Duration::from_secs(3600)))
            .segment_bytes(1 << 30);
        let (collector, durability, _) = durable::recover(
            CollectorConfig {
                shards: 4,
                ..CollectorConfig::default()
            },
            wal_config,
        )
        .expect("fresh durable collector");

        let mut frame_buf = Vec::new();
        let mut scratch = IngestScratch::default();
        Frame::encode_ingest_into(&batch, &mut frame_buf);
        let payload = &frame_buf[HEADER_LEN..];

        // Warmup: user tables, routing scratch, and the WAL write buffer.
        for _ in 0..8 {
            let outcome = durability
                .ingest_frame(&collector, payload, &mut scratch)
                .expect("durable ingest");
            assert_eq!(outcome.accepted, batch.len() as u64);
        }

        let before = allocation_events();
        let mut accepted = 0u64;
        for _ in 0..32 {
            accepted += durability
                .ingest_frame(&collector, payload, &mut scratch)
                .expect("durable ingest")
                .accepted;
        }
        let after = allocation_events();

        assert_eq!(accepted, 32 * batch.len() as u64, "every report folded");
        assert_eq!(
            after - before,
            0,
            "WAL append (batched mode) → decode → fold must not touch the heap \
             ({row_bytes} bytes per row)"
        );
        assert_eq!(durability.appended_records(), 40);

        drop(durability);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// What the `Wal`'s own append buffer asks for, plus room for paths,
/// directory entries and file handles: the most an open may allocate
/// besides its one scan buffer.
const WAL_OPEN_BASE_BYTES: u64 = (512 << 10) + (64 << 10);

#[test]
fn wal_replay_allocates_for_one_buffer_not_for_the_log() {
    // Recovery streams every segment through one reusable buffer and lends
    // each payload to the visitor; it used to read each segment into a
    // `Vec` of its own and keep them all until replay ended. Two logs of
    // 2,000 records in a handful of segments, one ten times the other's
    // size (and larger than the scan buffer): the replay asks for the same
    // bytes for both, and for a number of allocations that depends on the
    // segment count — nowhere near one per record.
    use ldp_wal::{FlushPolicy, Wal, WalConfig};

    const RECORDS: u64 = 2_000;
    const SCAN_BUFFER_BYTES: u64 = 1 << 20;
    let replay = |tag: &str, payload_len: usize| {
        let dir = std::env::temp_dir().join(format!("ldp-alloc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || {
            WalConfig::new(&dir)
                .flush(FlushPolicy::Barrier)
                .segment_bytes(640 * payload_len as u64)
        };
        let payload = vec![0xA5u8; payload_len];
        let segments = {
            let (mut wal, _) = Wal::open(config()).expect("fresh log");
            for _ in 0..RECORDS {
                wal.append(&payload).expect("append");
            }
            wal.barrier().expect("barrier");
            wal.live_segments()
        };
        assert!((3..=8).contains(&segments), "{segments} segments");

        let (events_before, bytes_before) = (allocation_events(), allocated_bytes());
        let mut intact = 0u64;
        let (wal, recovered) = Wal::recovery(config())
            .expect("listing")
            .replay(|_, seen| {
                intact += u64::from(seen == payload);
                Ok(())
            })
            .expect("recovery");
        let events = allocation_events() - events_before;
        let bytes = allocated_bytes() - bytes_before;

        assert_eq!((recovered.records, intact), (RECORDS, RECORDS));
        assert!(
            events <= 24 * segments + 32,
            "replay made {events} allocations for {RECORDS} records in {segments} segments"
        );
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
        (segments, bytes)
    };

    let (small_segments, small) = replay("open-small", 100);
    let (large_segments, large) = replay("open-large", 1_000);
    assert_eq!(small_segments, large_segments);
    assert!(
        small > SCAN_BUFFER_BYTES && small <= SCAN_BUFFER_BYTES + WAL_OPEN_BASE_BYTES,
        "a 0.2 MB log asked for {small} bytes"
    );
    assert!(
        large.abs_diff(small) <= 1 << 10,
        "a 2 MB log asked for {large} bytes, a 0.2 MB log for {small}"
    );
}

/// The id the next spawned thread gets: `ThreadId`s are handed out from one
/// process-wide counter, so two probes that read `n` and `n + 1` prove no
/// thread was created anywhere in the process between them.
fn next_thread_id() -> u64 {
    let id = std::thread::spawn(|| std::thread::current().id())
        .join()
        .expect("probe thread");
    let text = format!("{id:?}");
    text.trim_start_matches("ThreadId(")
        .trim_end_matches(')')
        .parse()
        .expect("ThreadId(N)")
}

#[test]
fn opening_a_fresh_directory_allocates_no_scan_buffer_and_spawns_no_thread() {
    // A 1 MiB block allocated and freed on every open ratchets glibc's
    // mmap threshold up, after which every frame buffer of a serving
    // process lands on the heap (measured: +6 to +13 MB peak RSS on the
    // two-server topology). So an open that finds no segment bytes must
    // not allocate the scan buffer or a hand-off chunk, and `recover()`
    // must not start its scan thread.
    use ldp_server::durable::{self, FlushPolicy, WalConfig};
    use ldp_wal::Wal;

    let dir = |tag: &str, n: usize| {
        let dir = std::env::temp_dir().join(format!("ldp-alloc-{tag}-{n}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let config = |dir: &std::path::Path| WalConfig::new(dir).flush(FlushPolicy::Barrier);

    let fresh = dir("fresh-open", 0);
    let before = allocated_bytes();
    let opened = Wal::open(config(&fresh)).expect("fresh log");
    let bytes = allocated_bytes() - before;
    assert!(
        bytes <= WAL_OPEN_BASE_BYTES,
        "opening an empty directory asked for {bytes} bytes"
    );
    drop(opened);
    // ... and so must reopening it: the one segment file exists, empty.
    let before = allocated_bytes();
    drop(Wal::open(config(&fresh)).expect("empty log"));
    assert!(allocated_bytes() - before <= WAL_OPEN_BASE_BYTES);
    let _ = std::fs::remove_dir_all(&fresh);

    // Other tests of this binary start threads whenever they like, so one
    // quiet window is enough — and if recovery always spawned, none of
    // these attempts could find one.
    let mut frame = Vec::new();
    Frame::encode_ingest_into(&steady_batch(64, 8, 4, 1), &mut frame);
    let mut quiet = false;
    for attempt in 0..200 {
        let fresh = dir("fresh-recover", attempt);
        let first = next_thread_id();
        let recovered = durable::recover(CollectorConfig::default(), config(&fresh));
        let gap = next_thread_id() - first;
        let (collector, durability, report) = recovered.expect("fresh durable collector");
        assert_eq!(report.replayed_records, 0);
        if attempt == 0 {
            // The probe is live: the same call on a log with one record
            // does start the scan thread, every time.
            durability
                .ingest_frame(
                    &collector,
                    &frame[HEADER_LEN..],
                    &mut IngestScratch::default(),
                )
                .expect("durable ingest");
            durability.barrier().expect("barrier");
            drop((collector, durability));
            let first = next_thread_id();
            let (_, _, report) = durable::recover(CollectorConfig::default(), config(&fresh))
                .expect("recovery of one record");
            assert!(next_thread_id() - first >= 2, "no scan thread was seen");
            assert_eq!(report.replayed_records, 1);
        }
        let _ = std::fs::remove_dir_all(&fresh);
        if gap == 1 {
            quiet = true;
            break;
        }
    }
    assert!(
        quiet,
        "every fresh-directory recover() coincided with a new thread"
    );
}

#[test]
fn every_publisher_publishes_allocation_free_once_warm() {
    // Every publisher the evaluation builds — the ten named arms and all
    // twenty (rule, mechanism) cells — fills the caller's buffer through
    // `publish_into`; once that buffer has held one stream of this
    // length, a further call touches the heap not at all. APP and CAPP
    // smooth in place over the buffer, PP-S writes its replicated
    // segment means straight into it.
    use ldp_core::PipelineSpec;
    use ldp_experiments::AlgorithmSpec;
    use rand::SeedableRng;

    const CALLS: u64 = 20;
    let stream: Vec<f64> = (0..1_000)
        .map(|i| 0.5 + 0.4 * (i as f64 / 25.0).sin())
        .collect();
    let named = [
        AlgorithmSpec::SwDirect,
        AlgorithmSpec::BaSw,
        AlgorithmSpec::Ipp,
        AlgorithmSpec::App,
        AlgorithmSpec::Capp { margin: None },
        AlgorithmSpec::Capp { margin: Some(0.1) },
        AlgorithmSpec::ToPL,
        AlgorithmSpec::NaiveSampling,
        AlgorithmSpec::AppSampling,
        AlgorithmSpec::CappSampling,
    ];
    let cells = PipelineSpec::grid().into_iter().map(AlgorithmSpec::Cell);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut published = Vec::new();
    for spec in named.into_iter().chain(cells) {
        let publisher = spec.build(2.0, 10);
        publisher.publish_into(&stream, &mut published, &mut rng);
        let before = allocation_events();
        for _ in 0..CALLS {
            publisher.publish_into(&stream, &mut published, &mut rng);
        }
        let events = allocation_events() - before;
        assert_eq!(published.len(), stream.len(), "{}", spec.label());
        if spec == AlgorithmSpec::ToPL {
            // The named exception: ToPL's threshold fit reconstructs a
            // histogram by EM (`sw_estimate::estimate_distribution`), which
            // allocates its working vectors on every call. Only those
            // remain: when ToPL's phase-1 reports and output were fresh
            // vectors too, it read 70 per call.
            assert!(
                events < 70 * CALLS,
                "ToPL: {events} allocations in {CALLS} calls"
            );
        } else {
            assert_eq!(
                events,
                0,
                "{}: allocations in {CALLS} warm calls",
                spec.label()
            );
        }
    }
}
