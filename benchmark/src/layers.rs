//! The traced run: per-layer metrics, measured from outside.
//!
//! Two parts. (a) The workload's own topology again, once untraced and
//! once with a span around every client call — that gives the client-side
//! rows, the servers' own telemetry over the same window, and the cost of
//! tracing itself. (b) A single-threaded *stage pass* that pushes the same
//! generated frames through each layer's public function inside a root
//! span, so a stage's cost is its span's self time. Spans inside the
//! program are a later change; every span here is opened and closed by
//! the benchmark around a call into the layer.

use crate::inputs::{Ring, SplitMix64, RING_SLOTS};
use crate::loadgen::Gateway;
use crate::spec::{Kind, Workload};
use crate::stats::{median, summarize_latency, LatencyHistogram};
use crate::topology::{collector_config, out_dir, ScratchDir, Topology, TopologyKind};
use crate::trace::{self, maybe_span, totals_by_name, NameTotal, Tracer};
use crate::workloads::{counters_matching, sum_matching, Loaded, SocketLoaded};
use ldp_collector::{Collector, CollectorConfig, QueryEngine, ReportBatch, SlotRetention};
use ldp_core::{App, Capp, Ipp, StreamMechanism};
use ldp_mechanisms::{Mechanism, SquareWave};
use ldp_router::downstream_of;
use ldp_server::wire::{Frame, FrameView, Header, IngestScratch, SummaryBody, HEADER_LEN};
use ldp_server::{recover, FlushPolicy, WalConfig};
use ldp_telemetry::{Counter, Histogram};
use ldp_wal::Wal;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-layer values by metric name, plus what the run needs to report.
pub struct Traced {
    pub values: BTreeMap<&'static str, f64>,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// The printed stage table.
    pub table: Vec<String>,
    pub trace_file: String,
}

/// Untraced and traced windows alternate, this many of each, so drift in
/// the machine's speed lands on both sides of the overhead comparison.
const WINDOW_PAIRS: usize = 3;

/// Share of `--seconds` each single window runs for.
const WINDOW_SHARE: f64 = 0.1;

/// Raw spans kept per section of the trace file (the per-name totals
/// always cover every span).
const SPANS_IN_FILE: usize = 2_000;

type Values = BTreeMap<&'static str, f64>;

fn invalid(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

pub fn trace_run(
    workload: &Workload,
    loaded: &mut Loaded,
    seed: u64,
    seconds: f64,
) -> std::io::Result<Traced> {
    let mut values = Values::new();
    let mut problems = Vec::new();
    let window = seconds * WINDOW_SHARE;
    let mut sections: Vec<(&'static str, Tracer)> = Vec::new();

    // (a) the topology, untraced then traced.
    let topo = match loaded {
        Loaded::Socket(s) => trace_socket(
            s,
            window,
            workload.ack_tail_pct,
            &mut values,
            &mut problems,
            &mut sections,
        )?,
        Loaded::Recover(r) => {
            let mut pass = |tracer: Option<&mut Tracer>, n: u64| -> Result<u64, String> {
                maybe_span(tracer, "recover", n, || r.recover_once())
                    .map(|_| r.expected_rows)
                    .map_err(|e| e.to_string())
            };
            trace_calls(
                "recover",
                window,
                workload.ack_tail_pct,
                &mut pass,
                &mut values,
                &mut problems,
                &mut sections,
            )
        }
        Loaded::Fleet(f) => {
            let collector = Collector::new(collector_config(SlotRetention::Unbounded));
            let mut pass = |tracer: Option<&mut Tracer>, n: u64| -> Result<u64, String> {
                let cohort = &f.cohorts[n as usize % f.cohorts.len()];
                maybe_span(tracer, "fleet.drive", n, || {
                    f.fleet.drive(cohort, 0..f.slots, &collector)
                })
                .map_err(|e| e.to_string())
            };
            trace_calls(
                "fleet",
                window,
                workload.ack_tail_pct,
                &mut pass,
                &mut values,
                &mut problems,
                &mut sections,
            )
        }
    };

    // (b) the stage pass, on frames of this workload's shape and a
    // collector of this workload's state size.
    let fleet_ring;
    let (ring, config) = match loaded {
        Loaded::Socket(s) => (&s.ring, s.config),
        Loaded::Recover(r) => (&r.ring, r.config),
        Loaded::Fleet(f) => {
            fleet_ring = fleet_stage_ring(seed, f.cohort_users, f.slots);
            (&fleet_ring, collector_config(SlotRetention::Unbounded))
        }
    };
    let stage_tracer = stage_pass(ring, config, seed, &mut values)?;
    sections.push(("stage_pass", stage_tracer));

    let table = stage_table(workload, ring, &values, &topo);
    std::fs::create_dir_all(out_dir())?;
    let trace_path = out_dir().join(format!("trace-{}.json", workload.name));
    let borrowed: Vec<(&str, &Tracer)> = sections.iter().map(|(n, t)| (*n, t)).collect();
    std::fs::write(
        &trace_path,
        trace::to_json(&borrowed, SPANS_IN_FILE).to_pretty(),
    )?;

    Ok(Traced {
        values,
        problems,
        attempted: topo.attempted,
        failed: topo.failed,
        table,
        trace_file: trace_path.display().to_string(),
    })
}

/// What part (a) hands to the stage table.
struct TopologyTrace {
    /// End-to-end ns per row of the untraced windows (median window).
    e2e_ns_per_row: f64,
    /// Measured fsync barrier per ack, spread over the rows one ack
    /// covers (0 where acks do not wait for an fsync).
    barrier_ns_per_row: f64,
    /// Measured cost of opening and closing one span.
    span_cost_ns: f64,
    /// That cost × the spans recorded ÷ the traced windows' length: what
    /// tracing must have cost, next to what the windows say it did.
    span_cost_share: f64,
    attempted: u64,
    failed: u64,
}

/// Times empty spans on a tracer of their own.
fn span_cost_ns() -> f64 {
    const SPANS: u64 = 100_000;
    let mut tracer = Tracer::with_capacity(SPANS as usize);
    let start = Instant::now();
    for n in 0..SPANS {
        tracer.span("calibrate", n, || black_box(n));
    }
    start.elapsed().as_nanos() as f64 / SPANS as f64
}

fn overhead_pct(untraced_rate: f64, traced_rate: f64) -> f64 {
    if untraced_rate > 0.0 {
        (untraced_rate - traced_rate) / untraced_rate * 100.0
    } else {
        0.0
    }
}

/// Runs the n-th call of a one-call-at-a-time workload, inside a span if
/// given a tracer, and returns the rows it carried.
type TracedCall<'a> = dyn FnMut(Option<&mut Tracer>, u64) -> Result<u64, String> + 'a;

/// Part (a) for the two workloads whose loop is one call at a time.
fn trace_calls(
    section: &'static str,
    window: f64,
    tail_pct: f64,
    call: &mut TracedCall<'_>,
    values: &mut Values,
    problems: &mut Vec<String>,
    sections: &mut Vec<(&'static str, Tracer)>,
) -> TopologyTrace {
    let mut calls = 0u64;
    let mut failed = 0u64;
    let mut untraced_ns = Vec::new();
    let mut timed = |tracer: Option<&mut Tracer>, problems: &mut Vec<String>| -> f64 {
        let mut tracer = tracer;
        let start = Instant::now();
        let mut rows = 0u64;
        while start.elapsed().as_secs_f64() < window {
            let called = Instant::now();
            match call(tracer.as_deref_mut(), calls) {
                Ok(r) => {
                    rows += r;
                    if tracer.is_none() {
                        untraced_ns.push(called.elapsed().as_nanos() as u64);
                    }
                }
                Err(e) => {
                    failed += 1;
                    problems.push(format!("{section}: {e}"));
                    break;
                }
            }
            calls += 1;
        }
        rows as f64 / start.elapsed().as_secs_f64()
    };
    let mut tracer = Tracer::with_capacity(1 << 16);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..WINDOW_PAIRS {
        untraced.push(timed(None, problems));
        traced.push(timed(Some(&mut tracer), problems));
    }
    let untraced = median(&untraced);
    values.insert(
        "loadgen.trace_overhead_pct",
        overhead_pct(untraced, median(&traced)),
    );
    insert_ack(values, &mut untraced_ns, tail_pct);
    let span_cost_ns = span_cost_ns();
    let traced_ns = window * WINDOW_PAIRS as f64 * 1e9;
    let span_cost_share = span_cost_ns * tracer.spans().len() as f64 / traced_ns;
    sections.push((section, tracer));
    TopologyTrace {
        e2e_ns_per_row: if untraced > 0.0 { 1e9 / untraced } else { 0.0 },
        barrier_ns_per_row: 0.0,
        span_cost_ns,
        span_cost_share,
        attempted: calls + failed,
        failed,
    }
}

/// Cumulative server- and router-side books; two of these bracket a
/// window.
struct Books {
    decode_ns: u64,
    fold_ns: u64,
    front_bytes_in: u64,
    wal_bytes: u64,
    wal_syncs: u64,
    wal_sync_ns: u64,
    wal_checkpoints: u64,
    pool_runs: u64,
    pool_steals: u64,
    frames_failed: u64,
    fanout_sync_ns: u64,
    fanout_syncs: u64,
    downstream_rows: Vec<u64>,
    lost_rows: u64,
}

impl Books {
    fn read(s: &SocketLoaded) -> Self {
        let t = &s.topology;
        let router = t.router_metrics();
        let (fanout_sync_ns, fanout_syncs) = router
            .as_ref()
            .and_then(|m| m.histogram("router.fanout.sync_nanos"))
            .map_or((0, 0), |h| (h.sum(), h.count()));
        let (wal_sync_ns, wal_syncs) = t.server_histogram("wal.flush_nanos");
        Self {
            decode_ns: t.server_histogram("server.frame.decode_nanos").0,
            fold_ns: t.server_histogram("collector.ingest.fold_nanos").0,
            front_bytes_in: match &router {
                Some(m) => m.counter("router.bytes.in").unwrap_or(0),
                None => t.server_counter("server.bytes.in"),
            },
            wal_bytes: t.server_counter("wal.appended_bytes"),
            wal_syncs,
            wal_sync_ns,
            wal_checkpoints: t.server_counter("wal.checkpoints"),
            pool_runs: t.server_counter("collector.pool.runs"),
            pool_steals: t.server_counter("collector.pool.steals"),
            frames_failed: t.server_counter("server.frames.failed")
                + s.router_counter("router.frames.failed"),
            fanout_sync_ns,
            fanout_syncs,
            downstream_rows: router
                .as_ref()
                .map(|m| counters_matching(m, "router.downstream.", ".rows"))
                .unwrap_or_default(),
            lost_rows: router
                .as_ref()
                .map_or(0, |m| sum_matching(m, "router.downstream.", ".lost_rows")),
        }
    }
}

/// `client.ack_*` from the untraced windows' waits, pooled.
fn insert_ack(values: &mut Values, ns: &mut [u64], tail_pct: f64) {
    if !ns.is_empty() {
        let ack = summarize_latency(ns, tail_pct);
        values.insert("client.ack_p50_us", ack.p50_ns as f64 / 1e3);
        values.insert("client.ack_tail_us", ack.tail_ns as f64 / 1e3);
    }
}

fn per(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

fn trace_socket(
    s: &mut SocketLoaded,
    window: f64,
    tail_pct: f64,
    values: &mut Values,
    problems: &mut Vec<String>,
    sections: &mut Vec<(&'static str, Tracer)>,
) -> std::io::Result<TopologyTrace> {
    let before = Books::read(s);
    let mut gateway_tracer = Tracer::with_capacity(1 << 16);
    let mut dashboard_tracer = Tracer::with_capacity(1 << 21);
    let (mut attempted, mut failed, mut rows) = (0u64, 0u64, 0u64);
    let (mut untraced_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let (mut traced_rows_sent, mut traced_ns) = (0u64, 0u128);
    let (mut dashboard_latency, mut dashboard_seconds) = (LatencyHistogram::default(), 0.0);
    let mut untraced_ack_ns = Vec::new();
    for window_no in 0..WINDOW_PAIRS * 2 {
        let traced = window_no % 2 == 1;
        let (gw, dash) = if traced {
            s.drive(
                window,
                Some(&mut gateway_tracer),
                Some(&mut dashboard_tracer),
            )
        } else {
            s.drive(window, None, None)
        };
        if let Some(e) = &gw.error {
            problems.push(format!("gateway: {e}"));
        }
        attempted += gw.attempted_ops();
        failed += gw.failed_ops;
        if let Some(dash) = dash {
            if let Some(e) = &dash.error {
                problems.push(format!("dashboard: {e}"));
            }
            attempted += dash.attempted_ops();
            failed += dash.failed_ops;
            if !traced {
                dashboard_seconds += dash.elapsed.as_secs_f64();
                dashboard_latency.merge(&dash.latency);
            }
        }
        rows += gw.rows_acked;
        let rate = gw.rows_acked as f64 / gw.elapsed.as_secs_f64().max(1e-9);
        if traced {
            traced_rates.push(rate);
            traced_rows_sent += gw.rows_sent;
            traced_ns += gw.elapsed.as_nanos();
        } else {
            untraced_rates.push(rate);
            untraced_ack_ns.extend_from_slice(&gw.sync_ns);
        }
        if window_no + 1 == WINDOW_PAIRS * 2 {
            s.check_ledgers(&gw, problems);
        }
    }
    let after = Books::read(s);
    let untraced_rate = median(&untraced_rates);
    values.insert(
        "loadgen.trace_overhead_pct",
        overhead_pct(untraced_rate, median(&traced_rates)),
    );

    insert_ack(values, &mut untraced_ack_ns, tail_pct);

    // The dashboard beside the gateway, from the untraced windows.
    if let Some(summary) = dashboard_latency.summarize(99.0) {
        values.insert(
            "dashboard.queries_per_s",
            summary.n as f64 / dashboard_seconds.max(1e-9),
        );
        values.insert("dashboard.query_p50_us", summary.p50_ns as f64 / 1e3);
        values.insert("dashboard.query_p99_us", summary.tail_ns as f64 / 1e3);
    }

    // Client side, from the traced windows' spans.
    let totals = totals_by_name(gateway_tracer.spans());
    let total_of = |name: &str| totals.get(name).copied().unwrap_or_default().total_ns;
    values.insert(
        "client.ingest_call.ns_per_row",
        per(total_of("client.ingest"), traced_rows_sent),
    );
    values.insert(
        "client.sync_wait.share",
        total_of("client.sync") as f64 / traced_ns.max(1) as f64,
    );

    // Server side, from the services' own books over all six windows
    // (client-side tracing does not touch them).
    let e2e_ns_per_row = if untraced_rate > 0.0 {
        1e9 / untraced_rate
    } else {
        0.0
    };
    let decode = per(after.decode_ns - before.decode_ns, rows);
    let fold = per(after.fold_ns - before.fold_ns, rows);
    values.insert("serve.decode.reported_ns_per_row", decode);
    values.insert("serve.fold.reported_ns_per_row", fold);
    values.insert("serve.residual.ns_per_row", e2e_ns_per_row - decode - fold);
    values.insert(
        "serve.bytes_in_per_row",
        per(after.front_bytes_in - before.front_bytes_in, rows),
    );
    values.insert("serve.frames_failed", after.frames_failed as f64);
    values.insert(
        "wal.bytes_per_row",
        per(after.wal_bytes - before.wal_bytes, rows),
    );
    values.insert("wal.syncs", (after.wal_syncs - before.wal_syncs) as f64);
    values.insert(
        "wal.checkpoints",
        (after.wal_checkpoints - before.wal_checkpoints) as f64,
    );
    values.insert(
        "wal.segments",
        s.topology
            .servers()
            .iter()
            .filter_map(|server| server.metrics().gauge("wal.segments"))
            .sum::<i64>() as f64,
    );
    let pool_runs = after.pool_runs - before.pool_runs;
    values.insert("collector.pool.runs", pool_runs as f64);
    values.insert(
        "collector.pool.steal_share",
        per(after.pool_steals - before.pool_steals, pool_runs),
    );
    let barrier_ns_per_row = per(after.wal_sync_ns - before.wal_sync_ns, rows);

    if let TopologyKind::Routed { flush, .. } = s.shape.topology {
        let routed: Vec<u64> = after
            .downstream_rows
            .iter()
            .zip(&before.downstream_rows)
            .map(|(a, b)| a - b)
            .collect();
        let mean = routed.iter().sum::<u64>() as f64 / routed.len().max(1) as f64;
        let max = routed.iter().copied().max().unwrap_or(0) as f64;
        values.insert("router.skew", if mean > 0.0 { max / mean } else { 0.0 });
        values.insert("router.lost_rows", after.lost_rows as f64);
        values.insert(
            "router.fanout_sync.reported_us_per_op",
            per(
                after.fanout_sync_ns - before.fanout_sync_ns,
                after.fanout_syncs - before.fanout_syncs,
            ) / 1e3,
        );
        // The hop: the same frames sent straight to one durable server.
        let direct = Topology::build(TopologyKind::Durable(flush), s.config)?;
        let mut gateway = Gateway::connect(direct.front_addr())?;
        let ring_frames = s.ring.frames() as u64;
        let warm = gateway.run(&s.ring, s.shape.sync_every, |_, f| f >= ring_frames, None);
        let limit = Duration::from_secs_f64(window * WINDOW_PAIRS as f64);
        let run = gateway.run(&s.ring, s.shape.sync_every, |e, _| e >= limit, None);
        if let Some(e) = warm.error.or(run.error) {
            problems.push(format!("direct durable server: {e}"));
        }
        let direct_ns = run.elapsed.as_nanos() as f64 / run.rows_acked.max(1) as f64;
        values.insert("router.hop.ns_per_row", e2e_ns_per_row - direct_ns);
    }

    let span_cost_ns = span_cost_ns();
    let spans = gateway_tracer
        .spans()
        .len()
        .max(dashboard_tracer.spans().len());
    let span_cost_share = span_cost_ns * spans as f64 / traced_ns.max(1) as f64;
    sections.push(("gateway", gateway_tracer));
    sections.push(("dashboard", dashboard_tracer));
    Ok(TopologyTrace {
        e2e_ns_per_row,
        barrier_ns_per_row,
        span_cost_ns,
        span_cost_share,
        attempted,
        failed,
    })
}

/// Frames of the shape the fleet uploads: one user, `slots` consecutive
/// slots, per frame.
fn fleet_stage_ring(seed: u64, users: usize, slots: usize) -> Ring {
    let mut rng = SplitMix64::new(seed);
    let batches: Vec<ReportBatch> = (0..users.min(64) as u64)
        .map(|user| {
            let values: Vec<f64> = (0..slots).map(|_| rng.next_unit()).collect();
            ReportBatch::from_stream(user, 0, &values)
        })
        .collect();
    Ring {
        hash: crate::inputs::hash_batches(&batches),
        batches,
        frame_rows: slots,
        users: users as u64,
    }
}

/// Rows of a sync-sized frame (what `sync_small` sends).
const SYNC_FRAME_ROWS: usize = 1_024;

/// Part (b). Every span is opened by this function around one call into
/// one layer; roots are `frame`, `sync`, `query`, `recover`,
/// `checkpoint`, `publish` and `telemetry`.
fn stage_pass(
    ring: &Ring,
    config: CollectorConfig,
    seed: u64,
    values: &mut Values,
) -> std::io::Result<Tracer> {
    let mut t = Tracer::with_capacity(ring.frames() * 10 + 8_192);
    let log_dir = ScratchDir::create("stage-durable")?;
    let wal_dir = ScratchDir::create("stage-wal")?;
    let log_config = || WalConfig::new(log_dir.path()).flush(FlushPolicy::Barrier);
    let rows = ring.rows();

    // The collector the frames fold into holds this workload's state:
    // every ring frame once, as after the workload's own warm-up.
    let (collector, durability, _) = recover(config, log_config())?;
    for batch in &ring.batches {
        collector.ingest(batch);
    }
    let (mut wal, _) =
        Wal::open(WalConfig::new(wal_dir.path()).flush(FlushPolicy::Barrier)).map_err(invalid)?;

    // frame: gateway chain (encode) then server chain (checksum, decode +
    // widen, WAL append, fold), one frame at a time.
    let mut frame = Vec::new();
    let mut scratch = IngestScratch::default();
    for (i, batch) in ring.batches.iter().enumerate() {
        let i = i as u64;
        let root = t.enter("frame", i);
        let span = t.enter("wire.encode", i);
        frame.clear();
        Frame::encode_ingest_into(black_box(batch), &mut frame);
        t.exit(span);
        let header = Header::parse(frame[..HEADER_LEN].try_into().expect("header length"))
            .map_err(invalid)?;
        let payload = &frame[HEADER_LEN..];
        let span = t.enter("wire.checksum", i);
        header.verify(black_box(payload)).map_err(invalid)?;
        t.exit(span);
        let span = t.enter("wire.decode_widen", i);
        let FrameView::Ingest(view) =
            FrameView::decode_body(header.frame_type, payload).map_err(invalid)?
        else {
            return Err(invalid("an ingest frame decoded as something else"));
        };
        let columns = view.columns(&mut scratch);
        t.exit(span);
        let span = t.enter("wal.append", i);
        wal.append(payload).map_err(invalid)?;
        t.exit(span);
        let span = t.enter("collector.fold", i);
        black_box(collector.ingest_outcome(&columns));
        t.exit(span);
        t.exit(root);
    }

    // The durable server's fused path, on the same frames.
    for (i, batch) in ring.batches.iter().enumerate() {
        frame.clear();
        Frame::encode_ingest_into(batch, &mut frame);
        let span = t.enter("durable.ingest_frame", i as u64);
        durability.ingest_frame(&collector, &frame[HEADER_LEN..], &mut scratch)?;
        t.exit(span);
    }
    durability.barrier()?;

    // sync: one small append, then the barrier an ack waits for.
    let small = {
        let first = &ring.batches[0];
        let n = first.len().min(SYNC_FRAME_ROWS);
        ReportBatch::from_columns(
            first.users()[..n].to_vec(),
            first.slots()[..n].to_vec(),
            first.values()[..n].to_vec(),
        )
    };
    frame.clear();
    Frame::encode_ingest_into(&small, &mut frame);
    let stage_limit = Duration::from_millis(500);
    let started = Instant::now();
    let mut syncs = 0u64;
    while syncs < 200 && (syncs < 20 || started.elapsed() < stage_limit) {
        let root = t.enter("sync", syncs);
        wal.append(&frame[HEADER_LEN..]).map_err(invalid)?;
        let span = t.enter("wal.barrier", syncs);
        wal.barrier().map_err(invalid)?;
        t.exit(span);
        t.exit(root);
        syncs += 1;
    }
    drop(wal);

    // recover: the whole call, and the log scan alone on the same log.
    const RECOVER_PASSES: u64 = 2;
    drop((collector, durability));
    for pass in 0..RECOVER_PASSES {
        let root = t.enter("recover", pass);
        let (recovered, _, report) = recover(config, log_config())?;
        t.exit(root);
        if report.replayed_rows != rows || recovered.total_reports() != rows {
            return Err(invalid(format!(
                "stage recover replayed {} of {rows} rows",
                report.replayed_rows
            )));
        }
    }
    for pass in 0..RECOVER_PASSES {
        let root = t.enter("recover.scan", pass);
        let span = t.enter("wal.open_scan", pass);
        let opened = Wal::open(log_config()).map_err(invalid)?;
        t.exit(span);
        t.exit(root);
        drop(opened);
    }

    // checkpoint: at this workload's state size.
    let (collector, durability, _) = recover(config, log_config())?;
    let mut checkpoint_bytes = 0usize;
    let checkpoints_started = Instant::now();
    for pass in 0..3 {
        // One pass always; more only while they are cheap (restoring a
        // million-user table takes tens of seconds at this commit).
        if pass > 0 && checkpoints_started.elapsed() > Duration::from_secs(1) {
            break;
        }
        let root = t.enter("checkpoint", pass);
        let span = t.enter("collector.checkpoint_encode", pass);
        let blob = collector.encode_checkpoint();
        t.exit(span);
        let span = t.enter("collector.checkpoint_restore", pass);
        let restored = Collector::restore_checkpoint(config, &blob).map_err(invalid)?;
        t.exit(span);
        let span = t.enter("durable.checkpoint", pass);
        durability.checkpoint_now(&collector)?;
        t.exit(span);
        t.exit(root);
        checkpoint_bytes = blob.len();
        drop(restored);
    }

    // query: refresh after one folded frame, the view reads a dashboard
    // cycle makes, and the codec of the four query/reply pairs.
    let engine = QueryEngine::new(&*collector);
    let pairs = query_pairs();
    let mut out = Vec::new();
    const QUERY_PASSES: u64 = 200;
    for pass in 0..QUERY_PASSES {
        collector.ingest(ring.frame(pass));
        let root = t.enter("query", pass);
        let span = t.enter("collector.refresh", pass);
        black_box(engine.refresh());
        t.exit(span);
        let span = t.enter("collector.query", pass);
        let view = engine.view();
        let end = view.slot_end() as usize;
        black_box(view.population_mean());
        black_box(view.windowed_mean(end.saturating_sub(16)..end));
        for slot in end.saturating_sub(64)..end {
            black_box(view.slot_mean(slot));
        }
        t.exit(span);
        let span = t.enter("wire.query_codec", pass);
        for message in &pairs {
            out.clear();
            message.encode_into(&mut out);
            black_box(Frame::decode(black_box(&out), u32::MAX).map_err(invalid)?);
        }
        t.exit(span);
        t.exit(root);
    }

    // telemetry: the per-frame recording cost, and a snapshot of a
    // registry of the server's catalogue size.
    const RECORDS: u64 = 200_000;
    const SNAPSHOTS: u64 = 100;
    let histogram = Histogram::new();
    let counter = Counter::new();
    let root = t.enter("telemetry", 0);
    let span = t.enter("telemetry.record", 0);
    for i in 0..RECORDS {
        histogram.record(black_box(i));
        counter.inc();
    }
    t.exit(span);
    for pass in 0..SNAPSHOTS {
        let span = t.enter("telemetry.snapshot", pass);
        black_box(collector.telemetry().snapshot());
        t.exit(span);
    }
    t.exit(root);
    black_box((histogram.snapshot(), counter.get()));

    // router: the partition key over each frame's user column.
    for (i, batch) in ring.batches.iter().enumerate() {
        let span = t.enter("router.route_key", i as u64);
        black_box(
            batch
                .users()
                .iter()
                .map(|&user| downstream_of(user, 2))
                .sum::<usize>(),
        );
        t.exit(span);
    }

    // publish: the client-side algorithms, SW at eps = 2 and the three
    // feedback rules at eps = 2, w = 10.
    const PERTURB_VALUES: usize = 8_192;
    const STREAM_VALUES: usize = 1_000;
    const PUBLISH_PASSES: u64 = 100;
    let mut unit = SplitMix64::new(seed ^ 0x5EED);
    let flat: Vec<f64> = (0..PERTURB_VALUES).map(|_| unit.next_unit()).collect();
    let stream: Vec<f64> = (0..STREAM_VALUES)
        .map(|i| 0.5 + 0.4 * (i as f64 / 25.0).sin())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let sw = SquareWave::new(2.0).map_err(invalid)?;
    let capp = Capp::new(2.0, 10).map_err(invalid)?;
    let app = App::new(2.0, 10).map_err(invalid)?;
    let ipp = Ipp::new(2.0, 10).map_err(invalid)?;
    let mut perturbed = vec![0.0; PERTURB_VALUES];
    let mut published = Vec::with_capacity(STREAM_VALUES);
    for pass in 0..PUBLISH_PASSES {
        let root = t.enter("publish", pass);
        let span = t.enter("mechanisms.sw_perturb", pass);
        sw.perturb_into(black_box(&flat), &mut perturbed, &mut rng);
        t.exit(span);
        let rules: [(&'static str, &dyn StreamMechanism); 3] = [
            ("core.capp_publish", &capp),
            ("core.app_publish", &app),
            ("core.ipp_publish", &ipp),
        ];
        for (name, rule) in rules {
            let span = t.enter(name, pass);
            rule.publish_into(black_box(&stream), &mut published, &mut rng);
            t.exit(span);
        }
        t.exit(root);
        black_box((&perturbed, &published));
    }

    // Self times to metrics.
    let totals = totals_by_name(t.spans());
    let of = |name: &str| -> NameTotal { totals.get(name).copied().unwrap_or_default() };
    let mut per_row = |metric: &'static str, span: &str, rows: u64| {
        values.insert(metric, per(of(span).self_ns, rows));
    };
    per_row("wire.encode.ns_per_row", "wire.encode", rows);
    per_row("wire.checksum.ns_per_row", "wire.checksum", rows);
    per_row("wire.decode_widen.ns_per_row", "wire.decode_widen", rows);
    per_row("wal.append.ns_per_row", "wal.append", rows);
    per_row("collector.fold.ns_per_row", "collector.fold", rows);
    per_row(
        "durable.ingest_frame.ns_per_row",
        "durable.ingest_frame",
        rows,
    );
    per_row("router.route_key.ns_per_row", "router.route_key", rows);
    per_row(
        "wal.open_scan.ns_per_row",
        "wal.open_scan",
        rows * RECOVER_PASSES,
    );
    per_row(
        "mechanisms.sw_perturb.ns_per_value",
        "mechanisms.sw_perturb",
        PERTURB_VALUES as u64 * PUBLISH_PASSES,
    );
    let stream_values = STREAM_VALUES as u64 * PUBLISH_PASSES;
    per_row(
        "core.capp_publish.ns_per_value",
        "core.capp_publish",
        stream_values,
    );
    per_row(
        "core.app_publish.ns_per_value",
        "core.app_publish",
        stream_values,
    );
    per_row(
        "core.ipp_publish.ns_per_value",
        "core.ipp_publish",
        stream_values,
    );
    per_row(
        "wire.query_codec.ns_per_op",
        "wire.query_codec",
        QUERY_PASSES * pairs.len() as u64 / 2,
    );
    per_row("collector.query.ns_per_op", "collector.query", QUERY_PASSES);
    per_row("telemetry.record.ns_per_op", "telemetry.record", RECORDS);
    values.insert(
        "durable.replay.ns_per_row",
        per(
            of("recover")
                .self_ns
                .saturating_sub(of("wal.open_scan").self_ns),
            rows * RECOVER_PASSES,
        ),
    );
    let mut per_op = |metric: &'static str, span: &str, scale: f64| {
        values.insert(metric, per(of(span).self_ns, of(span).count) / scale);
    };
    per_op("wal.barrier.us_per_op", "wal.barrier", 1e3);
    per_op("collector.refresh.us_per_op", "collector.refresh", 1e3);
    per_op("telemetry.snapshot.us_per_op", "telemetry.snapshot", 1e3);
    per_op(
        "collector.checkpoint_encode.ms_per_op",
        "collector.checkpoint_encode",
        1e6,
    );
    per_op(
        "collector.checkpoint_restore.ms_per_op",
        "collector.checkpoint_restore",
        1e6,
    );
    per_op("durable.checkpoint.ms_per_op", "durable.checkpoint", 1e6);
    values.insert("collector.checkpoint.bytes", checkpoint_bytes as f64);
    Ok(t)
}

/// The four dashboard requests, each followed by its reply.
fn query_pairs() -> Vec<Frame> {
    vec![
        Frame::QueryPopulationMean,
        Frame::PopulationMean { mean: Some(0.5) },
        Frame::QuerySummary,
        Frame::Summary(SummaryBody {
            total_reports: 1 << 24,
            user_count: 10_000,
            retained_base: 0,
            slot_end: RING_SLOTS,
            frozen_count: 0,
            population_mean: Some(0.5),
        }),
        Frame::QueryWindowedMean {
            start: RING_SLOTS - 16,
            end: RING_SLOTS,
        },
        Frame::WindowedMean { mean: Some(0.5) },
        Frame::QuerySlotMeans {
            start: RING_SLOTS - 64,
            end: RING_SLOTS,
        },
        Frame::SlotMeans {
            start: RING_SLOTS - 64,
            means: (0..64).map(|i| Some(f64::from(i) / 64.0)).collect(),
        },
    ]
}

/// Prints one thread's chain of stages (plus `extra` rows that are not
/// stage-pass metrics) and returns its sum.
fn chain(
    lines: &mut Vec<String>,
    values: &Values,
    title: &str,
    stages: &[&str],
    extra: &[(&str, f64)],
) -> f64 {
    let costs = stages.iter().map(|stage| {
        let cost = values
            .get(format!("{stage}.ns_per_row").as_str())
            .copied()
            .unwrap_or(0.0);
        (*stage, cost)
    });
    let mut sum = 0.0;
    for (i, (name, cost)) in costs.chain(extra.iter().copied()).enumerate() {
        sum += cost;
        let title = if i == 0 { title } else { "" };
        lines.push(format!("  {title:<14} {name:<32} {cost:>9.2}"));
    }
    lines.push(format!("  {:<14} {:<32} {sum:>9.2}", "", "= chain sum"));
    sum
}

/// The stage budget: stage ns/row summed per thread chain against the
/// end-to-end ns/row of the untraced window, with the residual shown.
fn stage_table(
    workload: &Workload,
    ring: &Ring,
    values: &Values,
    topo: &TopologyTrace,
) -> Vec<String> {
    let v = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let mut lines = vec![format!(
        "stage budget for {} ({} rows/frame, {} users), ns per row:",
        workload.name, ring.frame_rows, ring.users
    )];
    let e2e = topo.e2e_ns_per_row;
    let slowest = match workload.kind {
        Kind::Socket(shape) => {
            const SERVER: [&str; 3] = ["wire.checksum", "wire.decode_widen", "collector.fold"];
            const DURABLE: [&str; 4] = [
                "wire.checksum",
                "wire.decode_widen",
                "wal.append",
                "collector.fold",
            ];
            // On a durable server the ack also waits for the fsync
            // barrier, which runs on the serving thread.
            let barrier = [("ack barrier (wal.flush_nanos)", topo.barrier_ns_per_row)];
            let gateway = chain(&mut lines, values, "gateway", &["wire.encode"], &[]);
            let server = match shape.topology {
                TopologyKind::Plain => chain(&mut lines, values, "server", &SERVER, &[]),
                TopologyKind::Durable(_) => chain(&mut lines, values, "server", &DURABLE, &barrier),
                TopologyKind::Routed { downstreams, .. } => {
                    let router = chain(
                        &mut lines,
                        values,
                        "router",
                        &[
                            "wire.checksum",
                            "wire.decode_widen",
                            "router.route_key",
                            "wire.encode",
                        ],
                        &[],
                    );
                    // The downstreams work side by side, each on its
                    // share of the rows.
                    let downstream = chain(&mut lines, values, "downstream", &DURABLE, &barrier);
                    router.max(downstream / downstreams as f64)
                }
            };
            if shape.sync_every == 1 {
                // Every frame waits for its own ack: nothing overlaps, so
                // the chains add up instead of racing.
                gateway + server
            } else {
                gateway.max(server)
            }
        }
        Kind::Recover { .. } => chain(
            &mut lines,
            values,
            "recover",
            &["wal.open_scan", "durable.replay"],
            &[],
        ),
        Kind::Fleet { .. } => {
            // Each fleet thread perturbs a device's stream, then folds
            // it; the threads split the cohort.
            let publish = [(
                "core.capp_publish (per value)",
                v("core.capp_publish.ns_per_value"),
            )];
            let device = chain(
                &mut lines,
                values,
                "fleet thread",
                &["collector.fold"],
                &publish,
            );
            device / ldp_collector::default_parallelism().min(2) as f64
        }
    };
    lines.push(format!(
        "  end to end {e2e:.2} ns/row (1e9 / rows_per_s, median untraced window); blocking chain {slowest:.2}; \
         unattributed {:.2}",
        e2e - slowest
    ));
    if matches!(workload.kind, Kind::Socket(_)) {
        lines.push(format!(
            "  servers' own books: decode {:.2} + fold {:.2} ns/row; serve.residual.ns_per_row {:.2}",
            v("serve.decode.reported_ns_per_row"),
            v("serve.fold.reported_ns_per_row"),
            v("serve.residual.ns_per_row")
        ));
    }
    lines.push(format!(
        "  tracing overhead {:.2}% of rows_per_s (untraced vs traced windows); the spans themselves cost \
         {:.0} ns each, {:.3}% of the traced windows",
        v("loadgen.trace_overhead_pct"),
        topo.span_cost_ns,
        topo.span_cost_share * 100.0
    ));
    lines
}
