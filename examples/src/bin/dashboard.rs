//! Dashboard demo: the paper's collector as a deployment shows it — live
//! crowd answers and the server's own books, read over the wire.
//!
//! An `ldp-server` serves a collector that keeps the last 32 slots over
//! loopback TCP while a fleet of CAPP clients streams perturbed reports
//! into it. The dashboard is a separate connection that reads exactly two
//! replies per tick:
//!
//! * `QueryParts` over every slot, merged client-side with
//!   `MergedParts::merge` — the reports, users, retained slots and the
//!   latest-slot, window and population means all come from that one
//!   merge, the same function every tier answers its own verbs with;
//! * `QueryMetrics` — connections, frames ok/failed, the server-measured
//!   fold and decode latency quantiles, and the shard imbalance.
//!
//! After the drive, one hot connection sends mixed 16,384-row batches,
//! which clear the collector's default parallel-fold threshold and engage
//! the work-stealing pool; then the whole metric catalog is printed. The
//! demo prints answers and counts, never a rate (the repo benchmark
//! measures speed), and checks its own books: it panics if the merged
//! user count or report total disagrees with what the fleet and the syncs
//! acknowledged, or if any frame failed.
//!
//! Run: `cargo run --release -p ldp-examples --bin dashboard`

use ldp_collector::{
    ClientFleet, Collector, CollectorConfig, FleetConfig, MergedParts, ReportBatch, SlotRetention,
};
use ldp_core::{PipelineSpec, SessionKind};
use ldp_server::{drive_fleet_remote, RemoteCollector, Server, ServerConfig};
use ldp_streams::synthetic::taxi_population;
use ldp_telemetry::{HistogramSnapshot, MetricValue, TelemetrySnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let (users, slots) = (20_000, 240);
    let (epsilon, w, retain) = (2.0, 16, 32);
    let population = taxi_population(users, slots, 42);

    let collector = Arc::new(Collector::new(CollectorConfig {
        retention: SlotRetention::Last(retain),
        // Several shards and at least one stealing worker even on a small
        // machine, so the burst below always has a pool to engage.
        shards: ldp_collector::default_parallelism().clamp(4, 16),
        ingest_workers: ldp_collector::default_ingest_workers().max(1),
        ..CollectorConfig::default()
    }));
    let server =
        Server::bind(Arc::clone(&collector), ServerConfig::default()).expect("bind loopback");
    let fleet = ClientFleet::new(FleetConfig {
        spec: PipelineSpec::sw(SessionKind::Capp),
        epsilon,
        w,
        seed: 7,
        threads: ldp_collector::default_parallelism(),
    });
    let mut dash = RemoteCollector::connect(server.local_addr()).expect("dashboard connect");

    println!(
        "{users} users × {slots} slots over framed TCP {}, w = {w}, retention = last {retain} slots",
        server.local_addr(),
    );
    println!(
        "\n  tick   reports   users  retained  latest-slot  window mean  population  \
         conns  frames ok/failed  fold p50/p99 ns  decode p50/p99 ns  shard imbalance"
    );

    let done = AtomicBool::new(false);
    let driven = std::thread::scope(|scope| {
        let drive = scope.spawn(|| {
            let n = drive_fleet_remote(&fleet, &population, 0..slots, server.local_addr())
                .expect("loopback fleet drive");
            done.store(true, Ordering::Release);
            n
        });
        let mut tick = 0u64;
        while !done.load(Ordering::Acquire) {
            tick += 1;
            print_row(&tick.to_string(), &mut dash, w);
            std::thread::sleep(Duration::from_millis(50));
        }
        drive.join().expect("fleet thread")
    });
    let merged = print_row("end", &mut dash, w);
    assert_eq!(
        merged.user_count(),
        users as u64,
        "every fleet user is seen"
    );
    let truth = ldp_core::crowd::true_windowed_population_mean(&population, 0..slots);
    println!(
        "\n{driven} reports acknowledged; population mean {:.4} vs ground truth {truth:.4}",
        merged.population_mean().expect("users reported"),
    );

    // Fleet uploads are single-user batches, which fold on one shard; a
    // hot connection carrying large mixed batches is what the pool is for.
    let mut hot = RemoteCollector::connect(server.local_addr()).expect("hot connect");
    let mut state = 0x0123_4567_89AB_CDEFu64;
    for _ in 0..16 {
        let mut batch = ReportBatch::with_capacity(16_384);
        for i in 0..16_384u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            batch.push(
                state >> 40,
                i % retain,
                ((state >> 11) % 4096) as f64 / 4096.0,
            );
        }
        hot.ingest(&batch).expect("hot ingest");
    }
    let burst = hot.sync().expect("hot sync").accepted;

    let merged = merge_all(&mut dash);
    let snap = dash.metrics().expect("metrics query");
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(
        merged.total_reports(),
        driven + burst,
        "the collector holds every acknowledged row"
    );
    assert_eq!(count("server.frames.failed"), 0, "no frame failed");
    assert!(
        count("collector.pool.runs") > 0,
        "the burst engaged the pool"
    );
    println!(
        "hot-connection burst: {burst} mixed reports; pool runs {}, stolen {}; \
         {} reports held in all",
        count("collector.pool.runs"),
        count("collector.pool.steals"),
        merged.total_reports(),
    );

    println!("\nfull metric catalog ({} metrics):", snap.entries.len());
    for entry in &snap.entries {
        match &entry.value {
            MetricValue::Counter(v) => println!("  {:<44} counter    {v}", entry.name),
            MetricValue::Gauge(v) => println!("  {:<44} gauge      {v}", entry.name),
            MetricValue::Histogram(h) => {
                println!(
                    "  {:<44} histogram  n={} {}",
                    entry.name,
                    h.count(),
                    quantiles(h)
                );
            }
        }
    }
}

/// The collector's whole state as one merged `Parts` reply.
fn merge_all(dash: &mut RemoteCollector) -> MergedParts {
    let part = dash.query_parts(0..u64::MAX).expect("parts query");
    MergedParts::merge(std::slice::from_ref(&part))
}

/// One dashboard line from the two replies of a tick. Returns the merge,
/// for the caller's checks.
fn print_row(tick: &str, dash: &mut RemoteCollector, w: usize) -> MergedParts {
    let merged = merge_all(dash);
    let snap = dash.metrics().expect("metrics query");
    let end = merged.slot_end() as usize;
    let window = end.saturating_sub(w).max(merged.start() as usize)..end;
    let mean = |v: Option<f64>| v.map_or_else(|| "--".into(), |m| format!("{m:.4}"));
    let p50_p99 = |name: &str| match snap
        .histogram(name)
        .and_then(|h| Some((h.p50()?, h.p99()?)))
    {
        Some((p50, p99)) => format!("{p50}/{p99}"),
        None => "--".into(),
    };
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    println!(
        "  {tick:>4}  {:>8}  {:>6}  {:>8}  {:>11}  {:>11}  {:>10}  {:>5}  {:>16}  {:>15}  {:>17}  {:>14.2}×",
        merged.total_reports(),
        merged.user_count(),
        merged.slot_count(),
        mean(end.checked_sub(1).and_then(|last| merged.slot_mean(last))),
        mean(merged.windowed_mean(window)),
        mean(merged.population_mean()),
        snap.gauge("server.connections.active").unwrap_or(0),
        format!("{}/{}", count("server.frames.decoded"), count("server.frames.failed")),
        p50_p99("collector.ingest.fold_nanos"),
        p50_p99("server.frame.decode_nanos"),
        shard_imbalance(&snap),
    );
    merged
}

/// Max/mean ratio of per-shard batch counts: 1.00× is a perfectly even
/// spread, higher means some shards fold more batches than others.
fn shard_imbalance(snap: &TelemetrySnapshot) -> f64 {
    let counts: Vec<u64> = snap
        .entries
        .iter()
        .filter(|e| e.name.starts_with("collector.shard.") && e.name.ends_with(".batches"))
        .filter_map(|e| match e.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        })
        .collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let max = counts.iter().copied().max().unwrap_or(0);
    max as f64 * counts.len() as f64 / total as f64
}

fn quantiles(h: &HistogramSnapshot) -> String {
    match (h.p50(), h.p90(), h.p99()) {
        (Some(p50), Some(p90), Some(p99)) => {
            format!("p50≤{p50} p90≤{p90} p99≤{p99} max={}", h.max())
        }
        _ => "(empty)".into(),
    }
}
