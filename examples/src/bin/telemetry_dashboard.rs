//! Telemetry dashboard demo: the wire-served metrics snapshot, live.
//!
//! An `ldp-server` serves a collector over loopback TCP while a client
//! fleet streams perturbed reports into it. The main thread is a
//! telemetry dashboard on its own connection: each tick it pulls the full
//! `MetricsSnapshot` frame (`RemoteCollector::metrics`) and renders what
//! the hand-picked stats frame cannot carry — latency *distributions*
//! (p50/p90/p99 of the collector's fold and the server's frame decode),
//! per-shard batch counts (ingest imbalance), and transport byte rates.
//! A final hot-connection burst of large mixed batches engages the
//! work-stealing fold pool, so the `collector.pool.*` metrics and the
//! `fold_parallel_nanos` histogram show up live too. After the run it
//! dumps the whole metric catalog, so the output doubles as a reference
//! for what the registry exports.
//!
//! Run: `cargo run --release -p ldp-examples --bin telemetry_dashboard`

use ldp_collector::{ClientFleet, Collector, CollectorConfig, FleetConfig, SlotRetention};
use ldp_core::{PipelineSpec, SessionKind};
use ldp_server::{drive_fleet_remote, RemoteCollector, Server, ServerConfig};
use ldp_streams::synthetic::taxi_population;
use ldp_telemetry::{HistogramSnapshot, MetricValue, TelemetrySnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let (users, slots) = (20_000, 240);
    let (epsilon, w, retain) = (2.0, 16, 32);
    let population = taxi_population(users, slots, 42);

    let collector = Arc::new(Collector::new(CollectorConfig {
        retention: SlotRetention::Last(retain),
        // At least one stealing worker and several shards even on a
        // small machine, and a threshold the burst below clears, so the
        // demo always exercises the parallel fold path.
        shards: ldp_collector::default_parallelism().clamp(4, 16),
        ingest_workers: ldp_collector::default_ingest_workers().max(1),
        parallel_fold_min: 8_192,
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

    println!(
        "{users} users × {slots} slots over framed TCP {} — live MetricsSnapshot polling",
        server.local_addr(),
    );
    println!(
        "\n  elapsed   reports/s    MiB/s in   fold p50/p99      decode p50/p99    shard imbalance"
    );

    let done = AtomicBool::new(false);
    let start = Instant::now();
    let uploaded = std::thread::scope(|scope| {
        let ingest = scope.spawn(|| {
            let n = drive_fleet_remote(&fleet, &population, 0..slots, server.local_addr())
                .expect("loopback fleet drive");
            done.store(true, Ordering::Release);
            n
        });
        let mut dash = RemoteCollector::connect(server.local_addr()).expect("dashboard connect");
        let (mut last_accepted, mut last_bytes, mut last_t) = (0u64, 0u64, start);
        while !done.load(Ordering::Acquire) {
            let snap = dash.metrics().expect("metrics query");
            let now = Instant::now();
            let accepted = snap.counter("collector.reports.accepted").unwrap_or(0);
            let bytes_in = snap.counter("server.bytes.in").unwrap_or(0);
            let dt = now.duration_since(last_t).as_secs_f64().max(1e-9);
            print_row(
                start,
                &snap,
                (accepted - last_accepted) as f64 / dt,
                (bytes_in - last_bytes) as f64 / dt,
            );
            (last_accepted, last_bytes, last_t) = (accepted, bytes_in, now);
            std::thread::sleep(Duration::from_millis(50));
        }
        ingest.join().expect("ingest thread")
    });

    let elapsed = start.elapsed();
    println!(
        "\n{uploaded} reports in {elapsed:.2?} ({:.1}M reports/s) through the wire path",
        uploaded as f64 / elapsed.as_secs_f64() / 1e6,
    );

    // Fleet uploads are single-user batches (uniform, one-shard folds);
    // a hot connection carrying large *mixed* batches is what the
    // work-stealing pool is for. Burst a few through so the pool metrics
    // below are live numbers, not zeros.
    let mut hot = RemoteCollector::connect(server.local_addr()).expect("hot connect");
    let mut state = 0x0123_4567_89AB_CDEFu64;
    for _ in 0..16 {
        let mut batch = ldp_collector::ReportBatch::with_capacity(16_384);
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
    let burst = hot.sync().expect("hot sync");

    let mut dash = RemoteCollector::connect(server.local_addr()).expect("dashboard connect");
    let snap = dash.metrics().expect("final metrics query");
    let pool_runs = snap.counter("collector.pool.runs").unwrap_or(0);
    let steals = snap.counter("collector.pool.steals").unwrap_or(0);
    let steal_rate = if pool_runs > 0 {
        100.0 * steals as f64 / pool_runs as f64
    } else {
        0.0
    };
    println!(
        "\nwork-stealing fold pool (hot-connection burst of {} mixed reports):",
        burst.accepted
    );
    println!(
        "  runs dispatched {pool_runs}, stolen {steals} ({steal_rate:.0}%); \
         queue depth now {}, busy workers now {}",
        snap.gauge("collector.pool.queue_depth").unwrap_or(0),
        snap.gauge("collector.pool.workers_busy").unwrap_or(0),
    );
    if let Some(h) = snap.histogram("collector.ingest.fold_parallel_nanos") {
        println!("  parallel fold {}", quantiles(h));
    }

    println!("\nfull metric catalog ({} metrics):", snap.entries.len());
    for entry in &snap.entries {
        match &entry.value {
            MetricValue::Counter(v) => println!("  {:<44} counter    {v}", entry.name),
            MetricValue::Gauge(v) => println!("  {:<44} gauge      {v}", entry.name),
            MetricValue::Histogram(h) => println!(
                "  {:<44} histogram  n={} {}",
                entry.name,
                h.count(),
                quantiles(h),
            ),
        }
    }
}

fn print_row(start: Instant, snap: &TelemetrySnapshot, report_rate: f64, byte_rate: f64) {
    let fold = snap.histogram("collector.ingest.fold_nanos");
    let decode = snap.histogram("server.frame.decode_nanos");
    let fmt_h = |h: Option<&HistogramSnapshot>| match h.and_then(|h| Some((h.p50()?, h.p99()?))) {
        Some((p50, p99)) => format!("{:>6}/{:<6}µs", p50 / 1_000, p99 / 1_000),
        None => "        --    ".into(),
    };
    println!(
        "  {:>7.0?}  {:>9.2}M   {:>8.1}   {}   {}   {:>8.2}×",
        start.elapsed(),
        report_rate / 1e6,
        byte_rate / (1 << 20) as f64,
        fmt_h(fold),
        fmt_h(decode),
        shard_imbalance(snap),
    );
}

/// Max/mean ratio of per-shard batch counts: 1.00× is a perfectly even
/// spread, higher means some shards are doing more folding than others.
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
    if counts.is_empty() || total == 0 {
        return 1.0;
    }
    let mean = total as f64 / counts.len() as f64;
    *counts.iter().max().expect("non-empty") as f64 / mean
}

fn quantiles(h: &HistogramSnapshot) -> String {
    match (h.p50(), h.p90(), h.p99()) {
        (Some(p50), Some(p90), Some(p99)) => {
            format!("p50≤{p50} p90≤{p90} p99≤{p99} max={}", h.max())
        }
        _ => "(empty)".into(),
    }
}
