//! Remote dashboard demo: the full network deployment shape on one box.
//!
//! An `ldp-server` serves a retention-bounded collector over loopback
//! TCP; a client fleet streams perturbed reports into it through
//! `RemoteCollector` connections (one per worker); and the main thread is
//! a *remote* dashboard — a separate connection polling the query frames
//! (summary, windowed mean, population mean) and the server's operational
//! counters (accepted/dropped/rejected reports, connections, frames
//! decoded/failed) while ingest runs.
//!
//! Run: `cargo run --release -p ldp-examples --bin remote_dashboard`

use ldp_collector::{ClientFleet, Collector, CollectorConfig, FleetConfig, SlotRetention};
use ldp_core::{PipelineSpec, SessionKind};
use ldp_server::{drive_fleet_remote, RemoteCollector, Server, ServerConfig};
use ldp_streams::synthetic::taxi_population;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let (users, slots) = (20_000, 240);
    let (epsilon, w, retain) = (2.0, 16, 32);
    let population = taxi_population(users, slots, 42);

    let collector = Arc::new(Collector::new(CollectorConfig {
        retention: SlotRetention::Last(retain),
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
        "{users} users × {slots} slots over framed TCP {}, w = {w}, retention = last {retain} slots",
        server.local_addr(),
    );
    println!(
        "\n  elapsed   reports   conns   frames(ok/bad)   window mean   population mean   queries"
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
        // The dashboard: its own connection, polling queries + counters.
        let mut dash = RemoteCollector::connect(server.local_addr()).expect("dashboard connect");
        while !done.load(Ordering::Acquire) {
            print_row(start, &mut dash, w);
            std::thread::sleep(Duration::from_millis(25));
        }
        ingest.join().expect("ingest thread")
    });
    let mut dash = RemoteCollector::connect(server.local_addr()).expect("dashboard connect");
    print_row(start, &mut dash, w);

    let elapsed = start.elapsed();
    let stats = dash.server_stats().expect("stats");
    let summary = dash.summary().expect("summary");
    println!(
        "\n{uploaded} reports in {elapsed:.2?} ({:.1}M reports/s) through the wire path",
        uploaded as f64 / elapsed.as_secs_f64() / 1e6,
    );
    println!(
        "server counters: {} accepted, {} dropped, {} rejected ({} upstream); \
         {} connections total ({} refused); {} frames decoded, {} failed; {} queries",
        stats.accepted_reports,
        stats.dropped_reports,
        stats.rejected_reports,
        stats.upstream_rejected_reports,
        stats.total_connections,
        stats.rejected_connections,
        stats.frames_decoded,
        stats.frames_failed,
        stats.queries_answered,
    );
    println!(
        "wire transport: {} ingest frames, {:.1} MiB in, {:.1} MiB out",
        stats.ingest_frames,
        stats.bytes_in as f64 / (1 << 20) as f64,
        stats.bytes_out as f64 / (1 << 20) as f64,
    );
    let metrics = dash.metrics().expect("metrics");
    if let Some(fold) = metrics.histogram("collector.ingest.fold_nanos") {
        println!(
            "ingest fold latency: p99 ≤ {}µs over {} batches (p50 ≤ {}µs, max {}µs)",
            fold.p99().unwrap_or(0) / 1_000,
            fold.count(),
            fold.p50().unwrap_or(0) / 1_000,
            fold.max() / 1_000,
        );
    }
    let truth = ldp_core::crowd::true_windowed_population_mean(&population, 0..slots);
    println!(
        "population mean: remote estimate {:.4} vs ground truth {:.4} ({} users seen)",
        summary.population_mean.unwrap_or(f64::NAN),
        truth,
        summary.user_count,
    );
}

fn print_row(start: Instant, dash: &mut RemoteCollector, w: usize) {
    let summary = dash.summary().expect("summary query");
    let stats = dash.server_stats().expect("stats query");
    let end = summary.slot_end;
    let from = end.saturating_sub(w as u64).max(summary.retained_base);
    let window = if from < end {
        dash.windowed_mean(from..end).expect("windowed query")
    } else {
        None
    };
    let fmt = |v: Option<f64>| v.map_or_else(|| "    --".into(), |m| format!("{m:.4}"));
    println!(
        "  {:>7.0?}  {:>8}   {:>5}   {:>6}/{:<3}      {:>11}   {:>15}   {:>7}",
        start.elapsed(),
        summary.total_reports,
        stats.active_connections,
        stats.frames_decoded,
        stats.frames_failed,
        fmt(window),
        fmt(summary.population_mean),
        stats.queries_answered,
    );
}
