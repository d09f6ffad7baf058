//! Wire-path scaling with the work-stealing parallel shard fold: the
//! reports/s **one hot connection** sustains as fold parallelism grows.
//!
//! One ingest connection uploads pre-generated large batches (big enough
//! to clear `parallel_fold_min`); the run is repeated for a sweep of
//! worker counts over two workloads:
//!
//! * **resident** — a 10k-user universe whose user table stays cache-
//!   resident, the same shape `server_load` guards. Decode dominates
//!   here, so this is where the *serial floor* is asserted: the pool
//!   being compiled in (and folding through `fold_run`) must not cost
//!   the single-worker baseline its existing 12M reports/s.
//! * **crowd** — a 1M-user universe, too big for cache, so the fold —
//!   one user-table miss per report, a block of them in flight at once
//!   per folding thread (`ShardAccumulator::ingest_rows`) — dominates
//!   the wire path. This is the regime the pool exists for, and where
//!   the *scaling bar* is asserted.
//!
//! "Workers" counts **threads folding a batch**: `1` is the connection
//! thread folding alone (`ingest_workers = 0`, the serial baseline every
//! earlier PR measured); `4` is the connection thread plus three
//! stealing pool workers (`ingest_workers = 3`).
//!
//! Run: `cargo bench -p ldp-bench --bench ingest_scaling`. Scale with
//! `LDP_BENCH_REPORTS` (default 6M per workload), `LDP_BENCH_BATCH`
//! (default 65,536 — must clear `parallel_fold_min` or every fold stays
//! serial), `LDP_BENCH_SHARDS` (default 8), `LDP_BENCH_RETENTION`
//! (default 256). `LDP_INGEST_WORKERS=N` adds `N + 1` fold threads to
//! the sweep (the CI smoke step sets 2).
//!
//! At full scale the run **asserts**: the resident single-worker rate
//! holds the existing 12M reports/s floor (`LDP_BENCH_MIN_RATE`
//! overrides), and — on machines with ≥4 available cores — 4 fold
//! threads reach ≥2× the single-worker rate on the crowd workload
//! (`LDP_BENCH_MIN_SCALING` overrides). Runs below 1M reports skip both
//! assertions; smoke sizes are dominated by startup.

use ldp_collector::{default_parallelism, Collector, CollectorConfig, ReportBatch, SlotRetention};
use ldp_server::{RemoteCollector, Server, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Drives the whole workload through one connection against a fresh
/// collector with `fold_threads - 1` pool workers; returns reports/s.
fn run_sweep_point(
    workload: &[ReportBatch],
    reports: usize,
    shards: usize,
    retention: u64,
    fold_threads: usize,
) -> f64 {
    let collector = Arc::new(Collector::new(CollectorConfig {
        shards,
        retention: SlotRetention::Last(retention),
        ingest_workers: fold_threads - 1,
        ..CollectorConfig::default()
    }));
    let mut server = Server::bind(Arc::clone(&collector), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let mut client = RemoteCollector::connect(addr).expect("connect");
    let start = Instant::now();
    for batch in workload {
        client.ingest(batch).expect("ingest frame");
    }
    let accepted = client.sync().expect("sync").accepted;
    let elapsed = start.elapsed();
    assert_eq!(accepted, reports as u64, "every report must be accepted");
    assert_eq!(collector.total_reports(), accepted);
    assert_eq!(server.stats().frames_failed, 0);

    let rate = accepted as f64 / elapsed.as_secs_f64();
    let snap = collector.telemetry().snapshot();
    let pooled_runs = snap.counter("collector.pool.runs").unwrap_or(0);
    let steals = snap.counter("collector.pool.steals").unwrap_or(0);
    if fold_threads > 1 {
        assert!(
            pooled_runs > 0,
            "pool configured but no batch dispatched — is the batch size \
             below parallel_fold_min?"
        );
    }
    println!(
        "fold-threads={fold_threads:<2} {accepted:>9} reports in {elapsed:>9.2?}  \
         ({rate:>11.0} reports/s)  pool runs={pooled_runs} steals={steals}",
    );
    server.shutdown();
    rate
}

fn main() {
    let total_reports = env_usize("LDP_BENCH_REPORTS", 6_000_000);
    let batch_size = env_usize("LDP_BENCH_BATCH", 65_536);
    let shards = env_usize("LDP_BENCH_SHARDS", 8).max(2);
    let retention = env_usize("LDP_BENCH_RETENTION", 256) as u64;
    let batches = total_reports.div_ceil(batch_size);
    let reports = batches * batch_size;
    let cores = default_parallelism();
    let full_scale = reports >= 1_000_000;

    // Fold-thread sweep: serial baseline, 2, 4, plus whatever the
    // LDP_INGEST_WORKERS override asks for (as workers + the submitter).
    let mut sweep = vec![1usize, 2, 4];
    if let Some(w) = std::env::var("LDP_INGEST_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        sweep.push(w + 1);
    }
    sweep.sort_unstable();
    sweep.dedup();

    let workloads: [(&str, u64); 2] = [("resident", 10_000), ("crowd", 1_000_000)];
    let mut measured: Vec<(&str, usize, f64)> = Vec::new();
    for (label, users) in workloads {
        eprintln!(
            "# ingest scaling [{label}]: 1 conn x {batches} batches x {batch_size} reports = \
             {reports} reports, {users} users, {shards} shards, {cores} cores, fold threads \
             {sweep:?}"
        );
        // One shared workload per regime, pre-generated: every sweep
        // point replays the exact same bytes through the exact same wire
        // path; only the fold parallelism changes.
        let gen_start = Instant::now();
        let workload: Vec<ReportBatch> = (0..batches)
            .map(|b| {
                let mut state = 0x9E37_79B9u64.wrapping_add(b as u64);
                let mut batch = ReportBatch::with_capacity(batch_size);
                let slot = (b % 4096) as u64;
                for _ in 0..batch_size {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1442695040888963407);
                    let user = (state >> 33) % users;
                    let value = ((state >> 11) % 2048) as f64 / 2048.0;
                    batch.push(user, slot, value);
                }
                batch
            })
            .collect();
        eprintln!("# batches generated in {:.2?}", gen_start.elapsed());

        for &fold_threads in &sweep {
            let rate = run_sweep_point(&workload, reports, shards, retention, fold_threads);
            measured.push((label, fold_threads, rate));
        }
        let base = measured
            .iter()
            .find(|&&(l, p, _)| l == label && p == 1)
            .map(|&(_, _, r)| r)
            .expect("serial baseline in sweep");
        for &(l, p, rate) in measured.iter().filter(|&&(l, _, _)| l == label) {
            println!(
                "scaling [{l}] fold-threads={p:<2} {:.2}M reports/s  ({:.2}x vs serial)",
                rate / 1e6,
                rate / base
            );
        }
    }

    let rate_of = |label: &str, p: usize| {
        measured
            .iter()
            .find(|&&(l, q, _)| l == label && q == p)
            .map(|&(_, _, r)| r)
    };

    // Serial (single-worker) floor on the resident workload: the pool
    // being *compiled in and configured off* must not cost the baseline
    // anything.
    let resident_base = rate_of("resident", 1).expect("resident baseline");
    let min_rate = std::env::var("LDP_BENCH_MIN_RATE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(if full_scale { 12e6 } else { 0.0 });
    assert!(
        resident_base >= min_rate,
        "single-worker wire-path throughput regressed: {resident_base:.0} reports/s < \
         floor {min_rate:.0}"
    );
    // Scaling bar on the crowd workload, gated on hardware that can
    // express it: with ≥4 cores, 4 fold threads must at least double the
    // single-connection rate. The serial rate this divides by rose when
    // the fold became block-probed (one thread now overlaps its own
    // misses, ~1.3-1.9x on the 2-core box that change was measured on),
    // so the ratio has less room than when 2.0 was set; the bar has not
    // been re-measured on a ≥4-core machine since and is deliberately
    // not loosened unmeasured.
    if let (Some(base), Some(at4)) = (rate_of("crowd", 1), rate_of("crowd", 4)) {
        let min_scaling = std::env::var("LDP_BENCH_MIN_SCALING")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(2.0);
        if full_scale && cores >= 4 {
            assert!(
                at4 >= min_scaling * base,
                "parallel fold scaling regressed: {at4:.0} reports/s at 4 fold threads is \
                 {:.2}x the serial {base:.0}, below the {min_scaling:.1}x bar",
                at4 / base
            );
        } else {
            eprintln!(
                "# scaling assertion skipped ({}): 4-thread crowd rate measured at {:.2}x serial",
                if full_scale {
                    "needs >=4 cores"
                } else {
                    "smoke scale"
                },
                at4 / base
            );
        }
    }
}
