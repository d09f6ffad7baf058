//! The six workloads: set-up, the timed end-to-end window, and the
//! correctness gates every run must pass.

use crate::inputs::{Hasher64, Ring, RING_SLOTS};
use crate::loadgen::{run_dashboard, DashboardRun, Gateway, GatewayRun};
use crate::spec::{Kind, SocketShape, Workload, CANONICAL_FRAME_ROWS};
use crate::stats::{slice_rates, summarize_latency, LatencySummary};
use crate::topology::{collector_config, ScratchDir, Topology, TopologyKind};
use crate::trace::Tracer;
use ldp_collector::{ClientFleet, Collector, CollectorConfig, FleetConfig, SlotRetention};
use ldp_core::{PipelineSpec, SessionKind};
use ldp_server::wire::{Frame, IngestScratch, HEADER_LEN};
use ldp_server::{recover, FlushPolicy, RemoteCollector, WalConfig};
use ldp_streams::synthetic::taxi_population;
use ldp_streams::Population;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Width of the slices `rows_per_s` is reduced from.
const RATE_SLICE_SECONDS: f64 = 0.5;

/// What the dashboard beside `sync_small`'s gateway saw.
#[derive(Debug, Clone, Copy)]
pub struct DashboardStats {
    pub queries_per_s: f64,
    pub latency: LatencySummary,
}

/// The end-to-end result of one timed window.
#[derive(Debug)]
pub struct EndToEnd {
    /// What the run's `rows_per_s` is reduced from: the rate of each
    /// half-second slice of the window, or of each call where one call
    /// fills a tenth of a slice (`recover`).
    pub rate_samples: Vec<f64>,
    /// The window's acknowledgement waits, pooled.
    pub ack: LatencySummary,
    /// Present on the workload that reads beside its writes.
    pub dashboard: Option<DashboardStats>,
    /// Operations attempted: frames, syncs, queries, recover or drive calls.
    pub attempted: u64,
    /// Operations that failed, were refused, or whose rows were lost.
    pub failed: u64,
    /// Rows (or values) the window carried.
    pub rows: u64,
    /// Correctness gates that did not hold; empty on a correct run.
    pub problems: Vec<String>,
}

/// Workload state after set-up, ready for the timed window.
pub enum Loaded {
    Socket(Box<SocketLoaded>),
    Recover(Box<RecoverLoaded>),
    Fleet(Box<FleetLoaded>),
}

impl Loaded {
    /// Hash of the generated inputs: the same seed must print the same.
    pub fn input_hash(&self) -> u64 {
        match self {
            Loaded::Socket(s) => s.ring.hash,
            Loaded::Recover(r) => r.ring.hash,
            Loaded::Fleet(f) => f.input_hash,
        }
    }

    /// A value that must be bit-identical across runs of one seed beyond
    /// the inputs themselves (0 where the workload has none).
    pub fn determinism_hash(&self) -> u64 {
        match self {
            Loaded::Fleet(f) => f.published_hash,
            _ => 0,
        }
    }
}

/// Generates inputs from `seed`, binds the topology and warms it up —
/// everything `setup_s` covers.
pub fn setup(workload: &Workload, seed: u64) -> std::io::Result<Loaded> {
    Ok(match workload.kind {
        Kind::Socket(shape) => Loaded::Socket(Box::new(SocketLoaded::setup(shape, seed)?)),
        Kind::Recover { users, frames } => {
            Loaded::Recover(Box::new(RecoverLoaded::setup(users, frames, seed)?))
        }
        Kind::Fleet {
            cohorts,
            cohort_users,
            slots,
            epsilon,
            w,
        } => Loaded::Fleet(Box::new(FleetLoaded::setup(
            cohorts,
            cohort_users,
            slots,
            epsilon,
            w,
            seed,
        ))),
    })
}

/// Runs the untimed output checks that need the freshly warmed state.
pub fn verify_setup(loaded: &mut Loaded) -> Vec<String> {
    match loaded {
        Loaded::Socket(s) => s.verify_against_reference(),
        Loaded::Recover(_) | Loaded::Fleet(_) => Vec::new(),
    }
}

/// The timed end-to-end window; `tail_pct` is the percentile the
/// workload's `ack_tail_us` is read at.
pub fn measure(loaded: &mut Loaded, seconds: f64, tail_pct: f64) -> EndToEnd {
    match loaded {
        Loaded::Socket(s) => s.measure(seconds, tail_pct),
        Loaded::Recover(r) => r.measure(seconds, tail_pct),
        Loaded::Fleet(f) => f.measure(seconds, tail_pct),
    }
}

/// Rates of the half-second slices of a window of completion events.
fn rate_slices(events: &[(f64, f64)], window: f64) -> Vec<f64> {
    let slices = ((window / RATE_SLICE_SECONDS).round() as usize).max(1);
    slice_rates(events, window, slices)
}

fn latency_or_flag(
    samples: &mut [u64],
    tail_pct: f64,
    what: &str,
    problems: &mut Vec<String>,
) -> LatencySummary {
    if samples.is_empty() {
        problems.push(format!("{what}: no latency samples"));
        return LatencySummary {
            n: 0,
            p50_ns: 0,
            tail_ns: 0,
            tail_pct,
        };
    }
    summarize_latency(samples, tail_pct)
}

/// A closed loop of one blocking call at a time (`recover`, `fleet_capp`).
struct Calls {
    /// Per-call latency, nanoseconds.
    ns: Vec<u64>,
    /// `(seconds since the start, rows the call carried)` per call, in
    /// step with `ns`.
    done: Vec<(f64, f64)>,
    /// The error that ended the loop early.
    error: Option<String>,
}

impl Calls {
    /// Calls `call(n)` back-to-back for `seconds`; it returns the rows it
    /// carried. The first error ends the loop.
    fn run(seconds: f64, mut call: impl FnMut(usize) -> Result<u64, String>) -> Self {
        let mut calls = Self {
            ns: Vec::new(),
            done: Vec::new(),
            error: None,
        };
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let called = Instant::now();
            match call(calls.ns.len()) {
                Ok(rows) => {
                    let now = Instant::now();
                    calls.ns.push((now - called).as_nanos() as u64);
                    calls.done.push(((now - start).as_secs_f64(), rows as f64));
                }
                Err(e) => {
                    calls.error = Some(e);
                    break;
                }
            }
        }
        calls
    }

    /// Reduces the loop to an [`EndToEnd`] with the given rate samples.
    fn finish(mut self, rate_samples: Vec<f64>, tail_pct: f64, what: &str) -> EndToEnd {
        let mut problems: Vec<String> = self.error.iter().map(|e| format!("{what}: {e}")).collect();
        let failed = problems.len() as u64;
        let ack = latency_or_flag(&mut self.ns, tail_pct, what, &mut problems);
        EndToEnd {
            rate_samples,
            ack,
            dashboard: None,
            attempted: self.done.len() as u64 + failed,
            failed,
            rows: self.done.iter().map(|d| d.1 as u64).sum(),
            problems,
        }
    }
}

// ---------------------------------------------------------------- socket

pub struct SocketLoaded {
    pub shape: SocketShape,
    pub ring: Ring,
    pub topology: Topology,
    pub gateway: Gateway,
    pub config: CollectorConfig,
}

impl SocketLoaded {
    fn setup(shape: SocketShape, seed: u64) -> std::io::Result<Self> {
        let ring = Ring::generate(seed, shape.users, shape.frame_rows, shape.ring_frames);
        let config = collector_config(SlotRetention::Last(RING_SLOTS));
        let topology = Topology::build(shape.topology, config)?;
        let mut gateway = Gateway::connect(topology.front_addr())?;
        // Warm-up: one pass of the ring, so the user table, the slot
        // table, every reusable buffer and the fold pool exist before the
        // clock starts.
        let ring_frames = ring.frames() as u64;
        let warm = gateway.run(
            &ring,
            shape.sync_every,
            |_, frames| frames >= ring_frames,
            None,
        );
        if let Some(e) = warm.error {
            return Err(std::io::Error::other(format!("warm-up: {e}")));
        }
        Ok(Self {
            shape,
            ring,
            topology,
            gateway,
            config,
        })
    }

    /// After exactly one pass of the ring, the topology's answers must
    /// equal those of one in-process collector fed the same rows: counts
    /// exact, means within 1e-9.
    fn verify_against_reference(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        let reference = Collector::new(self.config);
        for batch in &self.ring.batches {
            reference.ingest(batch);
        }
        let expect = reference.snapshot();
        let client = self.gateway.client();
        match client.summary() {
            Ok(got) => {
                if got.total_reports != expect.total_reports() {
                    problems.push(format!(
                        "summary.total_reports {} != reference {}",
                        got.total_reports,
                        expect.total_reports()
                    ));
                }
                if got.user_count != expect.user_count() as u64 {
                    problems.push(format!(
                        "summary.user_count {} != reference {}",
                        got.user_count,
                        expect.user_count()
                    ));
                }
                check_mean(
                    "population_mean",
                    got.population_mean,
                    expect.population_mean(),
                    &mut problems,
                );
                let window = (got.slot_end.saturating_sub(16)) as usize..got.slot_end as usize;
                match client.windowed_mean(window.start as u64..window.end as u64) {
                    Ok(mean) => check_mean(
                        "windowed_mean",
                        mean,
                        expect.windowed_mean(window),
                        &mut problems,
                    ),
                    Err(e) => problems.push(format!("windowed_mean: {e}")),
                }
            }
            Err(e) => problems.push(format!("summary: {e}")),
        }
        problems
    }

    fn measure(&mut self, seconds: f64, tail_pct: f64) -> EndToEnd {
        let mut problems = Vec::new();
        let (mut gw, dash) = self.drive(seconds, None, None);
        if let Some(e) = &gw.error {
            problems.push(format!("gateway: {e}"));
        }
        let rate_samples = rate_slices(&gw.acks, seconds);
        let ack = latency_or_flag(&mut gw.sync_ns, tail_pct, "gateway", &mut problems);
        let (dash_attempted, dash_failed) = dash
            .as_ref()
            .map_or((0, 0), |d| (d.attempted_ops(), d.failed_ops));
        let dashboard = dash.and_then(|dash| {
            if let Some(e) = &dash.error {
                problems.push(format!("dashboard: {e}"));
            }
            let latency = dash.latency.summarize(99.0);
            if latency.is_none() {
                problems.push("dashboard: no query was answered".to_string());
            }
            Some(DashboardStats {
                queries_per_s: dash.latency.len() as f64 / dash.elapsed.as_secs_f64().max(1e-9),
                latency: latency?,
            })
        });
        self.check_ledgers(&gw, &mut problems);

        EndToEnd {
            rate_samples,
            ack,
            dashboard,
            attempted: gw.attempted_ops() + dash_attempted,
            failed: gw.failed_ops + dash_failed,
            rows: gw.rows_acked,
            problems,
        }
    }

    /// One gateway window of `seconds`; on the workload that reads beside
    /// its writes, one dashboard connection runs beside it for as long.
    /// Tracers, when given, wrap every client call of their loop in a
    /// span.
    pub fn drive(
        &mut self,
        seconds: f64,
        gateway_tracer: Option<&mut Tracer>,
        dashboard_tracer: Option<&mut Tracer>,
    ) -> (GatewayRun, Option<DashboardRun>) {
        if !self.shape.dashboard_beside {
            return (self.run_gateway(seconds, gateway_tracer), None);
        }
        let addr = self.topology.front_addr();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let dashboard = scope.spawn(|| dashboard_on(addr, &stop, dashboard_tracer));
            let gw = self.run_gateway(seconds, gateway_tracer);
            stop.store(true, Ordering::Relaxed);
            (
                gw,
                Some(dashboard.join().expect("dashboard thread panicked")),
            )
        })
    }

    fn run_gateway(&mut self, window: f64, tracer: Option<&mut Tracer>) -> GatewayRun {
        let window = Duration::from_secs_f64(window);
        self.gateway.run(
            &self.ring,
            self.shape.sync_every,
            |elapsed, _| elapsed >= window,
            tracer,
        )
    }

    /// The exact-count gates: nothing sent is unacked, lost, refused or
    /// unlogged.
    pub fn check_ledgers(&mut self, last: &GatewayRun, problems: &mut Vec<String>) {
        if last.rows_acked != last.rows_sent {
            problems.push(format!(
                "window acked {} of {} rows sent",
                last.rows_acked, last.rows_sent
            ));
        }
        let (sent, acked) = self.gateway.ledger();
        if sent != acked {
            problems.push(format!(
                "connection ledger: sent {sent} rows, acked {acked}"
            ));
        }
        let lost = self.gateway.client().lost_frames();
        if lost != 0 {
            problems.push(format!("client booked {lost} lost frames"));
        }
        match self.gateway.client().summary() {
            Ok(summary) if summary.total_reports == sent => {}
            Ok(summary) => problems.push(format!(
                "summary.total_reports {} != rows sent {sent}",
                summary.total_reports
            )),
            Err(e) => problems.push(format!("summary: {e}")),
        }
        let failed_frames = self.topology.server_counter("server.frames.failed")
            + self.router_counter("router.frames.failed");
        if failed_frames != 0 {
            problems.push(format!("{failed_frames} frames failed to decode"));
        }
        let lost_rows = self.router_lost_rows();
        if lost_rows != 0 {
            problems.push(format!("router lost {lost_rows} rows"));
        }
        // Every frame that reached a durable server is in its log: one
        // record per front frame, or per routed sub-frame.
        if self.shape.topology != TopologyKind::Plain {
            let appended = self.topology.server_counter("wal.appended_records");
            let expected = match self.topology.router_metrics() {
                Some(m) => sum_matching(&m, "router.downstream.", ".frames"),
                None => sent / self.shape.frame_rows as u64,
            };
            if appended != expected {
                problems.push(format!(
                    "wal.appended_records {appended} != frames delivered {expected}"
                ));
            }
        }
    }

    pub fn router_counter(&self, name: &str) -> u64 {
        self.topology
            .router_metrics()
            .and_then(|m| m.counter(name))
            .unwrap_or(0)
    }

    pub fn router_lost_rows(&self) -> u64 {
        self.topology
            .router_metrics()
            .map_or(0, |m| sum_matching(&m, "router.downstream.", ".lost_rows"))
    }
}

/// A dashboard connection that queries until `stop` is set.
fn dashboard_on(
    addr: std::net::SocketAddr,
    stop: &AtomicBool,
    tracer: Option<&mut Tracer>,
) -> DashboardRun {
    match RemoteCollector::connect(addr) {
        Ok(mut client) => run_dashboard(&mut client, stop, tracer),
        Err(e) => DashboardRun {
            failed_ops: 1,
            error: Some(format!("connect: {e}")),
            ..DashboardRun::default()
        },
    }
}

/// Sum of every counter named `<prefix>NN<suffix>`.
pub fn sum_matching(
    snapshot: &ldp_telemetry::TelemetrySnapshot,
    prefix: &str,
    suffix: &str,
) -> u64 {
    counters_matching(snapshot, prefix, suffix).iter().sum()
}

/// Every counter named `<prefix>NN<suffix>`, in index order.
pub fn counters_matching(
    snapshot: &ldp_telemetry::TelemetrySnapshot,
    prefix: &str,
    suffix: &str,
) -> Vec<u64> {
    (0..)
        .map_while(|i| snapshot.counter(&format!("{prefix}{i:02}{suffix}")))
        .collect()
}

fn check_mean(what: &str, got: Option<f64>, expect: Option<f64>, problems: &mut Vec<String>) {
    match (got, expect) {
        (Some(g), Some(e)) if (g - e).abs() <= 1e-9 => {}
        (None, None) => {}
        _ => problems.push(format!("{what}: got {got:?}, reference {expect:?}")),
    }
}

// --------------------------------------------------------------- recover

pub struct RecoverLoaded {
    pub ring: Ring,
    pub dir: ScratchDir,
    pub config: CollectorConfig,
    pub expected_rows: u64,
    pub expected_records: u64,
}

impl RecoverLoaded {
    fn setup(users: u64, frames: usize, seed: u64) -> std::io::Result<Self> {
        let ring = Ring::generate(seed, users, CANONICAL_FRAME_ROWS, frames);
        let config = collector_config(SlotRetention::Last(RING_SLOTS));
        let dir = ScratchDir::create("recover")?;
        write_log(&ring, config, recover_wal_config(&dir))?;
        let loaded = Self {
            expected_rows: ring.rows(),
            expected_records: ring.frames() as u64,
            ring,
            dir,
            config,
        };
        // One unmeasured pass: the log is in the page cache afterwards,
        // as it is for a process restarted right after a crash.
        loaded.recover_once()?;
        Ok(loaded)
    }

    /// One `durable::recover()`; the ledger must be exact every time.
    pub fn recover_once(&self) -> std::io::Result<Arc<Collector>> {
        let (collector, _durability, report) = recover(self.config, recover_wal_config(&self.dir))?;
        if report.replayed_rows != self.expected_rows
            || report.replayed_records != self.expected_records
            || collector.total_reports() != self.expected_rows
        {
            return Err(std::io::Error::other(format!(
                "recovery ledger: replayed {} rows in {} records, collector holds {}; expected {} in {}",
                report.replayed_rows,
                report.replayed_records,
                collector.total_reports(),
                self.expected_rows,
                self.expected_records
            )));
        }
        Ok(collector)
    }

    fn measure(&mut self, seconds: f64, tail_pct: f64) -> EndToEnd {
        let calls = Calls::run(seconds, |_| {
            self.recover_once()
                .map(|_| self.expected_rows)
                .map_err(|e| e.to_string())
        });
        // A pass is a tenth of a slice, so slicing would quantise the
        // rate; each pass is a sample of its own instead.
        let rates = calls
            .ns
            .iter()
            .map(|&ns| self.expected_rows as f64 * 1e9 / ns as f64)
            .collect();
        calls.finish(rates, tail_pct, "recover")
    }
}

/// Checkpoints never run on this log (nothing calls `maybe_checkpoint`),
/// so every record written is replayed.
pub fn recover_wal_config(dir: &ScratchDir) -> WalConfig {
    WalConfig::new(dir.path()).flush(FlushPolicy::Barrier)
}

/// Writes every ring frame through `Durability::ingest_frame`, then one
/// barrier; the log is left unsealed, as a killed process leaves it.
pub fn write_log(ring: &Ring, config: CollectorConfig, wal: WalConfig) -> std::io::Result<()> {
    let (collector, durability, _) = recover(config, wal)?;
    let mut scratch = IngestScratch::default();
    let mut frame = Vec::new();
    for batch in &ring.batches {
        frame.clear();
        Frame::encode_ingest_into(batch, &mut frame);
        durability.ingest_frame(&collector, &frame[HEADER_LEN..], &mut scratch)?;
    }
    durability.barrier()
}

// ----------------------------------------------------------------- fleet

pub struct FleetLoaded {
    pub cohorts: Vec<Population>,
    pub fleet: ClientFleet,
    pub slots: usize,
    pub cohort_users: usize,
    pub true_mean: f64,
    pub input_hash: u64,
    /// Hash of every user's published (count, sum) after one warm-up
    /// pass over all cohorts: a pure function of the seed.
    pub published_hash: u64,
}

impl FleetLoaded {
    fn setup(
        cohorts: usize,
        cohort_users: usize,
        slots: usize,
        epsilon: f64,
        w: usize,
        seed: u64,
    ) -> Self {
        let population = taxi_population(cohorts * cohort_users, slots, seed);
        let mut input_hash = Hasher64::default();
        let mut sum = 0.0;
        for stream in population.iter() {
            for v in stream.values() {
                input_hash.mix(v.to_bits());
                sum += v;
            }
        }
        let true_mean = sum / (population.len() * slots) as f64;
        // The fleet numbers users within the population it is handed, so
        // the cohorts are populations of the same device ids: each
        // drive() is one gateway's cohort publishing one epoch.
        let mut users = population.users().to_vec();
        let cohorts: Vec<Population> = (0..cohorts)
            .map(|_| Population::new(users.drain(..cohort_users).collect()))
            .collect();
        let fleet = ClientFleet::new(FleetConfig {
            spec: PipelineSpec::sw(SessionKind::Capp),
            epsilon,
            w,
            seed,
            threads: ldp_collector::default_parallelism().min(2),
        });
        // Warm-up: every cohort once, into a collector of its own.
        let warm = Collector::new(collector_config(SlotRetention::Unbounded));
        for cohort in &cohorts {
            fleet
                .drive(cohort, 0..slots, &warm)
                .expect("fleet configuration is valid");
        }
        let mut rows = warm.per_user_rows();
        rows.sort_by_key(|r| r.0);
        let mut published_hash = Hasher64::default();
        for (user, count, sum) in rows {
            published_hash.mix(user);
            published_hash.mix(count);
            published_hash.mix(sum.to_bits());
        }
        Self {
            cohorts,
            fleet,
            slots,
            cohort_users,
            true_mean,
            input_hash: input_hash.finish(),
            published_hash: published_hash.finish(),
        }
    }

    fn measure(&mut self, seconds: f64, tail_pct: f64) -> EndToEnd {
        let collector = Collector::new(collector_config(SlotRetention::Unbounded));
        let calls = Calls::run(seconds, |n| {
            let cohort = &self.cohorts[n % self.cohorts.len()];
            self.fleet
                .drive(cohort, 0..self.slots, &collector)
                .map_err(|e| e.to_string())
        });
        let drives = calls.done.len() as u64;
        let rates = rate_slices(&calls.done, seconds);
        let mut e2e = calls.finish(rates, tail_pct, "fleet");

        let expected = drives * (self.cohort_users * self.slots) as u64;
        if e2e.rows != expected || collector.total_reports() != expected {
            e2e.problems.push(format!(
                "uploaded {}, collector holds {}, expected {expected}",
                e2e.rows,
                collector.total_reports()
            ));
        }
        match collector.snapshot().population_mean() {
            Some(mean) if (mean - self.true_mean).abs() <= 0.02 => {}
            other => e2e.problems.push(format!(
                "population mean {other:?} not within 0.02 of the true mean {}",
                self.true_mean
            )),
        }
        e2e
    }
}
