//! The two closed-loop clients every socket workload is driven by: a
//! gateway (uploads frames, waits for its durable ack every `sync_every`
//! frames) and a dashboard (one query at a time, cycling four verbs).
//!
//! Both are callers that wait, which is why the loops are closed — see
//! the README for the open-loop runs that were tried and did not repeat.

use crate::inputs::Ring;
use crate::stats::LatencyHistogram;
use crate::trace::{maybe_span, Tracer};
use ldp_server::RemoteCollector;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What one gateway window produced.
#[derive(Debug, Default)]
pub struct GatewayRun {
    pub frames: u64,
    pub rows_sent: u64,
    /// Rows the acks of this window covered (ledger delta).
    pub rows_acked: u64,
    /// Per-`sync()` latency, nanoseconds.
    pub sync_ns: Vec<u64>,
    /// `(seconds since window start, rows newly acked)` per ack, in step
    /// with `sync_ns`.
    pub acks: Vec<(f64, f64)>,
    /// Frames or syncs that returned an error, plus frames the client
    /// booked as lost.
    pub failed_ops: u64,
    /// Start of the window to the last ack.
    pub elapsed: Duration,
    /// First error met (the window stops there).
    pub error: Option<String>,
}

impl GatewayRun {
    pub fn attempted_ops(&self) -> u64 {
        self.frames + self.sync_ns.len() as u64 + u64::from(self.error.is_some())
    }
}

/// A gateway connection plus the ledger position it has reached, so
/// consecutive windows (warm-up, untraced, traced) share one connection.
pub struct Gateway {
    client: RemoteCollector,
    /// Frames sent so far; picks the next ring slot.
    next_frame: u64,
    /// Cumulative rows acked on this connection (the server's ledger is
    /// per connection and cumulative).
    acked: u64,
    sent: u64,
}

impl Gateway {
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        Ok(Self {
            client: RemoteCollector::connect(addr)?,
            next_frame: 0,
            acked: 0,
            sent: 0,
        })
    }

    /// Sends frames round-robin from `ring`, syncing every `sync_every`,
    /// until `stop` says so at a sync boundary — so every frame sent is
    /// covered by an ack when the window ends. With a tracer, every
    /// client call is wrapped in a span whose request id is the frame
    /// (or sync) number.
    pub fn run(
        &mut self,
        ring: &Ring,
        sync_every: u64,
        mut stop: impl FnMut(Duration, u64) -> bool,
        mut tracer: Option<&mut Tracer>,
    ) -> GatewayRun {
        let mut run = GatewayRun::default();
        let acked_before = self.acked;
        let start = Instant::now();
        'window: loop {
            for _ in 0..sync_every {
                let batch = ring.frame(self.next_frame);
                let sent = maybe_span(
                    tracer.as_deref_mut(),
                    "client.ingest",
                    self.next_frame,
                    || self.client.ingest(batch),
                );
                if let Err(e) = sent {
                    run.failed_ops += 1;
                    run.error = Some(format!("ingest: {e}"));
                    break 'window;
                }
                self.next_frame += 1;
                self.sent += batch.len() as u64;
                run.frames += 1;
                run.rows_sent += batch.len() as u64;
            }
            let sync_no = run.sync_ns.len() as u64;
            let called = Instant::now();
            let ack = maybe_span(tracer.as_deref_mut(), "client.sync", sync_no, || {
                self.client.sync()
            });
            let now = Instant::now();
            match ack {
                Ok(outcome) => {
                    run.sync_ns.push((now - called).as_nanos() as u64);
                    run.acks.push((
                        (now - start).as_secs_f64(),
                        (outcome.accepted - self.acked) as f64,
                    ));
                    self.acked = outcome.accepted;
                    if outcome.dropped + outcome.rejected > 0 {
                        run.error = Some(format!(
                            "ack reports {} dropped and {} rejected rows",
                            outcome.dropped, outcome.rejected
                        ));
                        run.failed_ops += 1;
                        break;
                    }
                }
                Err(e) => {
                    run.failed_ops += 1;
                    run.error = Some(format!("sync: {e}"));
                    break;
                }
            }
            run.elapsed = now - start;
            if stop(run.elapsed, run.frames) {
                break;
            }
        }
        run.rows_acked = self.acked - acked_before;
        run.failed_ops += self.client.lost_frames();
        run
    }

    /// Rows sent and rows acked over the connection's lifetime.
    pub fn ledger(&self) -> (u64, u64) {
        (self.sent, self.acked)
    }

    pub fn client(&mut self) -> &mut RemoteCollector {
        &mut self.client
    }
}

/// What one dashboard window produced.
#[derive(Debug, Default)]
pub struct DashboardRun {
    /// Per-query latency.
    pub latency: LatencyHistogram,
    pub failed_ops: u64,
    pub elapsed: Duration,
    pub error: Option<String>,
}

impl DashboardRun {
    pub fn attempted_ops(&self) -> u64 {
        self.latency.len() as u64 + self.failed_ops
    }
}

/// Slots the dashboard's windowed mean covers.
pub const DASHBOARD_WINDOW: u64 = 16;
/// Slots its per-slot read covers.
pub const DASHBOARD_SLOTS: u64 = 64;

/// Cycles `population_mean` / `summary` / `windowed_mean(last 16)` /
/// `slot_means(last 64)` back-to-back until `stop` is set. A reply that
/// is an error, or empty where the loaded state must answer, counts as a
/// failed query.
pub fn run_dashboard(
    client: &mut RemoteCollector,
    stop: &AtomicBool,
    mut tracer: Option<&mut Tracer>,
) -> DashboardRun {
    let mut run = DashboardRun::default();
    let slot_end = match client.summary() {
        Ok(summary) => summary.slot_end,
        Err(e) => {
            run.failed_ops = 1;
            run.error = Some(format!("summary: {e}"));
            return run;
        }
    };
    let windowed = slot_end.saturating_sub(DASHBOARD_WINDOW)..slot_end;
    let slots = slot_end.saturating_sub(DASHBOARD_SLOTS)..slot_end;
    let start = Instant::now();
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let called = Instant::now();
        let call = |client: &mut RemoteCollector| -> std::io::Result<bool> {
            Ok(match n % 4 {
                0 => client.population_mean()?.is_some_and(f64::is_finite),
                1 => client.summary()?.total_reports > 0,
                2 => client
                    .windowed_mean(windowed.clone())?
                    .is_some_and(f64::is_finite),
                _ => client
                    .slot_means(slots.clone())?
                    .iter()
                    .all(|m| m.is_some_and(f64::is_finite)),
            })
        };
        let verb = QUERY_SPANS[(n % 4) as usize];
        let answered = maybe_span(tracer.as_deref_mut(), verb, n, || call(client));
        match answered {
            Ok(true) => run.latency.record(called.elapsed().as_nanos() as u64),
            Ok(false) => {
                run.failed_ops += 1;
                run.error
                    .get_or_insert_with(|| format!("query {n}: empty answer on a loaded state"));
            }
            Err(e) => {
                run.failed_ops += 1;
                run.error = Some(format!("query {n}: {e}"));
                break;
            }
        }
        n += 1;
    }
    run.elapsed = start.elapsed();
    run
}

const QUERY_SPANS: [&str; 4] = [
    "client.query.population_mean",
    "client.query.summary",
    "client.query.windowed_mean",
    "client.query.slot_means",
];
