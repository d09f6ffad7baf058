//! A client-fleet simulator: one [`OnlineSession`] per user, sharded
//! across worker threads, uploading into a [`Collector`].
//!
//! The fleet is the scale harness for the engine (millions of reports) and
//! doubles as the reference client implementation: every user gets an
//! independent, deterministically seeded RNG ([`user_seed`]), so fleet
//! output is identical for any thread count — and reproducible by the
//! offline batch path via [`ReseedingSession`].

use crate::engine::Collector;
use ldp_core::online::{OnlineSession, PipelineSpec};
use ldp_core::StreamMechanism;
use ldp_streams::{Population, Stream};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cell::Cell;
use std::ops::Range;

/// Fleet configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Which `(feedback rule, mechanism)` pipeline every client runs.
    pub spec: PipelineSpec,
    /// Window budget ε.
    pub epsilon: f64,
    /// Window size w.
    pub w: usize,
    /// Base seed; user `i` derives its RNG via [`user_seed`]`(seed, i)`.
    pub seed: u64,
    /// Worker threads driving the clients.
    /// [`crate::default_parallelism`] is the natural choice — it is the
    /// same cached number collector shard defaults and server sizing
    /// consult, so fleet, engine, and service agree on the machine size.
    /// Thread count never changes published values, only scheduling.
    ///
    /// This is *client-side* parallelism: each worker uploads its own
    /// users' streams, each of which the collector folds as one
    /// contiguous run (one shard, one lock, no routing). The
    /// collector-side counterpart for few hot connections carrying big
    /// mixed batches is
    /// [`crate::CollectorConfig::ingest_workers`] — the work-stealing
    /// parallel shard fold.
    pub threads: usize,
}

/// Derives user `user`'s RNG seed from the fleet base seed (SplitMix64
/// finalizer, so consecutive user indices get decorrelated streams).
#[must_use]
pub fn user_seed(base: u64, user: u64) -> u64 {
    let mut z = base ^ user.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where a fleet worker delivers its uploads: a local [`Collector`]
/// (in-process, the simulation shape) or a remote connection (the
/// `ldp-server` crate's `RemoteCollector`, the deployment shape). One
/// sink instance belongs to one worker thread, so implementations need no
/// internal synchronization.
pub trait ReportSink {
    /// Submits one device's upload: `values[i]` is `user`'s published
    /// report for slot `first_slot + i`. A non-finite value must not be
    /// folded, and must reach the downstream rejection ledger as an
    /// upstream rejection — values refused client-side still have to be
    /// visible in the collector's accounting; the finite values keep
    /// their own slots.
    ///
    /// # Errors
    /// Transport errors (a local sink never fails).
    fn submit(&mut self, user: u64, first_slot: u64, values: &[f64]) -> std::io::Result<()>;
    /// Flushes buffered submissions and returns the number of reports the
    /// downstream collector *accepted* from this sink.
    ///
    /// # Errors
    /// Transport errors (a local sink never fails).
    fn finish(&mut self) -> std::io::Result<u64>;
}

/// The in-process [`ReportSink`]: folds each upload straight into the
/// collector as one contiguous run — one shard lock, one user lookup, the
/// slot range resolved once, no columns written — with the books
/// [`Collector::ingest`] of the same upload as a `ReportBatch` would keep.
#[derive(Debug)]
pub struct CollectorSink<'c> {
    collector: &'c Collector,
    accepted: u64,
}

impl<'c> CollectorSink<'c> {
    /// A sink uploading straight into `collector`.
    #[must_use]
    pub fn new(collector: &'c Collector) -> Self {
        Self {
            collector,
            accepted: 0,
        }
    }
}

impl ReportSink for CollectorSink<'_> {
    fn submit(&mut self, user: u64, first_slot: u64, values: &[f64]) -> std::io::Result<()> {
        // A session must never publish NaN; if one ever does, the refusal
        // has to surface in the collector's ledger, not vanish
        // client-side — `ingest_stream` books it as rejected upstream.
        self.accepted += self.collector.ingest_stream(user, first_slot, values);
        Ok(())
    }

    fn finish(&mut self) -> std::io::Result<u64> {
        Ok(self.accepted)
    }
}

/// Failure modes of a [`ClientFleet`] drive: an invalid pipeline
/// configuration (caught before any worker spawns) or a sink transport
/// error (a worker's connection failed mid-upload).
#[derive(Debug)]
pub enum FleetError {
    /// `(epsilon, w)` is invalid for the configured pipeline.
    Config(ldp_core::Error),
    /// A worker's [`ReportSink`] failed.
    Sink(std::io::Error),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Config(e) => write!(f, "invalid fleet configuration: {e}"),
            FleetError::Sink(e) => write!(f, "fleet report sink failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Config(e) => Some(e),
            FleetError::Sink(e) => Some(e),
        }
    }
}

impl From<ldp_core::Error> for FleetError {
    fn from(e: ldp_core::Error) -> Self {
        FleetError::Config(e)
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Sink(e)
    }
}

/// Drives N sharded [`OnlineSession`] clients over population data.
#[derive(Debug, Clone, Copy)]
pub struct ClientFleet {
    config: FleetConfig,
}

impl ClientFleet {
    /// Creates a fleet with the given configuration.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        Self { config }
    }

    /// Borrow the configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs every user's session over `range` of their stream and uploads
    /// the perturbed reports into `collector` (one upload per user, slots
    /// numbered relative to `range.start`). Returns the total number of
    /// reports uploaded.
    ///
    /// Deterministic in `(population, range, config.seed, config.spec)`:
    /// the thread count only changes scheduling, not any published value.
    /// Each worker builds its sessions and publish buffers once and reuses
    /// them across its users, so the steady-state upload loop performs no
    /// per-user heap allocation.
    ///
    /// # Errors
    /// Returns an error if `(epsilon, w)` is invalid for the pipeline.
    ///
    /// # Panics
    /// Panics if `range` is out of bounds for any user or `threads == 0`.
    pub fn drive(
        &self,
        population: &Population,
        range: Range<usize>,
        collector: &Collector,
    ) -> ldp_core::Result<u64> {
        self.drive_with_sinks(population, range, &|_| Ok(CollectorSink::new(collector)))
            .map_err(|e| match e {
                FleetError::Config(e) => e,
                FleetError::Sink(_) => unreachable!("local collector sink cannot fail"),
            })
    }

    /// The transport-generic drive: like [`Self::drive`], but each worker
    /// uploads through its own [`ReportSink`] built by `make_sink(worker
    /// index)` — a local [`CollectorSink`], or a remote connection (the
    /// `ldp-server` crate drives a fleet against a TCP endpoint this
    /// way). Published values are identical across transports: the sink
    /// only carries bytes, it never touches the perturbation path.
    ///
    /// Returns the total number of reports the downstream collector
    /// accepted (the sum of every sink's [`ReportSink::finish`]).
    ///
    /// # Errors
    /// [`FleetError::Config`] if `(epsilon, w)` is invalid for the
    /// pipeline (checked before any worker spawns), [`FleetError::Sink`]
    /// if building or driving any worker's sink failed.
    ///
    /// # Panics
    /// Panics if `range` is out of bounds for any user or `threads == 0`.
    pub fn drive_with_sinks<S, F>(
        &self,
        population: &Population,
        range: Range<usize>,
        make_sink: &F,
    ) -> Result<u64, FleetError>
    where
        S: ReportSink,
        F: Fn(usize) -> std::io::Result<S> + Sync,
    {
        // Validate the configuration up front so workers can't fail on it.
        let _ = OnlineSession::of_spec(self.config.spec, self.config.epsilon, self.config.w)?;
        let cfg = self.config;
        let shards = population.shard_slices(cfg.threads);
        let total = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .enumerate()
                .map(|(worker, &(start, users))| {
                    let range = range.clone();
                    scope.spawn(move || {
                        let mut sink = make_sink(worker)?;
                        worker_upload(cfg, start, users, range, &mut sink)?;
                        sink.finish()
                    })
                })
                .collect();
            let mut total = 0u64;
            for h in handles {
                total += h.join().expect("fleet worker panicked")?;
            }
            Ok::<u64, std::io::Error>(total)
        })?;
        Ok(total)
    }
}

/// Users one fleet worker publishes in lock-step. A session is a serial
/// feedback chain (each input needs the previous report), so one user at
/// a time leaves the core waiting on latency; four independent users side
/// by side fill it, and more adds nothing once the chains already overlap.
/// A constant, not a knob: published values do not depend on it.
const LANES: usize = 4;

/// One ingest worker: runs the sessions of `users` (ids starting at
/// `start`) over `range` and submits one upload per user, in user order,
/// into `sink`. Users go [`LANES`] at a time through
/// [`OnlineSession::report_lanes_into`], the remainder one at a time
/// through the same call; the worker's sessions and publish buffers are
/// built once and reused, so the steady state performs no per-user heap
/// allocation. Shared by every drive flavor (local, remote), so all paths
/// publish bit-identical values.
fn worker_upload<S: ReportSink>(
    cfg: FleetConfig,
    start: usize,
    users: &[Stream],
    range: Range<usize>,
    sink: &mut S,
) -> std::io::Result<()> {
    let mut worker = Worker {
        cfg,
        range,
        sessions: std::array::from_fn(|_| {
            OnlineSession::of_spec(cfg.spec, cfg.epsilon, cfg.w)
                .expect("config validated by the caller")
        }),
        published: Default::default(),
    };
    let mut groups = users.chunks_exact(LANES);
    let mut first_user = start as u64;
    for group in &mut groups {
        worker.upload::<LANES, S>(first_user, group, sink)?;
        first_user += LANES as u64;
    }
    for stream in groups.remainder() {
        worker.upload::<1, S>(first_user, std::slice::from_ref(stream), sink)?;
        first_user += 1;
    }
    Ok(())
}

/// The per-lane state one [`worker_upload`] call reuses across its users.
struct Worker {
    cfg: FleetConfig,
    range: Range<usize>,
    sessions: [OnlineSession; LANES],
    published: [Vec<f64>; LANES],
}

impl Worker {
    /// Publishes the `K` users `first_user..` (whose streams are
    /// `streams`) on the first `K` lanes, then submits their uploads.
    fn upload<const K: usize, S: ReportSink>(
        &mut self,
        first_user: u64,
        streams: &[Stream],
        sink: &mut S,
    ) -> std::io::Result<()> {
        let streams = streams.first_chunk::<K>().expect("one stream per lane");
        let sessions = self.sessions.first_chunk_mut::<K>().expect("K <= LANES");
        let published = self.published.first_chunk_mut::<K>().expect("K <= LANES");
        sessions.iter_mut().for_each(OnlineSession::reset);
        let mut rngs: [StdRng; K] = std::array::from_fn(|k| {
            StdRng::seed_from_u64(user_seed(self.cfg.seed, first_user + k as u64))
        });
        OnlineSession::report_lanes_into(
            sessions.each_mut(),
            streams
                .each_ref()
                .map(|stream| stream.subsequence(self.range.clone())),
            published.each_mut(),
            rngs.each_mut(),
        );
        for (k, values) in published.iter().enumerate() {
            sink.submit(first_user + k as u64, 0, values)?;
        }
        Ok(())
    }
}

/// Batch-path adapter reproducing fleet output: a [`StreamMechanism`]
/// whose i-th `publish_into` call runs a fresh [`OnlineSession`] seeded with
/// [`user_seed`]`(base_seed, i)`, ignoring the RNG handed in.
///
/// Passing this to [`ldp_core::crowd::estimated_population_means`] yields
/// exactly the per-user published streams a [`ClientFleet`] uploads with
/// the same `(kind, epsilon, w, seed)` — which is how the snapshot-vs-batch
/// agreement tests pin the collector's numerics.
///
/// **Every `publish_into` call consumes the next user id**, so one adapter
/// instance replays one fleet pass. Call [`Self::reset`] before reusing it for a
/// second pass, or the means will silently come from the wrong seeds.
#[derive(Debug)]
pub struct ReseedingSession {
    spec: PipelineSpec,
    epsilon: f64,
    w: usize,
    base_seed: u64,
    next_user: Cell<u64>,
}

impl ReseedingSession {
    /// Creates the adapter; the first `publish_into` call plays user 0.
    ///
    /// # Errors
    /// Returns an error if `(epsilon, w)` is invalid for the pipeline.
    pub fn new(
        spec: PipelineSpec,
        epsilon: f64,
        w: usize,
        base_seed: u64,
    ) -> ldp_core::Result<Self> {
        let _ = OnlineSession::of_spec(spec, epsilon, w)?;
        Ok(Self {
            spec,
            epsilon,
            w,
            base_seed,
            next_user: Cell::new(0),
        })
    }

    /// Rewinds the adapter to user 0 so the same instance can replay the
    /// fleet again (e.g. to compare two query ranges).
    pub fn reset(&self) {
        self.next_user.set(0);
    }

    /// The user id the next `publish_into` call will play.
    #[must_use]
    pub fn next_user(&self) -> u64 {
        self.next_user.get()
    }
}

impl StreamMechanism for ReseedingSession {
    fn publish_into(&self, xs: &[f64], out: &mut Vec<f64>, _rng: &mut dyn RngCore) {
        let user = self.next_user.get();
        self.next_user.set(user + 1);
        let mut session = OnlineSession::of_spec(self.spec, self.epsilon, self.w)
            .expect("config validated at construction");
        let mut rng = StdRng::seed_from_u64(user_seed(self.base_seed, user));
        session.report_all_into(xs, out, &mut rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CollectorConfig;
    use ldp_core::online::SessionKind;
    use ldp_mechanisms::MechanismKind;
    use ldp_streams::synthetic::taxi_population;

    fn fleet(kind: SessionKind, threads: usize) -> ClientFleet {
        fleet_spec(PipelineSpec::sw(kind), threads)
    }

    fn fleet_spec(spec: PipelineSpec, threads: usize) -> ClientFleet {
        ClientFleet::new(FleetConfig {
            spec,
            epsilon: 2.0,
            w: 8,
            seed: 1234,
            threads,
        })
    }

    #[test]
    fn drive_uploads_one_report_per_user_slot() {
        let pop = taxi_population(30, 20, 5);
        let collector = Collector::new(CollectorConfig {
            shards: 4,
            ..CollectorConfig::default()
        });
        let n = fleet(SessionKind::App, 4)
            .drive(&pop, 0..20, &collector)
            .unwrap();
        assert_eq!(n, 30 * 20);
        let snap = collector.snapshot();
        assert_eq!(snap.user_count(), 30);
        assert_eq!(snap.slot_count(), 20);
        assert!(snap.slots().iter().all(|s| s.count == 30));
    }

    #[test]
    fn local_sink_books_a_non_finite_value_as_rejected_upstream() {
        let config = CollectorConfig {
            shards: 2,
            ..CollectorConfig::default()
        };
        let values = [0.5, f64::NAN, 0.25];
        let collector = Collector::new(config);
        let mut sink = CollectorSink::new(&collector);
        sink.submit(5, 0, &values).unwrap();
        assert_eq!(sink.finish().unwrap(), 2);
        assert_eq!(collector.total_reports(), 2);
        assert_eq!(collector.rejected_reports(), 1);
        let books = collector.telemetry().snapshot();
        assert_eq!(
            books.counter("collector.reports.rejected_upstream"),
            Some(1)
        );
        let counts: Vec<u64> = collector
            .snapshot()
            .slots()
            .iter()
            .map(|s| s.count)
            .collect();
        assert_eq!(counts, [1, 0, 1], "the finite rows keep slots 0 and 2");

        // The books and state of the same upload sent as a batch.
        let by_batch = Collector::new(config);
        let batch = crate::ReportBatch::from_stream(5, 0, &values);
        by_batch.note_upstream_rejections(batch.rejected_non_finite());
        by_batch.ingest(&batch);
        assert_eq!(collector.encode_checkpoint(), by_batch.encode_checkpoint());
        let folds = |c: &Collector| {
            let snap = c.telemetry().snapshot();
            snap.histogram("collector.ingest.fold_nanos")
                .map(|h| h.count())
        };
        assert_eq!(folds(&collector), folds(&by_batch));
    }

    #[test]
    fn thread_count_does_not_change_published_values() {
        // 17 and 23 users: neither divides by the lane width, so one thread
        // runs full lane groups plus a remainder of 1 or 3 single lanes,
        // two threads split into other group/remainder mixes, and six
        // threads get fewer users than lanes each — all single lanes.
        for users in [17, 23] {
            let pop = taxi_population(users, 15, 9);
            let a = Collector::new(CollectorConfig {
                shards: 2,
                ..CollectorConfig::default()
            });
            fleet(SessionKind::Capp, 1).drive(&pop, 2..12, &a).unwrap();
            let sa = a.snapshot();
            for threads in [2, 6] {
                let b = Collector::new(CollectorConfig {
                    shards: 5,
                    ..CollectorConfig::default()
                });
                fleet(SessionKind::Capp, threads)
                    .drive(&pop, 2..12, &b)
                    .unwrap();
                let sb = b.snapshot();
                // Per-user sums only involve one user's own reports, so they
                // are bitwise identical across thread/shard counts.
                assert_eq!(sa.per_user_means(), sb.per_user_means());
                assert!(
                    (sa.windowed_mean(0..10).unwrap() - sb.windowed_mean(0..10).unwrap()).abs()
                        < 1e-12
                );
            }
        }
    }

    #[test]
    fn reseeding_session_replays_fleet_users() {
        let pop = taxi_population(12, 18, 3);
        let collector = Collector::default();
        fleet(SessionKind::Ipp, 3)
            .drive(&pop, 0..18, &collector)
            .unwrap();
        let adapter =
            ReseedingSession::new(PipelineSpec::sw(SessionKind::Ipp), 2.0, 8, 1234).unwrap();
        let mut unused = StdRng::seed_from_u64(0);
        let batch_means =
            ldp_core::crowd::estimated_population_means(&pop, 0..18, &adapter, &mut unused);
        let online_means = collector.snapshot().per_user_means();
        assert_eq!(batch_means.len(), online_means.len());
        for (a, b) in batch_means.iter().zip(&online_means) {
            assert!((a - b).abs() < 1e-12, "batch {a} vs online {b}");
        }
    }

    #[test]
    fn reseeding_session_reset_replays_from_user_zero() {
        let adapter =
            ReseedingSession::new(PipelineSpec::sw(SessionKind::App), 2.0, 8, 77).unwrap();
        let mut unused = StdRng::seed_from_u64(0);
        let xs = [0.4; 16];
        let first = adapter.publish(&xs, &mut unused);
        let second = adapter.publish(&xs, &mut unused);
        assert_ne!(first, second, "consecutive calls play different users");
        assert_eq!(adapter.next_user(), 2);
        adapter.reset();
        assert_eq!(adapter.publish(&xs, &mut unused), first);
    }

    #[test]
    fn invalid_config_is_rejected_before_spawning() {
        let pop = taxi_population(3, 10, 1);
        let collector = Collector::default();
        let bad = ClientFleet::new(FleetConfig {
            spec: PipelineSpec::sw(SessionKind::App),
            epsilon: 0.0,
            w: 5,
            seed: 1,
            threads: 2,
        });
        assert!(bad.drive(&pop, 0..10, &collector).is_err());
        assert_eq!(collector.total_reports(), 0);
    }

    #[test]
    fn non_sw_pipelines_drive_end_to_end() {
        let pop = taxi_population(20, 16, 11);
        for mechanism in [MechanismKind::Laplace, MechanismKind::Hybrid] {
            let collector = Collector::default();
            let spec = PipelineSpec::new(SessionKind::App, mechanism);
            let n = fleet_spec(spec, 3).drive(&pop, 0..16, &collector).unwrap();
            assert_eq!(n, 20 * 16, "{}", spec.label());
            let snap = collector.snapshot();
            assert_eq!(snap.user_count(), 20);
            assert!(snap.per_user_means().iter().all(|m| m.is_finite()));
            assert_eq!(collector.rejected_reports(), 0);
        }
    }

    #[test]
    fn thread_count_is_invariant_for_non_sw_mechanisms_too() {
        let pop = taxi_population(15, 12, 5);
        let spec = PipelineSpec::new(SessionKind::Capp, MechanismKind::StochasticRounding);
        let a = Collector::default();
        let b = Collector::default();
        fleet_spec(spec, 1).drive(&pop, 0..12, &a).unwrap();
        fleet_spec(spec, 6).drive(&pop, 0..12, &b).unwrap();
        assert_eq!(a.snapshot().per_user_means(), b.snapshot().per_user_means());
    }
}
