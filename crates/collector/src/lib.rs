//! `ldp-collector` — the server side of w-event LDP stream publication.
//!
//! The client half of the paper's deployment story lives in
//! [`ldp_core::online::OnlineSession`]: each user perturbs slot-at-a-time
//! and uploads reports. This crate is the other half: a sharded,
//! incremental aggregation engine that ingests perturbed per-slot reports
//! from any number of concurrent sessions and maintains running crowd
//! estimates — per-slot means/variances, windowed subsequence means, and
//! the distribution of per-user means (paper §IV-C, Theorem 5).
//!
//! # Architecture
//!
//! ```text
//! OnlineSession ─┐                       ┌─ shard 0: SlotStats[] + user sums
//! OnlineSession ─┼─── report batches ───▶│  shard 1: …            ──▶ merge
//!      …         │     (ReportBatch)     │     …                       │
//! OnlineSession ─┘                       └─ shard k                    ▼
//!                                                            CollectorSnapshot
//! ```
//!
//! * [`ReportBatch`] — the ingestion unit: columnar (struct-of-arrays)
//!   `(user, slot, value)` triples. Non-finite values are rejected at
//!   `push` and again at ingest, so one NaN can never poison a shard.
//! * [`Collector`] — routes each report to a shard keyed by user id; each
//!   shard keeps per-slot count/sum/sum-of-squares plus per-user running
//!   sums, so ingestion is O(1) per report and shards only contend on
//!   their own mutex. Large multi-shard batches fold their per-shard runs
//!   through an in-tree work-stealing pool
//!   ([`CollectorConfig::ingest_workers`], `LDP_INGEST_WORKERS`), so one
//!   hot connection saturates every core — with results bit-identical to
//!   a serial fold.
//! * [`CollectorSnapshot`] — a merged, immutable view answering the
//!   queries the paper's evaluation asks: per-slot mean estimates,
//!   windowed subsequence means, and the population distribution of
//!   per-user means. Snapshot numbers agree with the offline batch path
//!   ([`ldp_core::crowd::estimated_population_means`]) — see
//!   [`ReseedingSession`] and the `tests/` crate's agreement tests.
//! * [`QueryEngine`] — the **live** query path: per-shard epoch-versioned
//!   [`SnapshotPart`]s cached behind an `RwLock`/`Arc` swap, refreshed by
//!   re-extracting only the shards whose epoch advanced and re-running
//!   the one merge ([`MergedParts::merge`], the function a snapshot and a
//!   router use) over the cache, so crowd queries are served in O(window)
//!   without ever taking an ingest mutex — and a refreshed view's table
//!   is bit-identical to a snapshot's at quiescence.
//! * [`SlotRetention`] — bounds per-slot state to the most recent `R`
//!   slots per shard (expired slots fold into exact frozen prefix
//!   totals), so collector memory is O(R) on unbounded streams.
//! * [`ClientFleet`] — a simulator that drives one
//!   [`ldp_core::online::OnlineSession`] per user of an
//!   [`ldp_streams::Population`] across worker threads, for
//!   scale tests at millions of reports. The fleet runs any
//!   [`ldp_core::PipelineSpec`] cell — every feedback rule
//!   (direct / IPP / APP / CAPP) over every mechanism
//!   (SW / SR / PM / Laplace / HM) — with per-worker buffer reuse, so the
//!   steady-state upload loop allocates nothing per user.
//!
//! # Quickstart
//!
//! ```
//! use ldp_collector::{ClientFleet, Collector, CollectorConfig, FleetConfig};
//! use ldp_core::{PipelineSpec, SessionKind};
//! use ldp_streams::synthetic::taxi_population;
//!
//! let population = taxi_population(50, 40, 7);
//! let collector = Collector::new(CollectorConfig { shards: 4, ..CollectorConfig::default() });
//! let fleet = ClientFleet::new(FleetConfig {
//!     spec: PipelineSpec::sw(SessionKind::Capp), // any SessionKind × MechanismKind cell
//!     epsilon: 2.0,
//!     w: 10,
//!     seed: 99,
//!     threads: 4,
//! });
//! let reports = fleet.drive(&population, 0..40, &collector).unwrap();
//! assert_eq!(reports, 50 * 40);
//!
//! let snapshot = collector.snapshot();
//! let crowd_mean = snapshot.windowed_mean(0..40).unwrap();
//! assert!(crowd_mean.is_finite());
//! assert_eq!(snapshot.per_user_means().len(), 50);
//! ```

pub mod accumulator;
pub mod checkpoint;
pub mod engine;
pub mod fleet;
mod pool;
pub mod query;
pub mod report;
pub mod snapshot;
pub mod sync;

pub use accumulator::{ShardAccumulator, SlotRetention, SlotStats, UserStats};
pub use checkpoint::CheckpointError;
pub use engine::{
    default_ingest_workers, default_parallelism, Collector, CollectorConfig, IngestOutcome,
    DEFAULT_PARALLEL_FOLD_MIN,
};
pub use fleet::{
    user_seed, ClientFleet, CollectorSink, FleetConfig, FleetError, ReportSink, ReseedingSession,
};
pub use query::{LiveView, QueryEngine};
pub use report::{AsReportColumns, ReportBatch, ReportColumns};
pub use snapshot::{CollectorSnapshot, MergedParts, SlotTable, SnapshotPart};
