//! `ldp-telemetry` — operational telemetry for the LDP streaming stack.
//!
//! This crate is the repo's *observability* layer: runtime counters,
//! gauges, and latency/size histograms for a live system. It is distinct
//! from `ldp-metrics`, which implements the paper's estimation-*accuracy*
//! metrics (MAE over distributions) for offline experiments.
//!
//! Like `crates/shims`, everything here is std-only and in-tree — the
//! workspace builds with no registry access, so there is no `prometheus`
//! or `metrics` crate to lean on.
//!
//! # Design
//!
//! * [`Counter`] / [`Gauge`] — single atomics. Updates are lock-free and
//!   wait-free; reads never stall writers.
//! * [`Histogram`] — a fixed-size array of atomic buckets with
//!   power-of-two (log₂) bounds: bucket *i* counts samples whose value
//!   has bit-length *i*. Recording is two or three relaxed atomic RMWs
//!   (bucket, sum, conditional max) and **never allocates**, so it is
//!   safe on a zero-alloc hot path. p50/p90/p99/max are derived from a
//!   [`HistogramSnapshot`], never maintained online.
//! * [`Timer`] — a scoped latency probe: started from a histogram,
//!   records elapsed nanoseconds on drop, or nothing once
//!   [cancelled](Timer::cancel).
//! * [`Registry`] — a named directory of metric handles. The *hot path*
//!   (updating a metric through its `Arc` handle) is lock-free;
//!   registration and [`Registry::snapshot`] are cold paths that take a
//!   short internal mutex. Handles are get-or-create by name, so two
//!   subsystems naming the same metric share one atomic.
//! * [`TelemetrySnapshot`] — an owned, point-in-time copy of every
//!   registered metric: the unit served over the wire by `ldp-server`'s
//!   `Metrics` reply (every tier's counters travel only there) and
//!   rendered by the workspace's `dashboard` example. A histogram
//!   snapshot's total count is *derived from its buckets*, so bucket sum
//!   and count can never disagree (no torn two-counter reads).
//!
//! # Conventions
//!
//! Metric names are dotted paths, `<subsystem>.<object>.<signal>`, and
//! the metric kind follows the signal's shape: monotone event totals are
//! [`Counter`]s, instantaneous levels are [`Gauge`]s, and per-event
//! durations/sizes are [`Histogram`]s. The collector's work-stealing
//! fold pool is the worked example: `collector.pool.runs` and
//! `collector.pool.steals` are counters (their *ratio* is the steal
//! rate), `collector.pool.queue_depth` and
//! `collector.pool.workers_busy` are gauges (they must read zero at
//! rest — a leak in either is a lost-run bug), and
//! `collector.ingest.fold_parallel_nanos` is a histogram whose tail is
//! compared against `collector.ingest.fold_nanos` to see what
//! parallelism bought. Because handles are get-or-create by name, a
//! subsystem registering "its" metric twice (engine + pool, say) shares
//! one atomic rather than splitting the signal.
//!
//! # Quickstart
//!
//! ```
//! use ldp_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let accepted = registry.counter("ingest.accepted");
//! let fold = registry.histogram("ingest.fold_nanos");
//!
//! accepted.add(3);
//! {
//!     let _t = fold.timer(); // records elapsed nanos when dropped
//! }
//! fold.record(1_500); // or record a value directly
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("ingest.accepted"), Some(3));
//! let h = snap.histogram("ingest.fold_nanos").unwrap();
//! assert_eq!(h.count(), 2);
//! assert!(h.quantile(0.99) >= h.quantile(0.50));
//! ```

#![forbid(unsafe_code)]

pub mod metric;
pub mod registry;
pub mod snapshot;

pub use metric::{bucket_bound, bucket_index, Counter, Gauge, Histogram, Timer, HISTOGRAM_BUCKETS};
pub use registry::{Metric, Registry};
pub use snapshot::{HistogramSnapshot, MetricEntry, MetricValue, TelemetrySnapshot};
