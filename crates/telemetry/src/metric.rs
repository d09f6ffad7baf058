//! The lock-free metric primitives: [`Counter`], [`Gauge`],
//! [`Histogram`], and the scoped [`Timer`].
//!
//! Every update is a relaxed atomic RMW — no locks, no allocation — so
//! these are safe to touch from the zero-alloc ingest hot path. Relaxed
//! ordering is deliberate: telemetry observes rates and distributions,
//! it never synchronizes program state, and the snapshot reader tolerates
//! being a few stores behind any individual writer.

use crate::snapshot::HistogramSnapshot;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed level that can move both ways (e.g. active connections).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    /// Adds `n` (negative to subtract).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per possible bit-length of a `u64`
/// sample, so any value has exactly one bucket and the array never needs
/// to grow.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The bucket a sample lands in: its bit length minus one (0 and 1 share
/// bucket 0). Bucket `i ≥ 1` therefore covers `[2^i, 2^(i+1) - 1]` —
/// log₂-spaced bounds, ~1 significant figure of resolution, which is the
/// right fidelity for latency/size distributions at nanosecond scale.
#[inline]
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - 1 - (value | 1).leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `index` (the value a quantile estimate
/// reports for samples in that bucket — conservative, never an
/// underestimate beyond the bucket's own width).
#[inline]
#[must_use]
pub fn bucket_bound(index: usize) -> u64 {
    if index >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (index + 1)) - 1
    }
}

/// A lock-free log₂-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, sizes in bytes, per-refresh shard counts, …).
///
/// The bucket array is fixed-size ([`HISTOGRAM_BUCKETS`] atomics), so
/// recording never allocates and a snapshot is a bounded copy. The total
/// count is *not* kept as a separate atomic: a snapshot derives it from
/// the buckets it read, so `count == Σ buckets` holds in every snapshot
/// by construction — concurrent recording can make a snapshot slightly
/// stale, never internally torn.
#[derive(Debug)]
pub struct Histogram {
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample — three relaxed RMWs (bucket, sum, conditional
    /// max), zero allocation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as whole nanoseconds (saturating at `u64::MAX`
    /// — ~584 years — rather than wrapping).
    #[inline]
    pub fn record_duration(&self, elapsed: std::time::Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts a scoped timer that records the elapsed nanoseconds into
    /// this histogram when dropped.
    #[inline]
    #[must_use]
    pub fn timer(&self) -> Timer<'_> {
        Timer {
            histogram: self,
            start: Instant::now(),
        }
    }

    /// A point-in-time copy of the distribution. Count is derived from
    /// the copied buckets (see the type docs), trailing empty buckets are
    /// trimmed.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Scoped latency probe from [`Histogram::timer`]: records on drop.
///
/// Explicitly droppable early (`drop(t)`) to time a sub-scope, or
/// discarded without recording via [`Timer::cancel`].
#[derive(Debug)]
pub struct Timer<'a> {
    histogram: &'a Histogram,
    start: Instant,
}

impl Timer<'_> {
    /// Discards the timer without recording anything.
    pub fn cancel(self) {
        std::mem::forget(self);
    }
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        self.histogram.record_duration(self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_the_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bucket_bounds_cover_without_gaps() {
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            // The first value of bucket i+1 is one past bucket i's bound.
            assert_eq!(bucket_index(bucket_bound(i)), i);
            assert_eq!(bucket_index(bucket_bound(i) + 1), i + 1);
        }
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn counter_and_gauge_accumulate() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        c.add(0);
        assert_eq!(c.get(), 42);

        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        g.add(-3);
        assert_eq!(g.get(), -2);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_snapshot_count_matches_recorded_samples() {
        let h = Histogram::new();
        for v in [0, 1, 2, 100, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 6);
        assert_eq!(snap.max(), u64::MAX);
        assert_eq!(snap.buckets()[0], 2, "0 and 1 share bucket 0");
    }

    #[test]
    fn cancelled_timer_records_nothing() {
        let h = Histogram::new();
        let t = h.timer();
        t.cancel();
        assert_eq!(h.snapshot().count(), 0);
    }
}
