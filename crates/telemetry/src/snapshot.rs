//! Owned, point-in-time copies of metric state: what a dashboard renders
//! and what the server's `Metrics` reply carries.

use crate::metric::{bucket_bound, HISTOGRAM_BUCKETS};

/// A point-in-time copy of one histogram's distribution.
///
/// The total count is **derived from the buckets** ([`Self::count`]), so
/// `count == Σ buckets` holds in every snapshot by construction; `sum`
/// and `max` are read from separate atomics and may trail the buckets by
/// a few in-flight samples under concurrent recording (never by more).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub(crate) sum: u64,
    pub(crate) max: u64,
    /// Bucket counts, trailing zeros trimmed; `buckets[i]` counts samples
    /// with bit length `i + 1` (see [`crate::bucket_index`]).
    pub(crate) buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Builds a snapshot from raw parts (the wire decoder's entry point).
    ///
    /// # Panics
    /// Panics if more than [`HISTOGRAM_BUCKETS`] buckets are supplied —
    /// wire decoding validates the bound before calling this.
    #[must_use]
    pub fn from_parts(sum: u64, max: u64, buckets: Vec<u64>) -> Self {
        assert!(
            buckets.len() <= HISTOGRAM_BUCKETS,
            "histogram has at most {HISTOGRAM_BUCKETS} buckets"
        );
        Self { sum, max, buckets }
    }

    /// Total samples recorded — always exactly the sum of
    /// [`Self::buckets`].
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded sample values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (exact, not bucket-rounded).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The raw bucket counts (trailing zeros trimmed).
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Mean sample value, `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let count = self.count();
        (count > 0).then(|| self.sum as f64 / count as f64)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), estimated as the **upper bound**
    /// of the bucket containing the target rank — conservative to within
    /// one power of two, and clamped at [`Self::max`] so the estimate
    /// never exceeds a value actually seen. `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the sample the quantile asks for, 1-based.
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median estimate (see [`Self::quantile`]).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    #[must_use]
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

/// One metric's snapshotted value, tagged by kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotone counter's current value.
    Counter(u64),
    /// A gauge's current level.
    Gauge(i64),
    /// A histogram's distribution.
    Histogram(HistogramSnapshot),
}

/// One named metric in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricEntry {
    /// The metric's registered name.
    pub name: String,
    /// Its value at snapshot time.
    pub value: MetricValue,
}

/// A point-in-time copy of every metric in a [`crate::Registry`], sorted
/// by name. This is the unit the server serves over the wire and the
/// `dashboard` example renders.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// All entries, sorted by name (the registry guarantees uniqueness).
    pub entries: Vec<MetricEntry>,
}

impl TelemetrySnapshot {
    /// Looks up one entry's value by exact name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].value)
    }

    /// The value of counter `name`, if present and a counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The level of gauge `name`, if present and a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The distribution of histogram `name`, if present and a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(buckets: Vec<u64>, sum: u64, max: u64) -> HistogramSnapshot {
        HistogramSnapshot::from_parts(sum, max, buckets)
    }

    #[test]
    fn quantiles_walk_the_buckets_conservatively() {
        // 90 samples in bucket 3 (values 8..=15), 10 in bucket 10
        // (1024..=2047): p50 lands in bucket 3, p99 in bucket 10.
        let mut buckets = vec![0u64; 11];
        buckets[3] = 90;
        buckets[10] = 10;
        let h = hist(buckets, 90 * 12 + 10 * 1500, 1900);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), Some(15));
        assert_eq!(h.p90(), Some(15));
        assert_eq!(h.p99(), Some(1900), "clamped at the observed max");
        assert_eq!(h.quantile(0.0), Some(15), "rank clamps to the first sample");
        assert_eq!(h.quantile(1.0), Some(1900));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = HistogramSnapshot::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p99(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn snapshot_lookup_by_kind() {
        let snap = TelemetrySnapshot {
            entries: vec![
                MetricEntry {
                    name: "a.count".into(),
                    value: MetricValue::Counter(5),
                },
                MetricEntry {
                    name: "b.level".into(),
                    value: MetricValue::Gauge(-2),
                },
                MetricEntry {
                    name: "c.nanos".into(),
                    value: MetricValue::Histogram(hist(vec![1], 1, 1)),
                },
            ],
        };
        assert_eq!(snap.counter("a.count"), Some(5));
        assert_eq!(snap.gauge("b.level"), Some(-2));
        assert_eq!(snap.histogram("c.nanos").unwrap().count(), 1);
        assert_eq!(snap.counter("b.level"), None, "kind mismatch is None");
        assert_eq!(snap.get("missing"), None);
    }
}
