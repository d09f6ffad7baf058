//! Medians, percentiles and the "at least ten samples beyond" rule.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// If `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// (min, median, max) of `values`.
pub fn min_median_max(values: &[f64]) -> (f64, f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, median(values), max)
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `pct`% of the samples at or below it.
pub fn percentile_sorted(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_PERCENTILES: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Samples needed beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_PERCENTILES`] that still has at least
/// [`MIN_BEYOND`] of `n` samples beyond it; `None` when even p75 has not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|pct| samples_beyond(n, *pct) >= MIN_BEYOND)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `pct`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// A latency distribution reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Sample count.
    pub n: usize,
    /// Median, in nanoseconds.
    pub p50_ns: u64,
    /// The tail, in nanoseconds, at [`Self::tail_pct`].
    pub tail_ns: u64,
    /// The percentile the tail was read at: `wanted` if it has ten
    /// samples beyond it, else the highest lower one that has, else 50
    /// (the tail then repeats the median and the run is flagged).
    pub tail_pct: f64,
}

/// Summarises nanosecond samples. The tail is read at `wanted_pct` when
/// at least ten samples lie beyond it, else at the highest percentile
/// that rule allows — never above `wanted_pct`, so a faster
/// build that gathers more samples does not silently move to a higher
/// percentile.
pub fn summarize_latency(samples: &mut [u64], wanted_pct: f64) -> LatencySummary {
    assert!(!samples.is_empty(), "latency summary of no samples");
    samples.sort_unstable();
    let n = samples.len();
    let tail_pct = tail_percentile(n).map_or(50.0, |allowed| allowed.min(wanted_pct));
    LatencySummary {
        n,
        p50_ns: percentile_sorted(samples, 50.0),
        tail_ns: percentile_sorted(samples, tail_pct),
        tail_pct,
    }
}

/// A fixed-size latency histogram for loops too fast to keep every
/// sample (a dashboard answers ~10^5 queries a second, and a sample
/// buffer that grows with the rate would make `peak_rss_mb` depend on the
/// rate): linear buckets of [`Self::WIDTH_NS`] up to [`Self::SPAN_NS`],
/// and the rare waits beyond that kept exactly.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u32>,
    beyond: Vec<u64>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: vec![0; (Self::SPAN_NS / Self::WIDTH_NS) as usize],
            beyond: Vec::new(),
        }
    }
}

impl LatencyHistogram {
    /// Resolution: 0.05 us.
    pub const WIDTH_NS: u64 = 50;
    /// Waits of a millisecond or more are kept one by one.
    pub const SPAN_NS: u64 = 1_000_000;

    pub fn record(&mut self, ns: u64) {
        match self.buckets.get_mut((ns / Self::WIDTH_NS) as usize) {
            Some(count) => *count += 1,
            None => self.beyond.push(ns),
        }
    }

    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.beyond.extend_from_slice(&other.beyond);
    }

    pub fn len(&self) -> usize {
        self.buckets.iter().map(|&c| c as usize).sum::<usize>() + self.beyond.len()
    }

    /// Nearest-rank percentile; a bucketed wait reads as its bucket's
    /// upper edge.
    fn percentile(&self, sorted_beyond: &[u64], pct: f64) -> u64 {
        let n = self.len();
        let rank = (((pct / 100.0) * n as f64).ceil() as usize).clamp(1, n);
        let mut seen = 0usize;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count as usize;
            if seen >= rank {
                return (i as u64 + 1) * Self::WIDTH_NS;
            }
        }
        sorted_beyond[rank - seen - 1]
    }

    /// The same reduction as [`summarize_latency`]; `None` when empty.
    pub fn summarize(&self, wanted_pct: f64) -> Option<LatencySummary> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        let mut beyond = self.beyond.clone();
        beyond.sort_unstable();
        let tail_pct = tail_percentile(n).map_or(50.0, |allowed| allowed.min(wanted_pct));
        Some(LatencySummary {
            n,
            p50_ns: self.percentile(&beyond, 50.0),
            tail_ns: self.percentile(&beyond, tail_pct),
            tail_pct,
        })
    }
}

/// Splits a run of `(elapsed_seconds, amount)` completion events into
/// `parts` equal slices of `[0, window]` and returns each slice's rate
/// (amount per second); see [`faster_half_mean`] for how they are reduced.
pub fn slice_rates(events: &[(f64, f64)], window: f64, parts: usize) -> Vec<f64> {
    assert!(parts > 0 && window > 0.0);
    let width = window / parts as f64;
    let mut sums = vec![0.0; parts];
    for &(at, amount) in events {
        if at < window {
            sums[((at / width) as usize).min(parts - 1)] += amount;
        }
    }
    sums.into_iter().map(|s| s / width).collect()
}

/// Mean of the faster half of `rates` (of all of them when there is one).
///
/// The machine's interference only ever slows a slice down, in spells of
/// seconds to minutes, so the faster half is the half it touched least;
/// anything the program itself does to every slice — including stalls
/// shorter than a slice — moves this as it moves the plain mean.
///
/// # Panics
/// If `rates` is empty or holds a NaN.
pub fn faster_half_mean(rates: &[f64]) -> f64 {
    assert!(!rates.is_empty(), "mean of no samples");
    let mut sorted = rates.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let faster = &sorted[sorted.len() / 2..];
    faster.iter().sum::<f64>() / faster.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(min_median_max(&[5.0, 9.0, 1.0]), (1.0, 5.0, 9.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100);
        assert_eq!(percentile_sorted(&[42], 99.0), 42);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // p99 of 1,000 samples has exactly 10 beyond; 999 has only 9.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
    }

    #[test]
    fn latency_summary_falls_back_but_never_climbs() {
        let mut many: Vec<u64> = (1..=2000).collect();
        let s = summarize_latency(&mut many, 99.0);
        assert_eq!(
            (s.n, s.p50_ns, s.tail_ns, s.tail_pct),
            (2000, 1000, 1980, 99.0)
        );
        // A workload that asks for p90 stays at p90 however many samples.
        let s = summarize_latency(&mut many, 90.0);
        assert_eq!((s.tail_ns, s.tail_pct), (1800, 90.0));
        // Too few samples for p99: fall back to the highest allowed.
        let mut few: Vec<u64> = (1..=150).collect();
        let s = summarize_latency(&mut few, 99.0);
        assert_eq!((s.tail_ns, s.tail_pct), (135, 90.0));
        let mut tiny: Vec<u64> = (1..=8).collect();
        let s = summarize_latency(&mut tiny, 99.0);
        assert_eq!((s.tail_ns, s.tail_pct), (4, 50.0));
    }

    #[test]
    fn the_histogram_agrees_with_the_exact_summary_to_its_resolution() {
        let mut exact: Vec<u64> = (0..5_000u64)
            .map(|i| 3_000 + (i * 7_919) % 90_000)
            .collect();
        exact.extend([2_000_000, 1_500_000, 7_000_000]); // beyond the span
        let mut histogram = LatencyHistogram::default();
        let mut half = LatencyHistogram::default();
        for (i, &ns) in exact.iter().enumerate() {
            if i % 2 == 0 {
                histogram.record(ns);
            } else {
                half.record(ns);
            }
        }
        histogram.merge(&half);
        assert_eq!(histogram.len(), exact.len());
        let got = histogram.summarize(99.0).unwrap();
        let want = summarize_latency(&mut exact, 99.0);
        assert_eq!((got.n, got.tail_pct), (want.n, want.tail_pct));
        for (got, want) in [(got.p50_ns, want.p50_ns), (got.tail_ns, want.tail_ns)] {
            assert!(
                got >= want && got - want <= LatencyHistogram::WIDTH_NS,
                "{got} vs {want}"
            );
        }
        // The top of the distribution is read from the exact overflow.
        assert_eq!(
            histogram.percentile(&[1_500_000, 2_000_000, 7_000_000], 100.0),
            7_000_000
        );
        assert!(LatencyHistogram::default().summarize(99.0).is_none());
    }

    #[test]
    fn faster_half_mean_ignores_the_slower_half() {
        assert_eq!(faster_half_mean(&[7.0]), 7.0);
        assert_eq!(faster_half_mean(&[1.0, 9.0]), 9.0);
        // Odd count: the middle sample belongs to the faster half.
        assert_eq!(faster_half_mean(&[4.0, 1.0, 6.0]), 5.0);
        // A slow spell over four of ten slices does not move it...
        let calm = [10.0; 10];
        let mut spell = calm;
        spell[3..7].fill(5.0);
        assert_eq!(faster_half_mean(&spell), faster_half_mean(&calm));
        // ...a program that is slower in every slice does.
        assert_eq!(faster_half_mean(&[8.0; 10]), 8.0);
    }

    #[test]
    fn slice_rates_bin_events_by_completion_time() {
        let events = [
            (0.5, 10.0),
            (0.9, 10.0),
            (1.5, 30.0),
            (3.99, 8.0),
            (4.0, 99.0),
        ];
        assert_eq!(slice_rates(&events, 4.0, 4), vec![20.0, 30.0, 0.0, 8.0]);
        assert_eq!(slice_rates(&events, 4.0, 2), vec![25.0, 4.0]);
    }
}
