//! A single user's numeric data stream.

use std::ops::Range;

/// An owned numeric time series belonging to one user.
///
/// The paper's algorithms assume values in `[0, 1]`; [`Stream::normalize_unit`]
/// performs the min-max normalization applied to every dataset before
/// collection, and [`Stream::rescale`] maps a unit stream onto `[−1, 1]`
/// for the Laplace/SR/PM mechanism family.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    values: Vec<f64>,
}

impl Stream {
    /// Wraps a vector of values.
    #[must_use]
    pub fn new(values: Vec<f64>) -> Self {
        Self { values }
    }

    /// Number of time slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the stream holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the raw values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The subsequence `X(i,j) = {x_i, …, x_j}` over a half-open range
    /// (`range.start..range.end` in 0-based slots).
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn subsequence(&self, range: Range<usize>) -> &[f64] {
        &self.values[range]
    }

    /// Arithmetic mean of the whole stream (0 for empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Minimum value (`+inf` for empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum value (`−inf` for empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Min-max normalizes the stream into `[0, 1]` in place. A constant
    /// stream maps to all-0.5 (midpoint) to avoid division by zero.
    pub fn normalize_unit(&mut self) {
        let (lo, hi) = (self.min(), self.max());
        if self.values.is_empty() {
            return;
        }
        if hi == lo {
            self.values.iter_mut().for_each(|v| *v = 0.5);
            return;
        }
        let w = hi - lo;
        self.values.iter_mut().for_each(|v| *v = (*v - lo) / w);
    }

    /// Affinely rescales values from `[0,1]` onto `[lo, hi]` in place.
    pub fn rescale(&mut self, lo: f64, hi: f64) {
        self.values
            .iter_mut()
            .for_each(|v| *v = lo + *v * (hi - lo));
    }
}

impl From<Vec<f64>> for Stream {
    fn from(values: Vec<f64>) -> Self {
        Self::new(values)
    }
}

impl FromIterator<f64> for Stream {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let s = Stream::new(vec![0.1, 0.9, 0.4]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.min(), 0.1);
        assert_eq!(s.max(), 0.9);
        assert!((s.mean() - 0.4666666666).abs() < 1e-8);
    }

    #[test]
    fn subsequence_slices_correctly() {
        let s = Stream::new((0..10).map(f64::from).collect());
        assert_eq!(s.subsequence(2..5), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn normalize_unit_maps_to_unit_interval() {
        let mut s = Stream::new(vec![-5.0, 0.0, 5.0]);
        s.normalize_unit();
        assert_eq!(s.values(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn normalize_constant_stream_to_midpoint() {
        let mut s = Stream::new(vec![3.0, 3.0, 3.0]);
        s.normalize_unit();
        assert_eq!(s.values(), &[0.5, 0.5, 0.5]);
    }

    #[test]
    fn rescale_to_symmetric() {
        let mut s = Stream::new(vec![0.0, 0.5, 1.0]);
        s.rescale(-1.0, 1.0);
        assert_eq!(s.values(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn empty_stream_degenerate_stats() {
        let s = Stream::new(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn from_iterator_collects() {
        let s: Stream = (0..3).map(|i| i as f64).collect();
        assert_eq!(s.values(), &[0.0, 1.0, 2.0]);
    }
}
