//! Simple Moving Average post-processing (paper §IV-A).
//!
//! SW deviations are bidirectional, so averaging adjacent published values
//! lets positive and negative noise cancel: Lemma IV.1 shows the smoothed
//! variance drops by the window size. Smoothing is pure post-processing of
//! already-private outputs, so it consumes no budget. APP and CAPP run it
//! in place over the buffer they publish into.

/// Centered simple moving average with window `2k+1` where `window = 2k+1`.
///
/// At the boundaries, where fewer than `2k+1` values exist, the available
/// values are averaged (exactly the paper's boundary rule). `window` is
/// expected to be odd; an even value is widened by one to stay centered.
/// `window <= 1` returns the input unchanged.
#[must_use]
pub fn sma(xs: &[f64], window: usize) -> Vec<f64> {
    let mut out = Vec::new();
    sma_in_place(window, xs.len(), &mut out, |raw| raw.copy_from_slice(xs));
    out
}

/// [`sma`] in place over `out`: `fill` writes the `n` raw values into
/// `out[k..k + n]` (`k = window / 2`), and slot `t` then averages
/// `out[max(k, t)..min(n + k, t + 2k + 1)]`, which later slots never read.
/// Each window sums the raw values in stream order, so the bits are `sma`'s.
pub(crate) fn sma_in_place(
    window: usize,
    n: usize,
    out: &mut Vec<f64>,
    fill: impl FnOnce(&mut [f64]),
) {
    let k = if window <= 1 { 0 } else { window / 2 };
    out.clear();
    out.resize(n + k, 0.0);
    fill(&mut out[k..]);
    if k == 0 {
        return;
    }
    for t in 0..n {
        let lo = t.max(k);
        let hi = (t + 2 * k + 1).min(n + k);
        out[t] = out[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
    }
    out.truncate(n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_one_is_identity() {
        let xs = [0.3, 0.9, 0.1];
        assert_eq!(sma(&xs, 1), xs.to_vec());
        assert_eq!(sma(&xs, 0), xs.to_vec());
    }

    #[test]
    fn empty_input_stays_empty() {
        assert!(sma(&[], 3).is_empty());
    }

    #[test]
    fn interior_average_window_three() {
        let xs = [0.0, 3.0, 6.0, 9.0];
        let out = sma(&xs, 3);
        assert!((out[1] - 3.0).abs() < 1e-12);
        assert!((out[2] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn boundaries_average_available_values() {
        let xs = [0.0, 3.0, 6.0];
        let out = sma(&xs, 3);
        assert!((out[0] - 1.5).abs() < 1e-12); // (0+3)/2
        assert!((out[2] - 4.5).abs() < 1e-12); // (3+6)/2
    }

    #[test]
    fn preserves_constant_streams() {
        let xs = vec![0.7; 20];
        assert!(sma(&xs, 5).iter().all(|&v| (v - 0.7).abs() < 1e-12));
    }

    #[test]
    fn reduces_noise_variance() {
        // Deterministic "noise": alternating ±1 around 0.5.
        let xs: Vec<f64> = (0..200)
            .map(|i| 0.5 + if i % 2 == 0 { 0.4 } else { -0.4 })
            .collect();
        let out = sma(&xs, 3);
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
        };
        assert!(var(&out) < var(&xs) / 2.0);
    }

    #[test]
    fn smoothing_preserves_interior_mean() {
        // On a long stream the SMA mean stays very close to the raw mean
        // (the paper: "smoothing has no impact on the mean").
        let xs: Vec<f64> = (0..500).map(|i| ((i * 37) % 100) as f64 / 100.0).collect();
        let out = sma(&xs, 3);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!((mean(&out) - mean(&xs)).abs() < 5e-3);
    }

    #[test]
    fn even_window_widens_to_centered() {
        let xs = [0.0, 3.0, 6.0, 9.0, 12.0];
        // window 4 -> k = 2, behaves like window 5
        assert_eq!(sma(&xs, 4), sma(&xs, 5));
    }
}
