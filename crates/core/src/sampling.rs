//! Perturbation Parameterization with Sampling (PP-S, paper §V,
//! Algorithm 3).
//!
//! Instead of reporting every slot with budget `ε/w`, the query interval is
//! divided into `n_s` segments; the user uploads each segment's *mean* once
//! with a larger budget, and the collector replicates the perturbed mean
//! across the segment. Fewer uploads per window ⇒ more budget per upload ⇒
//! better subsequence-mean accuracy, at some cost in stream detail.
//!
//! # Budget accounting
//!
//! Upload slots are one per segment, `seg_len = ⌊q/n_s⌋` apart, so any
//! window of `w` consecutive slots contains at most `n_w = ⌈w/seg_len⌉`
//! uploads; giving each upload `ε/n_w` bounds the window spend by ε
//! (Theorem 6, which states the guarantee in terms of the `n_w` sampled
//! values per window). Note Algorithm 3's printed `γ = min{⌊len/n_s⌋, w}`
//! is the segment-length/window minimum; we implement the accounting of
//! Theorem 6 and of the worked Figure 3 example (`w = 3`, `seg_len = 3` ⇒
//! full ε per upload), which that formula only matches when `seg_len ≥ w`.
//!
//! # Choosing `n_s`
//!
//! The paper minimizes `n_s · Var(n_s, ε)` where `Var(n_s, ε)` is the
//! variance of the *sample variance* of `n_s` SW outputs at the worst-case
//! input `x = 1` (Equation 13): `Var = (µ₄ − σ²·(n_s−3)/(n_s−1)) / n_s`,
//! with σ² and µ₄ the SW output central moments.

use crate::accountant::slot_budget;
use crate::kernel::Kernel;
use crate::online::{PipelineSpec, SessionKind};
use crate::publisher::StreamMechanism;
use crate::Result;
use ldp_mechanisms::SquareWave;
use rand::RngCore;

/// Variance of the sample variance of `ns` i.i.d. SW outputs at `x = 1`
/// (paper Equation 13). Defined for `ns ≥ 2`.
#[must_use]
pub fn variance_of_sample_variance(sw: &SquareWave, ns: usize) -> f64 {
    debug_assert!(ns >= 2, "sample variance needs at least 2 samples");
    let sigma2 = sw.output_variance(1.0);
    let mu4 = sw.fourth_central_moment(1.0);
    (mu4 - sigma2 * sigma2 * (ns as f64 - 3.0) / (ns as f64 - 1.0)) / ns as f64
}

/// Number of uploads a window of `w` slots can contain when uploads are
/// `seg_len` slots apart.
fn uploads_per_window(w: usize, seg_len: usize) -> usize {
    w.div_ceil(seg_len).max(1)
}

/// The paper's `n_s` optimizer: enumerate `n_s ∈ {2, …, q}` and minimize
/// `n_s · Var(n_s, ε_seg(n_s))`, where `ε_seg` is the per-upload budget
/// implied by the w-event accounting above.
///
/// Returns 1 for degenerate intervals (`q < 2`).
///
/// # Panics
/// Panics if `epsilon` or `w` is invalid (they should come from an already
/// validated configuration).
#[must_use]
pub fn optimal_sample_count(epsilon: f64, w: usize, q: usize) -> usize {
    assert!(epsilon > 0.0 && w > 0, "invalid (epsilon, w)");
    if q < 2 {
        return 1;
    }
    let mut best = (f64::INFINITY, 2usize);
    for ns in 2..=q {
        let seg_len = q / ns;
        if seg_len == 0 {
            break;
        }
        let eps_seg = epsilon / uploads_per_window(w, seg_len) as f64;
        let Ok(sw) = SquareWave::new(eps_seg) else {
            continue;
        };
        let objective = ns as f64 * variance_of_sample_variance(&sw, ns);
        if objective < best.0 {
            best = (objective, ns);
        }
    }
    best.1
}

/// PP-S: sampling composed with a perturbation-parameterization rule over
/// SW (with [`SessionKind::SwDirect`], the naive "Sampling" baseline).
/// The segment means are published unsmoothed: replicated means must not
/// blur segment boundaries (Algorithm 3 has no smoothing step).
#[derive(Debug, Clone)]
pub struct Sampling {
    kind: SessionKind,
    epsilon: f64,
    w: usize,
    ns: Option<usize>,
}

impl Sampling {
    /// Creates a PP-S publisher with window budget `epsilon`, window size
    /// `w`, and automatic `n_s` selection.
    ///
    /// # Errors
    /// Returns an error if `epsilon` is invalid or `w == 0`.
    pub fn new(kind: SessionKind, epsilon: f64, w: usize) -> Result<Self> {
        slot_budget(epsilon, w)?;
        Ok(Self {
            kind,
            epsilon,
            w,
            ns: None,
        })
    }

    /// Fixes the number of segments instead of optimizing it.
    #[must_use]
    pub fn with_sample_count(mut self, ns: usize) -> Self {
        self.ns = Some(ns.max(1));
        self
    }

    /// The segment count that will be used for a query of length `q`.
    #[must_use]
    pub fn sample_count(&self, q: usize) -> usize {
        self.ns
            .unwrap_or_else(|| optimal_sample_count(self.epsilon, self.w, q))
            .min(q.max(1))
    }

    /// Per-upload budget for a query of length `q`.
    #[must_use]
    pub fn upload_epsilon(&self, q: usize) -> f64 {
        let ns = self.sample_count(q);
        self.segment_epsilon((q / ns).max(1))
    }

    /// Per-upload budget when uploads are `seg_len` slots apart.
    fn segment_epsilon(&self, seg_len: usize) -> f64 {
        self.epsilon / uploads_per_window(self.w, seg_len) as f64
    }
}

impl StreamMechanism for Sampling {
    /// Algorithm 3: segment the interval, upload perturbed segment means,
    /// replicate each across its segment.
    fn publish_into(&self, xs: &[f64], out: &mut Vec<f64>, rng: &mut dyn RngCore) {
        out.clear();
        let q = xs.len();
        if q == 0 {
            return;
        }
        let ns = self.sample_count(q);
        let seg_len = (q / ns).max(1);
        let kernel = Kernel::of_spec(PipelineSpec::sw(self.kind), self.segment_epsilon(seg_len))
            .expect("validated at construction");

        // The segment means are one stream to the kernel: each upload
        // corrects the deviation of the uploads before it.
        out.reserve(q);
        let mut deviation = 0.0;
        for r in 0..ns {
            let lo = r * seg_len;
            let hi = if r + 1 == ns { q } else { lo + seg_len };
            let seg = &xs[lo..hi];
            let mean = seg.iter().sum::<f64>() / seg.len() as f64;
            let perturbed = kernel.step(mean, &mut deviation, rng);
            out.extend(std::iter::repeat_n(perturbed, hi - lo));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn uploads_per_window_matches_figure3() {
        // w = 3, seg_len = 3: one upload per window -> full ε each.
        assert_eq!(uploads_per_window(3, 3), 1);
        assert_eq!(uploads_per_window(3, 2), 2);
        assert_eq!(uploads_per_window(10, 3), 4);
        assert_eq!(uploads_per_window(5, 10), 1);
    }

    #[test]
    fn variance_of_sample_variance_positive_and_decreasing() {
        let sw = SquareWave::new(1.0).unwrap();
        let v2 = variance_of_sample_variance(&sw, 2);
        let v50 = variance_of_sample_variance(&sw, 50);
        assert!(v2 > 0.0 && v50 > 0.0);
        assert!(v50 < v2, "more samples must stabilize the sample variance");
    }

    #[test]
    fn optimal_sample_count_is_valid() {
        for &(eps, w, q) in &[(1.0, 10, 30), (0.5, 20, 40), (3.0, 30, 10), (1.0, 5, 2)] {
            let ns = optimal_sample_count(eps, w, q);
            assert!(ns >= 1 && ns <= q.max(1), "ns={ns} for q={q}");
        }
    }

    #[test]
    fn degenerate_query_returns_one_segment() {
        assert_eq!(optimal_sample_count(1.0, 10, 1), 1);
        assert_eq!(optimal_sample_count(1.0, 10, 0), 1);
    }

    #[test]
    fn output_has_input_length_and_segment_structure() {
        let s = Sampling::new(SessionKind::App, 1.0, 10)
            .unwrap()
            .with_sample_count(3);
        let xs: Vec<f64> = (0..31).map(|i| i as f64 / 31.0).collect();
        let out = s.publish(&xs, &mut rng(1));
        assert_eq!(out.len(), 31);
        // First segment (10 slots) must be constant, etc.
        assert!(out[..10].windows(2).all(|w| w[0] == w[1]));
        assert!(out[10..20].windows(2).all(|w| w[0] == w[1]));
        assert!(out[20..].windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn upload_budget_grows_with_segment_length() {
        let s = Sampling::new(SessionKind::App, 1.0, 10).unwrap();
        let few = s.clone().with_sample_count(2).upload_epsilon(40); // seg_len 20 ≥ w
        let many = s.with_sample_count(20).upload_epsilon(40); // seg_len 2
        assert!(few > many, "{few} vs {many}");
        assert!((few - 1.0).abs() < 1e-12, "seg_len ≥ w should grant full ε");
    }

    #[test]
    fn sampling_improves_mean_estimation_over_direct() {
        let (eps, w, q) = (1.0, 20, 30);
        let xs: Vec<f64> = (0..q).map(|i| 0.4 + 0.2 * (i as f64 / 6.0).sin()).collect();
        let truth = xs.iter().sum::<f64>() / q as f64;
        let samp = Sampling::new(SessionKind::App, eps, w).unwrap();
        let direct = crate::Direct::new(eps, w).unwrap();
        let mut r = rng(2);
        let trials = 300;
        let (mut err_s, mut err_d) = (0.0, 0.0);
        for _ in 0..trials {
            let m_s = samp.publish(&xs, &mut r).iter().sum::<f64>() / q as f64;
            err_s += (m_s - truth).powi(2);
            let m_d = direct.publish(&xs, &mut r).iter().sum::<f64>() / q as f64;
            err_d += (m_d - truth).powi(2);
        }
        assert!(
            err_s < err_d,
            "sampling MSE {} should beat direct {}",
            err_s / trials as f64,
            err_d / trials as f64
        );
    }

    #[test]
    fn empty_stream_publishes_empty() {
        let s = Sampling::new(SessionKind::Capp, 1.0, 5).unwrap();
        assert!(s.publish(&[], &mut rng(3)).is_empty());
    }

    #[test]
    fn naive_output_is_segment_replicated() {
        let s = Sampling::new(SessionKind::SwDirect, 1.0, 10)
            .unwrap()
            .with_sample_count(4);
        let xs: Vec<f64> = (0..40).map(|i| i as f64 / 40.0).collect();
        let out = s.publish(&xs, &mut rng(1));
        assert_eq!(out.len(), 40);
        for chunk in out.chunks(10) {
            assert!(chunk.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn naive_loses_to_app_sampling_for_mean_estimation() {
        // PP-S's feedback should beat naive sampling (Fig 6 ordering).
        let (eps, w, q) = (1.0, 20, 30);
        let xs: Vec<f64> = (0..q)
            .map(|i| 0.35 + 0.3 * (i as f64 / 5.0).sin())
            .collect();
        let truth = xs.iter().sum::<f64>() / q as f64;
        let naive = Sampling::new(SessionKind::SwDirect, eps, w).unwrap();
        let apps = Sampling::new(SessionKind::App, eps, w).unwrap();
        let mut r = rng(2);
        let trials = 500;
        let (mut err_n, mut err_a) = (0.0, 0.0);
        for _ in 0..trials {
            let m_n = naive.publish(&xs, &mut r).iter().sum::<f64>() / q as f64;
            err_n += (m_n - truth).powi(2);
            let m_a = apps.publish(&xs, &mut r).iter().sum::<f64>() / q as f64;
            err_a += (m_a - truth).powi(2);
        }
        assert!(
            err_a < err_n * 1.1,
            "APP-S MSE {} should not lose to naive sampling {}",
            err_a / trials as f64,
            err_n / trials as f64
        );
    }

    #[test]
    fn rejects_invalid_config() {
        assert!(Sampling::new(SessionKind::App, 0.0, 5).is_err());
        let err = Sampling::new(SessionKind::App, 1.0, 0).unwrap_err();
        assert_eq!(err, ldp_mechanisms::MechanismError::InvalidWindow(0));
    }
}
