//! High-dimensional time series collection (paper §IV-C "Extension to
//! high-dimensional time series data", evaluated in Figure 10).
//!
//! Each of the `d` dimensions is treated as an independent stream; the
//! window budget ε is shared between them by one of two strategies:
//!
//! * **Budget-Split (BS)** — every dimension reports every slot, each
//!   report spending `ε/(d·w)`: any window holds `d·w` reports × `ε/(dw)`
//!   = ε (sequential composition).
//! * **Sample-Split (SS)** — at slot `t` only dimension `t mod d` reports,
//!   spending `ε/w`: any window holds at most `w` reports × `ε/w` = ε.
//!   Unreported slots are filled by carrying the last published value
//!   forward (the first published value is back-filled at the start).

use crate::accountant::slot_budget;
use crate::app::DEFAULT_SMOOTHING;
use crate::kernel::Kernel;
use crate::online::{PipelineSpec, SessionKind};
use crate::smoothing::sma;
use crate::Result;
use ldp_streams::MultiDimStream;
use rand::RngCore;

/// How the window budget is shared across dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// All dimensions report every slot with budget `ε/(d·w)` each.
    BudgetSplit,
    /// One dimension reports per slot with budget `ε/w`.
    SampleSplit,
}

impl SplitStrategy {
    /// Short label matching the paper's figure legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SplitStrategy::BudgetSplit => "BS",
            SplitStrategy::SampleSplit => "SS",
        }
    }
}

/// Publishes a `d`-dimensional series under w-event LDP, each dimension
/// through `kind`'s rule over SW.
///
/// Returns one published stream per dimension, each of the input length.
/// The published object is the *full-length* stream, so the SMA
/// post-processing step (APP's window, [`DEFAULT_SMOOTHING`]) is applied
/// after Sample-Split expansion — which is
/// exactly why Budget-Split wins in Figure 10: BS publishes `d·w`
/// independent noisy slots per window that smoothing can average, whereas
/// SS's expanded stream repeats each report for `d` slots and gains nothing
/// from smoothing ("reduced effectiveness caused by the limited number of
/// data points per window").
///
/// # Errors
/// Returns an error if the implied per-report budget is invalid.
pub fn publish_multidim(
    series: &MultiDimStream,
    kind: SessionKind,
    strategy: SplitStrategy,
    epsilon: f64,
    w: usize,
    rng: &mut dyn RngCore,
) -> Result<Vec<Vec<f64>>> {
    let d = series.dims();
    let len = series.len();
    let mut published = Vec::with_capacity(len);
    match strategy {
        SplitStrategy::BudgetSplit => {
            let kernel = Kernel::of_spec(PipelineSpec::sw(kind), slot_budget(epsilon, d * w)?)?;
            Ok(series
                .iter()
                .map(|dim| {
                    kernel.publish_into(dim.values(), &mut published, rng);
                    sma(&published, DEFAULT_SMOOTHING)
                })
                .collect())
        }
        SplitStrategy::SampleSplit => {
            let kernel = Kernel::of_spec(PipelineSpec::sw(kind), slot_budget(epsilon, w)?)?;
            let mut out = Vec::with_capacity(d);
            for (k, dim) in series.iter().enumerate() {
                // Slots where this dimension reports: t ≡ k (mod d).
                let reported_idx: Vec<usize> = (k..len).step_by(d).collect();
                let sub: Vec<f64> = reported_idx.iter().map(|&t| dim.values()[t]).collect();
                kernel.publish_into(&sub, &mut published, rng);
                let expanded = expand_holding_last(len, &reported_idx, &published);
                out.push(sma(&expanded, DEFAULT_SMOOTHING));
            }
            Ok(out)
        }
    }
}

/// Expands sparse reports to a full-length stream by holding the last
/// reported value; slots before the first report are back-filled with it.
fn expand_holding_last(len: usize, idx: &[usize], values: &[f64]) -> Vec<f64> {
    debug_assert_eq!(idx.len(), values.len());
    if values.is_empty() {
        return vec![0.0; len];
    }
    let mut out = Vec::with_capacity(len);
    let mut cur = values[0];
    let mut next = 0usize;
    for t in 0..len {
        if next < idx.len() && idx[next] == t {
            cur = values[next];
            next += 1;
        }
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_streams::synthetic::sin_multidim;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn expand_holds_and_backfills() {
        let out = expand_holding_last(6, &[1, 4], &[0.3, 0.9]);
        assert_eq!(out, vec![0.3, 0.3, 0.3, 0.3, 0.9, 0.9]);
    }

    #[test]
    fn expand_empty_reports_gives_zeros() {
        assert_eq!(expand_holding_last(3, &[], &[]), vec![0.0; 3]);
    }

    #[test]
    fn budget_split_publishes_all_dims_full_length() {
        let m = sin_multidim(4, 60, 1);
        let out = publish_multidim(
            &m,
            SessionKind::App,
            SplitStrategy::BudgetSplit,
            2.0,
            10,
            &mut rng(1),
        )
        .unwrap();
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|s| s.len() == 60));
    }

    #[test]
    fn sample_split_publishes_all_dims_full_length() {
        let m = sin_multidim(3, 61, 2);
        let out = publish_multidim(
            &m,
            SessionKind::Capp,
            SplitStrategy::SampleSplit,
            2.0,
            9,
            &mut rng(2),
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|s| s.len() == 61));
    }

    #[test]
    fn sample_split_streams_hold_values_in_run_interiors() {
        let m = sin_multidim(5, 50, 3);
        let out = publish_multidim(
            &m,
            SessionKind::SwDirect,
            SplitStrategy::SampleSplit,
            1.0,
            10,
            &mut rng(3),
        )
        .unwrap();
        // Dimension 0 reports at t = 0, 5, 10, …; its runs are 5 slots
        // long. After the SMA-3 pass only the run-boundary slots mix with
        // neighbouring runs, so interior slots (t ≡ 2, 3 mod 5) must equal
        // their predecessor.
        let s = &out[0];
        for t in 1..50 {
            if matches!(t % 5, 2 | 3) {
                assert_eq!(s[t], s[t - 1], "slot {t} should hold previous value");
            }
        }
    }

    #[test]
    fn budget_split_beats_sample_split_on_fast_signals() {
        // Shape result (Fig 10): with many dimensions, Sample-Split holds
        // each dimension's value for d slots; on signals that move within
        // that horizon the staleness error dominates SS's per-report noise
        // advantage (SW's noise barely shrinks with budget at tiny ε), so
        // Budget-Split wins.
        // Fast dimensions: period 8–25 slots, far shorter than the d-slot
        // hold horizon of Sample-Split.
        let d = 12;
        let dims = (0..d)
            .map(|k| {
                ldp_streams::Stream::new(
                    (0..240)
                        .map(|t| {
                            let f = 0.04 + 0.007 * k as f64;
                            0.5 + 0.5 * (2.0 * std::f64::consts::PI * f * t as f64).sin()
                        })
                        .collect(),
                )
            })
            .collect();
        let m = MultiDimStream::new(dims);
        let mut r = rng(4);
        let trials = 40;
        let (mut err_bs, mut err_ss) = (0.0, 0.0);
        for _ in 0..trials {
            let bs = publish_multidim(
                &m,
                SessionKind::App,
                SplitStrategy::BudgetSplit,
                1.0,
                10,
                &mut r,
            )
            .unwrap();
            let ss = publish_multidim(
                &m,
                SessionKind::App,
                SplitStrategy::SampleSplit,
                1.0,
                10,
                &mut r,
            )
            .unwrap();
            for k in 0..d {
                let truth = m.dim(k).values();
                err_bs += ldp_metrics::mse(&bs[k], truth);
                err_ss += ldp_metrics::mse(&ss[k], truth);
            }
        }
        assert!(
            err_bs < err_ss,
            "BS MSE {err_bs} should beat SS {err_ss} on sinusoidal data"
        );
    }
}
