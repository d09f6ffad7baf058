//! Perturbation-parameterization algorithms for stream data publication
//! under w-event local differential privacy.
//!
//! This crate is the reference implementation of the ICDE 2025 paper
//! *"Dual Utilization of Perturbation for Stream Data Publication under
//! Local Differential Privacy"*. The central observation: each user knows
//! both their ground truth `x_t` and their perturbed report `x'_t`, so the
//! exact deviation `d_t = x_t − x'_t` is available locally and can be fed
//! back into the *input* of the next perturbation, calibrating earlier
//! noise away without spending extra budget.
//!
//! # Algorithms
//!
//! * [`Direct`] — perturbs every value on its own (no feedback): the
//!   mechanism-direct comparator, and over SW ([`Direct::new`]) the
//!   "SW-direct" arm of every figure.
//! * [`Ipp`] — corrects only the most recent deviation (the baseline).
//! * [`App`] — corrects the *accumulated* deviation `D = Σ d_i`, followed
//!   by simple-moving-average smoothing.
//! * [`Capp`] — APP with an optimized clip range `[l, u] = [−T, 1+T]`
//!   before perturbation, trading sensitivity against discarded signal
//!   (see [`capp::ClipBounds`]).
//! * [`Sampling`] — PP-S: perturbs per-segment means with an optimized
//!   segment count for better subsequence mean estimation; over
//!   [`SessionKind::SwDirect`] it is the naive "Sampling" baseline.
//! * [`highdim`] — Budget-Split and Sample-Split strategies for
//!   d-dimensional series.
//! * [`crowd`] — crowd-level statistics over user populations.
//!
//! # Any mechanism under every rule (paper §IV-C)
//!
//! Every rule above runs over an interchangeable perturbation backend:
//! [`Direct`], [`Ipp`], [`App`], [`Capp`] and [`OnlineSession`] accept any
//! [`ldp_mechanisms::MechanismKind`] (`of_mechanism` /
//! [`OnlineSession::of_spec`]), defaulting to SW, and all of them —
//! PP-S included — run one publication kernel, built from the cell's
//! [`PipelineSpec`] in one place. The
//! [`backend::UnitBackend`] adapter translates between the unit-scale
//! stream and each mechanism's native domain, and routes debiasing:
//! unbiased mechanisms (SR / PM / Laplace / HM) take the **direct path**
//! (reports inverted through the affine `Mechanism::expected_output`
//! map, identity for them), while the biased SW keeps its **estimator
//! path** (raw reports; the feedback loop telescopes the bias away and
//! [`ldp_mechanisms::sw_estimate`] reconstructs distributions
//! downstream). A `(SessionKind, MechanismKind)` pair is a
//! [`PipelineSpec`]; [`PipelineSpec::grid`] enumerates all cells for the
//! collector fleet and the experiment grid. The kernel's tests pin its
//! unit-scale APP loop to the paper's native-domain loop.
//!
//! Every algorithm spends `ε/w` per time slot ([`slot_budget`]; or the
//! sampling equivalent), so any sliding window of `w` slots is covered by
//! total budget `ε` (w-event LDP, Theorems 3, 4 and 6 of the paper). The
//! [`accountant::WEventAccountant`] verifies this bookkeeping in tests.
//!
//! # Quickstart
//!
//! ```
//! use ldp_core::{Capp, StreamMechanism};
//! use rand::SeedableRng;
//!
//! let stream: Vec<f64> = (0..100).map(|t| 0.5 + 0.4 * (t as f64 / 10.0).sin()).collect();
//! let capp = Capp::new(4.0, 10).unwrap(); // total ε = 4 per window of w = 10
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let published = capp.publish(&stream, &mut rng);
//! assert_eq!(published.len(), stream.len());
//! ```

#![forbid(unsafe_code)]

pub mod accountant;
pub mod app;
pub mod backend;
pub mod capp;
pub mod crowd;
pub mod direct;
pub mod highdim;
pub mod ipp;
mod kernel;
pub mod online;
pub mod publisher;
pub mod sampling;
pub mod smoothing;

pub use accountant::{slot_budget, WEventAccountant};
pub use app::App;
pub use backend::UnitBackend;
pub use capp::{Capp, ClipBounds};
pub use direct::Direct;
pub use ipp::Ipp;
pub use online::{OnlineSession, PipelineSpec, SessionKind};
pub use publisher::StreamMechanism;
pub use sampling::{optimal_sample_count, Sampling};
pub use smoothing::sma;

/// Errors raised by algorithm constructors.
pub type Error = ldp_mechanisms::MechanismError;

/// `Result` alias for algorithm construction.
pub type Result<T> = std::result::Result<T, Error>;
