//! Comparison baselines for LDP stream publication.
//!
//! The comparators of the paper's evaluation section that are not a
//! feedback rule of `ldp-core`:
//!
//! * [`BaSw`] — budget absorption (Kellaris et al. VLDB 2014) adapted to
//!   the local setting as in LDP-IDS (SIGMOD 2022), using SW as the
//!   perturbation primitive ("BA-SW").
//! * [`ToPL`] — Wang et al.'s two-phase pipeline (CCS 2021): an SW-based
//!   range-estimation phase followed by Hybrid-Mechanism perturbation.
//!
//! The other two arms are `ldp-core` cells: "SW-direct" is
//! [`ldp_core::Direct::new`], and the naive "Sampling" arm of Figures 6–8
//! is [`ldp_core::Sampling`] over [`ldp_core::SessionKind::SwDirect`].

#![forbid(unsafe_code)]

pub mod ba_sw;
pub mod topl;

pub use ba_sw::BaSw;
pub use topl::ToPL;
