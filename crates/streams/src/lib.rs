//! Stream-data substrate for LDP stream publication.
//!
//! Provides the data types the algorithms operate on — [`Stream`] (one
//! user's numeric time series), [`Population`] (many users),
//! [`MultiDimStream`] (one user, many dimensions) — plus sliding-window
//! utilities implementing the *w-neighboring* relation of w-event privacy,
//! and deterministic synthetic generators standing in for the four
//! real-world datasets of the paper's evaluation (README, "Reproducing
//! the paper" → "Datasets", gives the substitution rationale).

#![forbid(unsafe_code)]

pub mod population;
pub mod stream;
pub mod synthetic;
pub mod window;

pub use population::{MultiDimStream, Population};
pub use stream::Stream;
pub use window::{are_w_neighboring, SlidingWindows};
