//! Cross-crate integration tests.
//!
//! The actual tests live in `tests/tests/*.rs`; this library only hosts
//! shared helpers: a seeded RNG and the [`ModelDisk`] the write-ahead log's
//! crash tests run on.

mod model_disk;

pub use model_disk::ModelDisk;

use rand::SeedableRng;

/// Deterministic RNG for integration tests.
#[must_use]
pub fn test_rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}
