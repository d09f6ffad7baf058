//! Deterministic synthetic dataset generators.
//!
//! The paper evaluates on four real datasets (MNDoT traffic **Volume**, UCI
//! air-quality **C6H6**, T-Drive **Taxi** latitudes, UCR **Power** device
//! profiles) plus four analytic series (Constant, Pulse, Sinusoidal,
//! Sin-data). The real datasets are not redistributable here, so each
//! generator reproduces the published characteristics that the algorithms
//! actually interact with (value range, temporal correlation, periodicity,
//! constancy patterns). README's "Datasets" paragraph, under "Reproducing
//! the paper", records the substitution rationale.
//!
//! Every generator is deterministic in its `seed`, so experiments are
//! exactly reproducible.

mod air_quality;
mod basic;
mod multidim;
mod power;
mod taxi;
mod volume;

pub use air_quality::{c6h6, C6H6_LEN};
pub use basic::{constant, pulse, sinusoidal};
pub use multidim::sin_multidim;
pub use power::{power_population, POWER_LEN, POWER_USERS};
pub use taxi::{taxi_population, TAXI_LEN, TAXI_USERS};
pub use volume::{volume, VOLUME_LEN};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds the deterministic RNG used by all generators.
pub(crate) fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_in_seed() {
        assert_eq!(volume(500, 7).values(), volume(500, 7).values());
        assert_eq!(c6h6(300, 9).values(), c6h6(300, 9).values());
        let a = taxi_population(5, 50, 11);
        let b = taxi_population(5, 50, 11);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.values(), y.values());
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(volume(200, 1).values(), volume(200, 2).values());
    }

    #[test]
    fn all_single_streams_are_unit_normalized() {
        for s in [volume(1000, 3), c6h6(1000, 4), sinusoidal(1000, 0.01)] {
            assert!(
                s.min() >= 0.0 && s.max() <= 1.0,
                "range [{}, {}]",
                s.min(),
                s.max()
            );
        }
    }
}
