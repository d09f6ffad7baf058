//! Named datasets of the evaluation, backed by the synthetic generators.

use ldp_streams::synthetic;
use ldp_streams::{Population, Stream};
use rand::Rng;

/// The datasets appearing in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// MNDoT hourly traffic volume (single stream).
    Volume,
    /// UCI air-quality benzene concentration (single stream).
    C6h6,
    /// T-Drive taxi latitudes (multi-user).
    Taxi,
    /// UCR device power profiles (multi-user).
    Power,
    /// Constant series at 0.1 (Fig 11).
    Constant,
    /// Pulse series (Fig 11).
    Pulse,
    /// Sinusoidal series (Fig 11).
    Sinusoidal,
}

impl Dataset {
    /// Paper-facing label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Dataset::Volume => "Volume",
            Dataset::C6h6 => "C6H6",
            Dataset::Taxi => "Taxi",
            Dataset::Power => "Power",
            Dataset::Constant => "Constant",
            Dataset::Pulse => "Pulse",
            Dataset::Sinusoidal => "Sinusoidal",
        }
    }

    /// Materializes the dataset (deterministic in `seed`). Lengths are the
    /// real datasets' published sizes, except the multi-user populations
    /// which are scaled to `users` for tractability.
    #[must_use]
    pub fn materialize(self, users: usize, seed: u64) -> DatasetData {
        match self {
            Dataset::Volume => DatasetData::Single(synthetic::volume(synthetic::VOLUME_LEN, seed)),
            Dataset::C6h6 => DatasetData::Single(synthetic::c6h6(synthetic::C6H6_LEN, seed)),
            Dataset::Taxi => {
                DatasetData::Multi(synthetic::taxi_population(users, synthetic::TAXI_LEN, seed))
            }
            Dataset::Power => DatasetData::Multi(synthetic::power_population(
                users,
                synthetic::POWER_LEN,
                seed,
            )),
            Dataset::Constant => DatasetData::Single(synthetic::constant(2_000, 0.1)),
            Dataset::Pulse => DatasetData::Single(synthetic::pulse(2_000)),
            Dataset::Sinusoidal => DatasetData::Single(synthetic::sinusoidal(2_000, 0.02)),
        }
    }
}

/// Materialized dataset: either one long stream or a user population.
#[derive(Debug, Clone)]
pub enum DatasetData {
    /// A single user's stream.
    Single(Stream),
    /// Multiple users' streams.
    Multi(Population),
}

impl DatasetData {
    /// Draws a random subsequence of length `q` (from a random user for
    /// multi-user data). Returns a borrowed slice.
    ///
    /// # Panics
    /// Panics if every stream is shorter than `q`.
    #[must_use]
    pub fn random_subsequence(&self, q: usize, rng: &mut impl Rng) -> &[f64] {
        match self {
            DatasetData::Single(s) => {
                assert!(s.len() >= q, "stream shorter than q={q}");
                let start = rng.gen_range(0..=s.len() - q);
                s.subsequence(start..start + q)
            }
            DatasetData::Multi(p) => {
                assert!(!p.is_empty(), "empty population");
                let user = &p.users()[rng.gen_range(0..p.len())];
                assert!(user.len() >= q, "user stream shorter than q={q}");
                let start = rng.gen_range(0..=user.len() - q);
                user.subsequence(start..start + q)
            }
        }
    }

    /// Borrows the population (crowd-level experiments).
    ///
    /// # Panics
    /// Panics for single-stream datasets.
    #[must_use]
    pub fn population(&self) -> &Population {
        match self {
            DatasetData::Multi(p) => p,
            DatasetData::Single(_) => panic!("dataset has no population"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn labels_are_stable() {
        assert_eq!(Dataset::C6h6.label(), "C6H6");
        assert_eq!(Dataset::Volume.label(), "Volume");
    }

    #[test]
    fn random_subsequence_has_requested_length() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for ds in [Dataset::Volume, Dataset::Taxi, Dataset::Power] {
            let data = ds.materialize(20, 42);
            let sub = data.random_subsequence(30, &mut rng);
            assert_eq!(sub.len(), 30, "{}", ds.label());
            assert!(sub.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn materialization_is_deterministic() {
        let a = Dataset::C6h6.materialize(1, 9);
        let b = Dataset::C6h6.materialize(1, 9);
        match (a, b) {
            (DatasetData::Single(x), DatasetData::Single(y)) => assert_eq!(x.values(), y.values()),
            _ => panic!("expected single streams"),
        }
    }

    #[test]
    #[should_panic(expected = "no population")]
    fn population_of_single_stream_panics() {
        let _ = Dataset::Volume.materialize(1, 1).population();
    }
}
