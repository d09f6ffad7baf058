//! Global experiment configuration (trial counts, seeds), read from the
//! environment by `repro`.

use std::fmt::Display;
use std::str::FromStr;

/// Configuration shared by every artifact reproduction.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of random subsequences (each independently perturbed) that a
    /// configuration is averaged over.
    pub trials: usize,
    /// Base RNG seed; every (artifact, configuration, trial) derives a
    /// deterministic sub-seed from it.
    pub seed: u64,
    /// Number of users drawn for crowd-level experiments.
    pub crowd_users: usize,
}

impl ExperimentConfig {
    /// Reads the configuration from the environment:
    /// `LDP_TRIALS` (default 30, or 5 under `LDP_QUICK=1`),
    /// `LDP_SEED` (default 12648430 = 0xC0FFEE), `LDP_CROWD_USERS`
    /// (default 300, or 60 under `LDP_QUICK=1`).
    ///
    /// # Errors
    /// A message naming the variable when a set value is not a decimal
    /// integer, or when `LDP_TRIALS` or `LDP_CROWD_USERS` is zero.
    pub fn from_env() -> Result<Self, String> {
        Self::from_lookup(|key| std::env::var_os(key).map(|v| v.to_string_lossy().into_owned()))
    }

    /// [`Self::from_env`] over `var`, which returns a variable's value or
    /// `None` when it is unset.
    pub(crate) fn from_lookup(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let quick = var("LDP_QUICK").is_some_and(|v| v != "0" && !v.is_empty());
        Ok(Self {
            trials: parse(&var, "LDP_TRIALS", if quick { 5 } else { 30 }, 1)?,
            seed: parse(&var, "LDP_SEED", 0x00C0_FFEE, 0)?,
            crowd_users: parse(&var, "LDP_CROWD_USERS", if quick { 60 } else { 300 }, 1)?,
        })
    }

    /// Derives a deterministic sub-seed for a named configuration.
    #[must_use]
    pub fn sub_seed(&self, parts: &[u64]) -> u64 {
        // FNV-1a style mixing; stable across platforms.
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        for &p in parts {
            h ^= p;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// `key`'s value through `var`: `default` when unset, otherwise a decimal
/// integer no smaller than `min`.
fn parse<T: FromStr + PartialOrd + Display>(
    var: &impl Fn(&str) -> Option<String>,
    key: &str,
    default: T,
    min: T,
) -> Result<T, String> {
    let Some(value) = var(key) else {
        return Ok(default);
    };
    match value.parse::<T>() {
        Ok(n) if n >= min => Ok(n),
        Ok(_) => Err(format!("{key}={value}: must be at least {min}")),
        Err(_) => Err(format!("{key}={value:?}: not a decimal integer")),
    }
}

/// The ε grid used by most figures: 0.5, 1.0, …, 3.0.
#[must_use]
pub fn epsilon_grid() -> Vec<f64> {
    vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seed_is_deterministic_and_distinguishes() {
        let cfg = ExperimentConfig {
            trials: 1,
            seed: 7,
            crowd_users: 10,
        };
        assert_eq!(cfg.sub_seed(&[1, 2]), cfg.sub_seed(&[1, 2]));
        assert_ne!(cfg.sub_seed(&[1, 2]), cfg.sub_seed(&[2, 1]));
        assert_ne!(cfg.sub_seed(&[1]), cfg.sub_seed(&[1, 0]));
    }

    #[test]
    fn lookup_takes_defaults_and_refuses_bad_values_by_name() {
        let with = |vars: &[(&str, &str)]| {
            ExperimentConfig::from_lookup(|key| {
                vars.iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| (*v).to_owned())
            })
        };
        let full = with(&[]).unwrap();
        assert_eq!(
            (full.trials, full.seed, full.crowd_users),
            (30, 0xC0FFEE, 300)
        );
        let quick = with(&[("LDP_QUICK", "1"), ("LDP_SEED", "7")]).unwrap();
        assert_eq!((quick.trials, quick.seed, quick.crowd_users), (5, 7, 60));
        for (key, value) in [
            ("LDP_TRIALS", "0"),
            ("LDP_TRIALS", "3O"),
            ("LDP_CROWD_USERS", "0"),
            ("LDP_SEED", "0x1"),
        ] {
            let err = with(&[(key, value)]).unwrap_err();
            assert!(err.starts_with(&format!("{key}=")), "{key}={value}: {err}");
        }
    }

    #[test]
    fn epsilon_grid_matches_paper_axis() {
        let g = epsilon_grid();
        assert_eq!(g.len(), 6);
        assert_eq!(g[0], 0.5);
        assert_eq!(g[5], 3.0);
    }
}
