//! Global experiment configuration (trial counts, seeds), read from the
//! environment by `repro`.

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
    /// Base fleet size for the collector scalability scenario (the
    /// scenario sweeps multiples of this).
    pub fleet_users: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

impl ExperimentConfig {
    /// Reads the configuration from the environment:
    /// `LDP_TRIALS` (default 30, or 5 under `LDP_QUICK=1`),
    /// `LDP_SEED` (default 0xC0FFEE), `LDP_CROWD_USERS` (default 300,
    /// or 60 under `LDP_QUICK=1`), `LDP_FLEET_USERS` (default 500, or 50
    /// under `LDP_QUICK=1`).
    #[must_use]
    pub fn from_env() -> Self {
        let quick = std::env::var("LDP_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
        let parse = |key: &str, default: usize| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        Self {
            trials: parse("LDP_TRIALS", if quick { 5 } else { 30 }),
            seed: std::env::var("LDP_SEED")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0x00C0_FFEE),
            crowd_users: parse("LDP_CROWD_USERS", if quick { 60 } else { 300 }),
            fleet_users: parse("LDP_FLEET_USERS", if quick { 50 } else { 500 }),
        }
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
            fleet_users: 10,
        };
        assert_eq!(cfg.sub_seed(&[1, 2]), cfg.sub_seed(&[1, 2]));
        assert_ne!(cfg.sub_seed(&[1, 2]), cfg.sub_seed(&[2, 1]));
        assert_ne!(cfg.sub_seed(&[1]), cfg.sub_seed(&[1, 0]));
    }

    #[test]
    fn epsilon_grid_matches_paper_axis() {
        let g = epsilon_grid();
        assert_eq!(g.len(), 6);
        assert_eq!(g[0], 0.5);
        assert_eq!(g[5], 3.0);
    }
}
