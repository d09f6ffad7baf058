//! BA-SW: budget absorption with the Square Wave mechanism.
//!
//! Budget absorption (Kellaris et al., VLDB 2014) conserves budget by
//! skipping the publication of slots whose value barely changed, re-using
//! the previous release instead; the skipped slots' budgets are *absorbed*
//! by later publications, which then perturb with a larger (= less noisy)
//! budget. LDP-IDS (Ren et al., SIGMOD 2022) ports this to the local
//! setting. Our adaptation, following LDP-IDS's split:
//!
//! * the per-slot budget `ε/w` is halved into a **dissimilarity** share
//!   `ε₁ = ε/(2w)` (spent every slot on a noisy probe of the current
//!   value) and a **publication** share `ε₂ = ε/(2w)`;
//! * at each slot the user probes `x̃ = SW_{ε₁}(x_t)` and compares the
//!   deviation `|x̃ − last|` against the expected publication error at the
//!   currently absorbed budget;
//! * if the deviation wins and absorbed budget is available, the user
//!   publishes `SW_{ε_abs}(x_t)` and the *next* `ε_abs/ε₂ − 1` slots are
//!   forced skips (the publication "paid forward" their shares, keeping
//!   every window's publication spend ≤ ε/2);
//! * otherwise the previous release is re-emitted and `ε₂` is absorbed
//!   (capped at the full window share `ε/2`).
//!
//! On streams with long constant stretches (the Power dataset) this
//! baseline shines at large ε — exactly the regime the paper observes —
//! while on fluctuating streams the halved budget and probe noise make it
//! the weakest SW-based method.

use ldp_core::{slot_budget, Result, StreamMechanism};
use ldp_mechanisms::{Mechanism, SquareWave};
use rand::RngCore;

/// Budget-absorption baseline over SW.
#[derive(Debug, Clone, Copy)]
pub struct BaSw {
    /// Dissimilarity budget per slot.
    eps_probe: f64,
    /// Publication share per slot.
    eps_pub: f64,
    /// Absorption cap (the full per-window publication share).
    eps_cap: f64,
}

impl BaSw {
    /// Creates BA-SW with window budget `epsilon` and window size `w`.
    ///
    /// # Errors
    /// Returns an error if `epsilon` is invalid or `w == 0`.
    pub fn new(epsilon: f64, w: usize) -> Result<Self> {
        let slot = slot_budget(epsilon, w)?;
        Ok(Self {
            eps_probe: slot / 2.0,
            eps_pub: slot / 2.0,
            eps_cap: epsilon / 2.0,
        })
    }

    /// Expected absolute publication error for a given budget: the RMS
    /// deviation of one SW draw at the worst case input.
    fn publication_error(epsilon: f64) -> f64 {
        SquareWave::new(epsilon)
            .map(|sw| sw.worst_case_deviation_variance().sqrt())
            .unwrap_or(f64::INFINITY)
    }
}

impl StreamMechanism for BaSw {
    fn publish_into(&self, xs: &[f64], out: &mut Vec<f64>, rng: &mut dyn RngCore) {
        let probe_sw = SquareWave::new(self.eps_probe).expect("validated");
        let mut last_release = 0.5; // neutral prior before the first publication
        let mut absorbed = self.eps_pub; // the first slot's own share
        let mut forced_skips = 0usize;
        out.clear();
        out.reserve(xs.len());

        for &x in xs {
            if forced_skips > 0 {
                forced_skips -= 1;
                absorbed = (absorbed + self.eps_pub).min(self.eps_cap);
                out.push(last_release);
                continue;
            }
            // Noisy dissimilarity probe (always spends eps_probe).
            let probe = probe_sw.perturb(x, rng);
            let deviation = (probe - last_release).abs();
            let threshold = Self::publication_error(absorbed);

            if deviation > threshold && absorbed >= self.eps_pub {
                let publish_sw = SquareWave::new(absorbed).expect("validated");
                let released = publish_sw.perturb(x, rng);
                // Pay forward the borrowed slots.
                let slots_spent = (absorbed / self.eps_pub).round() as usize;
                forced_skips = slots_spent.saturating_sub(1);
                absorbed = 0.0;
                last_release = released;
                out.push(released);
            } else {
                absorbed = (absorbed + self.eps_pub).min(self.eps_cap);
                out.push(last_release);
            }
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
    fn rejects_invalid_config() {
        assert!(BaSw::new(0.0, 5).is_err());
        assert_eq!(
            BaSw::new(1.0, 0).unwrap_err(),
            ldp_mechanisms::MechanismError::InvalidWindow(0)
        );
    }

    #[test]
    fn output_length_matches_input() {
        let ba = BaSw::new(1.0, 10).unwrap();
        assert_eq!(ba.publish(&vec![0.5; 64], &mut rng(1)).len(), 64);
    }

    #[test]
    fn constant_streams_reuse_releases() {
        // On a constant stream the release should repeat heavily: far fewer
        // distinct values than slots.
        let ba = BaSw::new(3.0, 10).unwrap();
        let out = ba.publish(&vec![0.3; 200], &mut rng(2));
        let mut distinct: Vec<f64> = out.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        assert!(
            distinct.len() < 100,
            "expected re-used releases, got {} distinct values",
            distinct.len()
        );
    }

    #[test]
    fn absorbed_publications_use_larger_budgets_on_constant_streams() {
        // The mechanism behind the paper's Power-dataset observation: on
        // constant data BA skips aggressively, so the publications that do
        // happen carry absorbed (≫ per-slot) budgets and land much closer
        // to the truth than an ε/w draw would.
        let (eps, w) = (3.0, 30);
        let xs = vec![0.42; 600];
        let ba = BaSw::new(eps, w).unwrap();
        // Pool the distinct releases of several seeded runs (a single run
        // yields only a few dozen publications — too few for a stable RMS),
        // discarding the warm-up third of each stream.
        let mut releases: Vec<f64> = Vec::new();
        for seed in 0..10 {
            let out = ba.publish(&xs, &mut rng(seed));
            let mut tail: Vec<f64> = out[200..].to_vec();
            tail.dedup();
            releases.extend(tail);
        }
        let rms: f64 = (releases
            .iter()
            .map(|v| (v - 0.42) * (v - 0.42))
            .sum::<f64>()
            / releases.len() as f64)
            .sqrt();
        // Reference: a plain ε/w draw's closed-form RMS deviation at this
        // input. The pooled absorbed-publication RMS sits at ~0.87× the
        // direct RMS under the workspace RNG (deterministic — fixed
        // seeds); 0.9 asserts that advantage with a little headroom while
        // still failing if absorption stops buying accuracy.
        let direct = SquareWave::new(eps / w as f64).unwrap();
        let direct_rms = (direct.output_variance(0.42)
            + direct.deviation_mean(0.42) * direct.deviation_mean(0.42))
        .sqrt();
        assert!(
            rms < 0.9 * direct_rms,
            "absorbed publications too noisy: rms {rms} vs direct {direct_rms}"
        );
    }

    #[test]
    fn forced_skips_repeat_the_last_release() {
        // After any publication, the paid-forward slots must replicate it.
        let ba = BaSw::new(2.0, 4).unwrap();
        let out = ba.publish(&vec![0.9; 100], &mut rng(4));
        // Find a change point (publication) and verify a run follows it.
        let mut i = 1;
        let mut found_run = false;
        while i < out.len() {
            if out[i] != out[i - 1] {
                // publication at i; check whether a repeat follows
                if i + 1 < out.len() && out[i + 1] == out[i] {
                    found_run = true;
                    break;
                }
            }
            i += 1;
        }
        assert!(found_run, "expected at least one absorbed publication run");
    }
}
