//! The Square Wave (SW) mechanism of Li et al. (SIGMOD 2020).
//!
//! SW takes an input `v ∈ [0, 1]` and reports a value in `[−b, 1+b]` where
//!
//! ```text
//! b = (ε·e^ε − e^ε + 1) / (2·e^ε·(e^ε − ε − 1))
//! ```
//!
//! The output density is `p = e^ε/(2b·e^ε + 1)` inside the "near zone"
//! `|y − v| ≤ b` and `q = 1/(2b·e^ε + 1)` elsewhere, so `p/q = e^ε` and the
//! mechanism satisfies ε-LDP. As `ε → 0`, `b → 1/2`, which keeps the output
//! range bounded in `(−1/2, 3/2)` regardless of budget — the property the
//! paper credits for SW's superiority over PM/Laplace at small budgets.
//!
//! Beyond sampling, this module exposes SW's *closed-form output moments*.
//! They power two optimizers in `ldp-core`:
//!
//! * CAPP's clip-margin `T(e_s, e_d)` needs `E[SW(x)]` and the deviation
//!   variance `Var(x − SW(x))` at the worst case `x = 1`;
//! * the PP-S sample-count objective needs the output variance σ² and the
//!   fourth central moment µ₄ at `x = 1`.
//!
//! All moments are computed by exact piecewise integration of the
//! square-wave density, and unit tests cross-check them against the paper's
//! algebraic expansions.

use crate::domain::Domain;
use crate::error::{check_epsilon, MechanismError};
use crate::traits::Mechanism;
use rand::{Rng, RngCore};

/// The Square Wave mechanism; see the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct SquareWave {
    epsilon: f64,
    b: f64,
    p: f64,
    q: f64,
}

impl SquareWave {
    /// Creates an SW instance with privacy budget `epsilon`.
    ///
    /// # Errors
    /// Returns [`MechanismError::InvalidEpsilon`] unless `0 < ε < ∞`.
    pub fn new(epsilon: f64) -> Result<Self, MechanismError> {
        check_epsilon(epsilon)?;
        let b = Self::wave_half_width(epsilon);
        let e = epsilon.exp();
        let p = e / (2.0 * b * e + 1.0);
        let q = 1.0 / (2.0 * b * e + 1.0);
        Ok(Self { epsilon, b, p, q })
    }

    /// The half-width `b` of the near zone for a given budget.
    ///
    /// Numerically stable for tiny ε (where the closed form is 0/0): a
    /// series expansion gives `b → 1/2` as `ε → 0`.
    #[must_use]
    pub fn wave_half_width(epsilon: f64) -> f64 {
        if epsilon < 1e-4 {
            // numerator ~ ε²/2·(1 + 2ε/3), denominator ~ ε²·(1 + ε/3 + ...)
            // leading behaviour: b = 1/2·(1 + ε/3) + O(ε²)
            return 0.5 * (1.0 + epsilon / 3.0);
        }
        let e = epsilon.exp();
        (epsilon * e - e + 1.0) / (2.0 * e * (e - epsilon - 1.0))
    }

    /// Near-zone half width `b`.
    #[must_use]
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Near-zone density `p`.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Far-zone density `q`.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Density segments `(lo, hi, density)` of the output distribution for
    /// input `x`: far zone left of the wave, the wave, far zone right of it.
    /// Degenerate (zero-width) segments are omitted.
    fn segments(&self, x: f64) -> impl Iterator<Item = (f64, f64, f64)> {
        let b = self.b;
        [
            (-b, x - b, self.q),
            (x - b, x + b, self.p),
            (x + b, 1.0 + b, self.q),
        ]
        .into_iter()
        .filter(|(lo, hi, _)| hi > lo)
    }

    /// Raw moment `E[SW(x)^k]` by exact piecewise integration.
    #[must_use]
    pub fn raw_moment(&self, x: f64, k: u32) -> f64 {
        let x = Domain::UNIT.clip(x);
        let k1 = (k + 1) as i32;
        self.segments(x)
            .map(|(lo, hi, d)| d * (hi.powi(k1) - lo.powi(k1)) / f64::from(k1))
            .sum()
    }

    /// Central moment `E[(SW(x) − E[SW(x)])^k]` by exact piecewise
    /// integration.
    #[must_use]
    pub fn central_moment(&self, x: f64, k: u32) -> f64 {
        let x = Domain::UNIT.clip(x);
        let mu = self.expected_output(x);
        let k1 = (k + 1) as i32;
        self.segments(x)
            .map(|(lo, hi, d)| d * ((hi - mu).powi(k1) - (lo - mu).powi(k1)) / f64::from(k1))
            .sum()
    }

    /// Output variance `Var(SW(x))` (the paper's σ², at `x = 1` the
    /// worst-case used by the PP-S optimizer).
    #[must_use]
    pub fn output_variance(&self, x: f64) -> f64 {
        self.central_moment(x, 2)
    }

    /// Fourth central output moment (the paper's µ₄).
    #[must_use]
    pub fn fourth_central_moment(&self, x: f64) -> f64 {
        self.central_moment(x, 4)
    }

    /// Mean of the deviation `D_x = x − SW(x)`.
    ///
    /// Closed form (paper §IV-B): `E[D_x] = q·((1+2b)x − (b + 1/2))`.
    #[must_use]
    pub fn deviation_mean(&self, x: f64) -> f64 {
        let x = Domain::UNIT.clip(x);
        self.q * ((1.0 + 2.0 * self.b) * x - (self.b + 0.5))
    }

    /// The paper's closed-form worst-case deviation variance at `x = 1`:
    ///
    /// `Var(D₁) = 2b³p/3 − b²q² + b²q − bq² + bq − q²/4 + q/3`.
    ///
    /// Exposed separately so tests can check it against the exact piecewise
    /// integration, and so CAPP can use the same expression the paper uses.
    #[must_use]
    pub fn worst_case_deviation_variance(&self) -> f64 {
        let (b, p, q) = (self.b, self.p, self.q);
        2.0 * b.powi(3) * p / 3.0 - b * b * q * q + b * b * q - b * q * q + b * q - q * q / 4.0
            + q / 3.0
    }
}

impl SquareWave {
    /// Draws one report for input `v` (clamped to `[0, 1]`) — the sampler
    /// behind [`Mechanism::perturb`], generic over the generator so a
    /// concrete RNG inlines into the caller's loop.
    ///
    /// Both zones consume exactly two uniforms, so the sampler draws them
    /// up front and *selects* afterwards: the zone choice is a ~50/50
    /// data-dependent coin at small budgets, and computing both candidates
    /// costs less than mispredicting it. Draw order and arithmetic are
    /// those of the branching form, so outputs are bit-identical to it.
    #[inline(always)]
    pub fn sample<R: RngCore + ?Sized>(&self, v: f64, rng: &mut R) -> f64 {
        let v = Domain::UNIT.clip(v);
        let zone = rng.gen::<f64>();
        let u = rng.gen::<f64>();
        // Uniform over the near zone [v−b, v+b].
        let near = v - self.b + 2.0 * self.b * u;
        // Uniform over the far zone [−b, v−b) ∪ (v+b, 1+b], total width 1.
        let far = if u < v {
            -self.b + u
        } else {
            v + self.b + (u - v)
        };
        if zone < 2.0 * self.b * self.p {
            near
        } else {
            far
        }
    }
}

impl Mechanism for SquareWave {
    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn input_domain(&self) -> Domain {
        Domain::UNIT
    }

    fn output_domain(&self) -> Domain {
        Domain::new(-self.b, 1.0 + self.b).expect("b > 0")
    }

    fn perturb(&self, v: f64, rng: &mut dyn RngCore) -> f64 {
        self.sample(v, rng)
    }

    fn density(&self, x: f64, y: f64) -> f64 {
        let x = Domain::UNIT.clip(x);
        if y < -self.b || y > 1.0 + self.b {
            0.0
        } else if (y - x).abs() <= self.b {
            self.p
        } else {
            self.q
        }
    }

    /// `E[SW(x)] = 2b(p−q)x + qb + q/2` (paper §V).
    fn expected_output(&self, x: f64) -> f64 {
        let x = Domain::UNIT.clip(x);
        2.0 * self.b * (self.p - self.q) * x + self.q * self.b + self.q / 2.0
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
    fn rejects_invalid_epsilon() {
        assert!(SquareWave::new(0.0).is_err());
        assert!(SquareWave::new(-1.0).is_err());
        assert!(SquareWave::new(f64::NAN).is_err());
    }

    #[test]
    fn density_normalizes_to_one() {
        for &eps in &[0.1, 0.5, 1.0, 2.0, 5.0] {
            let sw = SquareWave::new(eps).unwrap();
            // total mass = 2b·p + 1·q·... : far zone width is exactly 1.
            let mass = 2.0 * sw.b() * sw.p() + 1.0 * sw.q();
            assert!((mass - 1.0).abs() < 1e-12, "eps={eps}: mass={mass}");
        }
    }

    #[test]
    fn b_approaches_half_as_epsilon_vanishes() {
        let b = SquareWave::wave_half_width(1e-6);
        assert!((b - 0.5).abs() < 1e-3, "b={b}");
    }

    #[test]
    fn b_shrinks_for_large_epsilon() {
        let b_small = SquareWave::wave_half_width(0.5);
        let b_large = SquareWave::wave_half_width(5.0);
        assert!(b_large < b_small);
        assert!(b_large > 0.0);
    }

    #[test]
    fn half_width_series_matches_closed_form_at_crossover() {
        // The series branch (ε < 1e-4) must agree with the closed form just
        // above the crossover.
        let eps: f64 = 1.2e-4;
        let e = eps.exp();
        let closed = (eps * e - e + 1.0) / (2.0 * e * (e - eps - 1.0));
        let series = 0.5 * (1.0 + eps / 3.0);
        assert!((closed - series).abs() < 1e-4, "{closed} vs {series}");
    }

    #[test]
    fn outputs_stay_in_output_domain() {
        let sw = SquareWave::new(0.7).unwrap();
        let dom = sw.output_domain();
        let mut r = rng(1);
        for i in 0..2000 {
            let v = (i % 101) as f64 / 100.0;
            let y = sw.perturb(v, &mut r);
            assert!(dom.contains(y), "y={y} outside {dom}");
        }
    }

    /// Outputs captured from the branching sampler this one replaced (draw
    /// the zone coin, then branch into one zone's arithmetic): seed 42,
    /// inputs `i/11`. Pins that drawing both uniforms first and selecting
    /// afterwards changed neither the draw order nor a single bit.
    #[test]
    fn select_after_draw_sampler_matches_the_branching_sampler_golden_vector() {
        const GOLDEN: [(f64, [u64; 12]); 2] = [
            (
                0.2,
                [
                    0xbfbb1cfe7c3d0d78,
                    0x3ff5cbdca3c82245,
                    0x3ff3512c2267fea4,
                    0x3ff499f44396a56f,
                    0x3ff055b7e54f5d0b,
                    0xbfc2cda0ae8560b6,
                    0xbfbdbd148fd9bcd4,
                    0x3ff50ba775e37d76,
                    0x3ff49f9d04a6aa93,
                    0x3fd14bcbf230eb95,
                    0x3fe41a1912079581,
                    0x3ff16daf91ab6c42,
                ],
            ),
            (
                2.0,
                [
                    0xbfa0072ab746391a,
                    0x3ff0dd4e92ed91c8,
                    0x3fecc53c231adc4e,
                    0x3fef56cc657829e4,
                    0x3fe6ce53a8e9991b,
                    0x3fc4a6cfd84f2333,
                    0x3fc895e63ee7a57f,
                    0x3ff01d196508ecf9,
                    0x3fea2e6f2ff80e88,
                    0x3fe283021acd96c5,
                    0x3fea6f1a70d5e574,
                    0x3ff06c1668e371d5,
                ],
            ),
        ];
        for (eps, expected) in GOLDEN {
            let sw = SquareWave::new(eps).unwrap();
            let mut r = rng(42);
            for (i, bits) in expected.into_iter().enumerate() {
                let y = sw.perturb(i as f64 / 11.0, &mut r);
                assert_eq!(y.to_bits(), bits, "ε={eps} input {i}/11: got {y}");
            }
        }
    }

    #[test]
    fn out_of_domain_inputs_are_clamped() {
        let sw = SquareWave::new(1.0).unwrap();
        let mut r1 = rng(5);
        let mut r2 = rng(5);
        assert_eq!(sw.perturb(7.0, &mut r1), sw.perturb(1.0, &mut r2));
    }

    #[test]
    fn expected_output_matches_empirical_mean() {
        let sw = SquareWave::new(1.5).unwrap();
        let mut r = rng(42);
        for &x in &[0.0, 0.3, 0.8, 1.0] {
            let n = 200_000;
            let emp: f64 = (0..n).map(|_| sw.perturb(x, &mut r)).sum::<f64>() / n as f64;
            let exact = sw.expected_output(x);
            assert!(
                (emp - exact).abs() < 5e-3,
                "x={x}: empirical {emp} vs exact {exact}"
            );
        }
    }

    #[test]
    fn raw_moment_zero_is_one() {
        for &eps in &[0.2, 1.0, 3.0] {
            let sw = SquareWave::new(eps).unwrap();
            for &x in &[0.0, 0.4, 1.0] {
                assert!((sw.raw_moment(x, 0) - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn raw_moment_one_matches_expected_output() {
        let sw = SquareWave::new(0.8).unwrap();
        for &x in &[0.0, 0.25, 0.6, 1.0] {
            assert!((sw.raw_moment(x, 1) - sw.expected_output(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn deviation_mean_matches_paper_closed_form() {
        // E[D_x] = x − E[SW(x)] must equal q((1+2b)x − (b+1/2)).
        for &eps in &[0.3, 1.0, 2.5] {
            let sw = SquareWave::new(eps).unwrap();
            for &x in &[0.0, 0.2, 0.7, 1.0] {
                let direct = x - sw.expected_output(x);
                assert!(
                    (direct - sw.deviation_mean(x)).abs() < 1e-12,
                    "eps={eps} x={x}: {direct} vs {}",
                    sw.deviation_mean(x)
                );
            }
        }
    }

    #[test]
    fn worst_case_deviation_variance_matches_integration() {
        for &eps in &[0.2, 0.5, 1.0, 2.0, 4.0] {
            let sw = SquareWave::new(eps).unwrap();
            // Var(x − SW(x)) = Var(SW(x)): x is a constant shift.
            let exact = sw.output_variance(1.0);
            let paper = sw.worst_case_deviation_variance();
            assert!(
                (exact - paper).abs() < 1e-10,
                "eps={eps}: integration {exact} vs paper {paper}"
            );
        }
    }

    #[test]
    fn central_moments_match_empirical() {
        let sw = SquareWave::new(1.0).unwrap();
        let mut r = rng(9);
        let x = 1.0;
        let n = 400_000;
        let samples: Vec<f64> = (0..n).map(|_| sw.perturb(x, &mut r)).collect();
        let mu = samples.iter().sum::<f64>() / n as f64;
        let var_emp = samples.iter().map(|s| (s - mu) * (s - mu)).sum::<f64>() / n as f64;
        let m4_emp = samples.iter().map(|s| (s - mu).powi(4)).sum::<f64>() / n as f64;
        assert!(
            (var_emp - sw.output_variance(x)).abs() < 2e-3,
            "var: {var_emp} vs {}",
            sw.output_variance(x)
        );
        assert!(
            (m4_emp - sw.fourth_central_moment(x)).abs() < 5e-3,
            "m4: {m4_emp} vs {}",
            sw.fourth_central_moment(x)
        );
    }

    #[test]
    fn variance_shrinks_with_budget() {
        let lo = SquareWave::new(0.5).unwrap().output_variance(1.0);
        let hi = SquareWave::new(3.0).unwrap().output_variance(1.0);
        assert!(hi < lo, "more budget must mean less variance: {hi} vs {lo}");
    }

    #[test]
    fn density_ratio_respects_ldp_bound() {
        let eps = 1.3;
        let sw = SquareWave::new(eps).unwrap();
        let bound = eps.exp() * (1.0 + 1e-9);
        let grid: Vec<f64> = (0..=60)
            .map(|i| -sw.b() + i as f64 * (1.0 + 2.0 * sw.b()) / 60.0)
            .collect();
        for i in 0..=20 {
            for j in 0..=20 {
                let x1 = i as f64 / 20.0;
                let x2 = j as f64 / 20.0;
                for &y in &grid {
                    let f1 = sw.density(x1, y);
                    let f2 = sw.density(x2, y);
                    if f2 > 0.0 {
                        assert!(
                            f1 / f2 <= bound,
                            "ratio {} at x1={x1} x2={x2} y={y}",
                            f1 / f2
                        );
                    }
                }
            }
        }
    }
}
