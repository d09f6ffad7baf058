//! Construct-by-name mechanism dispatch.
//!
//! The feedback algorithms in `ldp-core` are mechanism-agnostic; what they
//! need is a way to *name* a perturbation primitive in configuration
//! (fleet specs, experiment grids, CLI flags) and construct it at runtime.
//! [`MechanismKind`] is that name — a small `Copy` enum with a stable
//! [`label`](MechanismKind::label), [`FromStr`] parsing, and a
//! [`build`](MechanismKind::build) constructor — and [`AnyMechanism`] is
//! the matching enum-dispatched instance implementing [`Mechanism`].
//!
//! Enum dispatch (rather than `Box<dyn Mechanism>`) keeps pipeline state
//! `Copy`, allocation-free, and inlinable on the per-report hot path:
//! [`AnyMechanism::sample`] is generic over the generator, so batch,
//! slot-at-a-time and dispatched calls all run the one sampler each
//! mechanism has and stay seed-for-seed identical with direct concrete
//! calls (pinned by the dispatch-parity tests).

use crate::domain::Domain;
use crate::error::MechanismError;
use crate::hybrid::Hybrid;
use crate::laplace::Laplace;
use crate::piecewise::Piecewise;
use crate::sr::StochasticRounding;
use crate::sw::SquareWave;
use crate::traits::Mechanism;
use rand::RngCore;
use std::fmt;
use std::str::FromStr;

/// Names one of the five LDP mechanisms this crate implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MechanismKind {
    /// Square Wave (Li et al., SIGMOD 2020) — the paper's primary
    /// mechanism. **Biased**: `E[SW(x)]` is an affine contraction of `x`.
    SquareWave,
    /// Stochastic Rounding (Duchi et al.) — two-point output, unbiased.
    StochasticRounding,
    /// Piecewise Mechanism (Wang et al., ICDE 2019) — unbiased.
    Piecewise,
    /// Additive Laplace noise — unbiased, unbounded output.
    Laplace,
    /// Hybrid Mechanism (ε-dependent PM/SR mixture) — unbiased.
    Hybrid,
}

impl MechanismKind {
    /// Every kind, in display order.
    pub const ALL: [MechanismKind; 5] = [
        MechanismKind::SquareWave,
        MechanismKind::StochasticRounding,
        MechanismKind::Piecewise,
        MechanismKind::Laplace,
        MechanismKind::Hybrid,
    ];

    /// Short stable label used in reports, benches, and `FromStr`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MechanismKind::SquareWave => "sw",
            MechanismKind::StochasticRounding => "sr",
            MechanismKind::Piecewise => "pm",
            MechanismKind::Laplace => "laplace",
            MechanismKind::Hybrid => "hm",
        }
    }

    /// Whether `E[A(x)] = x` on the (clamped) input domain. SW is the one
    /// biased mechanism; everything else reports unbiased values, which is
    /// what routes them through the direct debiasing path in `ldp-core`.
    #[must_use]
    pub fn is_unbiased(self) -> bool {
        !matches!(self, MechanismKind::SquareWave)
    }

    /// Constructs an instance with privacy budget `epsilon`.
    ///
    /// # Errors
    /// Returns [`MechanismError::InvalidEpsilon`] unless `0 < ε < ∞`.
    pub fn build(self, epsilon: f64) -> Result<AnyMechanism, MechanismError> {
        Ok(match self {
            MechanismKind::SquareWave => AnyMechanism::Sw(SquareWave::new(epsilon)?),
            MechanismKind::StochasticRounding => {
                AnyMechanism::Sr(StochasticRounding::new(epsilon)?)
            }
            MechanismKind::Piecewise => AnyMechanism::Pm(Piecewise::new(epsilon)?),
            MechanismKind::Laplace => AnyMechanism::Laplace(Laplace::new(epsilon)?),
            MechanismKind::Hybrid => AnyMechanism::Hm(Hybrid::new(epsilon)?),
        })
    }
}

impl fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for MechanismKind {
    type Err = MechanismError;

    /// Parses a label (case-insensitive) or a common alias:
    /// `sw`/`square-wave`, `sr`/`duchi`, `pm`/`piecewise`,
    /// `laplace`/`lap`, `hm`/`hybrid`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "sw" | "square-wave" | "squarewave" => Ok(MechanismKind::SquareWave),
            "sr" | "duchi" | "stochastic-rounding" => Ok(MechanismKind::StochasticRounding),
            "pm" | "piecewise" => Ok(MechanismKind::Piecewise),
            "laplace" | "lap" => Ok(MechanismKind::Laplace),
            "hm" | "hybrid" => Ok(MechanismKind::Hybrid),
            other => Err(MechanismError::UnknownLabel {
                expected: "mechanism (sw, sr, pm, laplace, hm)",
                got: other.to_owned(),
            }),
        }
    }
}

/// An enum-dispatched mechanism instance (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub enum AnyMechanism {
    /// Square Wave.
    Sw(SquareWave),
    /// Stochastic Rounding.
    Sr(StochasticRounding),
    /// Piecewise Mechanism.
    Pm(Piecewise),
    /// Laplace mechanism.
    Laplace(Laplace),
    /// Hybrid Mechanism.
    Hm(Hybrid),
}

macro_rules! dispatch {
    ($self:expr, $m:ident => $body:expr) => {
        match $self {
            AnyMechanism::Sw($m) => $body,
            AnyMechanism::Sr($m) => $body,
            AnyMechanism::Pm($m) => $body,
            AnyMechanism::Laplace($m) => $body,
            AnyMechanism::Hm($m) => $body,
        }
    };
}

impl AnyMechanism {
    /// The kind this instance was built from.
    #[must_use]
    pub fn kind(&self) -> MechanismKind {
        match self {
            AnyMechanism::Sw(_) => MechanismKind::SquareWave,
            AnyMechanism::Sr(_) => MechanismKind::StochasticRounding,
            AnyMechanism::Pm(_) => MechanismKind::Piecewise,
            AnyMechanism::Laplace(_) => MechanismKind::Laplace,
            AnyMechanism::Hm(_) => MechanismKind::Hybrid,
        }
    }

    /// Draws one report for input `v`: the wrapped mechanism's inherent
    /// `sample`, generic over the generator — with a concrete RNG the
    /// whole sampler inlines into the caller's loop, which is what the
    /// `ldp-core` publication kernel relies on.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, v: f64, rng: &mut R) -> f64 {
        dispatch!(self, m => m.sample(v, rng))
    }

    /// Output variance `Var[A(x)]` for a (clamped) input `x`, from each
    /// mechanism's closed form — what CAPP's clip-bound optimizer needs to
    /// price discarding error for non-SW backends.
    #[must_use]
    pub fn output_variance(&self, x: f64) -> f64 {
        match self {
            AnyMechanism::Sw(m) => m.output_variance(x),
            AnyMechanism::Sr(m) => m.output_variance(x),
            AnyMechanism::Pm(m) => m.output_variance(x),
            AnyMechanism::Laplace(m) => m.output_variance(),
            AnyMechanism::Hm(m) => m.output_variance(x),
        }
    }
}

impl Mechanism for AnyMechanism {
    fn epsilon(&self) -> f64 {
        dispatch!(self, m => m.epsilon())
    }

    fn input_domain(&self) -> Domain {
        dispatch!(self, m => m.input_domain())
    }

    fn output_domain(&self) -> Domain {
        dispatch!(self, m => m.output_domain())
    }

    fn perturb(&self, v: f64, rng: &mut dyn RngCore) -> f64 {
        self.sample(v, rng)
    }

    fn density(&self, x: f64, y: f64) -> f64 {
        dispatch!(self, m => m.density(x, y))
    }

    fn expected_output(&self, x: f64) -> f64 {
        dispatch!(self, m => m.expected_output(x))
    }

    // Dispatch once per batch, not once per value.
    fn perturb_into(&self, vs: &[f64], out: &mut [f64], rng: &mut dyn RngCore) {
        dispatch!(self, m => m.perturb_into(vs, out, rng));
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
    fn labels_roundtrip_through_fromstr() {
        for kind in MechanismKind::ALL {
            assert_eq!(kind.label().parse::<MechanismKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.label());
        }
    }

    #[test]
    fn aliases_parse_case_insensitively() {
        assert_eq!(
            "Square-Wave".parse::<MechanismKind>().unwrap(),
            MechanismKind::SquareWave
        );
        assert_eq!(
            " LAP ".parse::<MechanismKind>().unwrap(),
            MechanismKind::Laplace
        );
        assert!("nope".parse::<MechanismKind>().is_err());
    }

    #[test]
    fn build_rejects_bad_epsilon_for_every_kind() {
        for kind in MechanismKind::ALL {
            assert!(kind.build(0.0).is_err(), "{kind} accepted ε = 0");
            assert!(kind.build(1.0).is_ok(), "{kind} rejected ε = 1");
        }
    }

    #[test]
    fn kind_roundtrips_through_build() {
        for kind in MechanismKind::ALL {
            assert_eq!(kind.build(0.7).unwrap().kind(), kind);
        }
    }

    #[test]
    fn only_sw_is_biased() {
        for kind in MechanismKind::ALL {
            let mech = kind.build(0.5).unwrap();
            let lo = mech.input_domain().lo();
            let hi = mech.input_domain().hi();
            let mid = 0.5 * (lo + hi);
            if kind.is_unbiased() {
                for x in [lo, mid, hi] {
                    assert!(
                        (mech.expected_output(x) - x).abs() < 1e-12,
                        "{kind} should be unbiased at {x}"
                    );
                }
            } else {
                assert!((mech.expected_output(hi) - hi).abs() > 1e-3);
            }
        }
    }

    #[test]
    fn dispatched_perturb_matches_direct_calls() {
        // Seed-for-seed parity between AnyMechanism dispatch and the
        // concrete type (the SW case; the full grid lives in tests/).
        let any = MechanismKind::SquareWave.build(1.3).unwrap();
        let direct = SquareWave::new(1.3).unwrap();
        let xs = [0.1, 0.4, 0.9];
        let (mut r1, mut r2) = (rng(5), rng(5));
        assert_eq!(
            any.perturb_slice(&xs, &mut r1),
            direct.perturb_slice(&xs, &mut r2)
        );
    }

    #[test]
    fn output_variance_dispatch_matches_concrete() {
        let eps = 0.9;
        let any = MechanismKind::Piecewise.build(eps).unwrap();
        let pm = Piecewise::new(eps).unwrap();
        assert_eq!(any.output_variance(0.3), pm.output_variance(0.3));
        let lap = MechanismKind::Laplace.build(eps).unwrap();
        assert_eq!(
            lap.output_variance(0.0),
            Laplace::new(eps).unwrap().output_variance()
        );
    }
}
