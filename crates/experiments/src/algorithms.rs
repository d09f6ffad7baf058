//! Uniform construction of every algorithm appearing in the evaluation.

use ldp_baselines::{BaSw, NaiveSampling, SwDirect, ToPL};
use ldp_core::{
    App, Capp, ClipBounds, DirectMechanismStream, GenericApp, Ipp, PpKind, Sampling,
    StreamMechanism,
};
use ldp_mechanisms::{Hybrid, Laplace, Piecewise, StochasticRounding};

/// The non-SW mechanisms of the generalizability study (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AltMechanism {
    /// Additive Laplace noise on `[−1, 1]`.
    Laplace,
    /// Duchi et al.'s binary mechanism.
    Sr,
    /// The Piecewise Mechanism.
    Pm,
    /// The Hybrid Mechanism.
    Hm,
}

impl AltMechanism {
    /// Figure-legend label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AltMechanism::Laplace => "Laplace",
            AltMechanism::Sr => "SR",
            AltMechanism::Pm => "PM",
            AltMechanism::Hm => "HM",
        }
    }
}

/// Every algorithm arm of the evaluation, with its configuration knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlgorithmSpec {
    /// SW applied per slot (no feedback).
    SwDirect,
    /// Budget absorption over SW.
    BaSw,
    /// Iterative perturbation parameterization.
    Ipp,
    /// Accumulated perturbation parameterization (+SMA).
    App,
    /// Clipped accumulated perturbation parameterization (+SMA); `margin`
    /// optionally forces the clip margin δ (Fig 11), `None` = recommended.
    Capp {
        /// Forced clip margin δ, or `None` for the paper's `T(e_s, e_d)`.
        margin: Option<f64>,
    },
    /// ToPL (SW range fit + Hybrid Mechanism).
    ToPL,
    /// Naive segment-mean sampling (no feedback).
    NaiveSampling,
    /// APP over segment means (PP-S).
    AppSampling,
    /// CAPP over segment means (PP-S).
    CappSampling,
    /// Alternative mechanism applied per slot on `[−1, 1]` (Fig 9).
    MechDirect(AltMechanism),
    /// APP feedback over an alternative mechanism on `[−1, 1]` (Fig 9).
    MechApp(AltMechanism),
}

impl AlgorithmSpec {
    /// Figure-legend label.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            AlgorithmSpec::SwDirect => "SW-direct".into(),
            AlgorithmSpec::BaSw => "BA-SW".into(),
            AlgorithmSpec::Ipp => "IPP".into(),
            AlgorithmSpec::App => "APP".into(),
            AlgorithmSpec::Capp { margin: None } => "CAPP".into(),
            AlgorithmSpec::Capp { margin: Some(d) } => format!("CAPP(δ={d})"),
            AlgorithmSpec::ToPL => "ToPL".into(),
            AlgorithmSpec::NaiveSampling => "Sampling".into(),
            AlgorithmSpec::AppSampling => "APP-S".into(),
            AlgorithmSpec::CappSampling => "CAPP-S".into(),
            AlgorithmSpec::MechDirect(m) => format!("{}-direct", m.label()),
            AlgorithmSpec::MechApp(m) => format!("{}-APP", m.label()),
        }
    }

    /// Whether this algorithm expects inputs on `[−1, 1]` (the alternative-
    /// mechanism family) rather than `[0, 1]`.
    #[must_use]
    pub fn uses_symmetric_domain(self) -> bool {
        matches!(
            self,
            AlgorithmSpec::MechDirect(_) | AlgorithmSpec::MechApp(_)
        )
    }

    /// Builds the algorithm for window budget `epsilon` and window size `w`.
    ///
    /// # Panics
    /// Panics on invalid `(epsilon, w)` — experiment configurations are
    /// static, so construction failures are programming errors.
    #[must_use]
    pub fn build(self, epsilon: f64, w: usize) -> Box<dyn StreamMechanism + Send + Sync> {
        let slot = epsilon / w as f64;
        match self {
            AlgorithmSpec::SwDirect => Box::new(SwDirect::new(epsilon, w).unwrap()),
            AlgorithmSpec::BaSw => Box::new(BaSw::new(epsilon, w).unwrap()),
            AlgorithmSpec::Ipp => Box::new(Ipp::new(epsilon, w).unwrap()),
            AlgorithmSpec::App => Box::new(App::new(epsilon, w).unwrap()),
            AlgorithmSpec::Capp { margin: None } => Box::new(Capp::new(epsilon, w).unwrap()),
            AlgorithmSpec::Capp { margin: Some(d) } => Box::new(
                Capp::new(epsilon, w)
                    .unwrap()
                    .with_bounds(ClipBounds::from_margin(d).unwrap()),
            ),
            AlgorithmSpec::ToPL => Box::new(ToPL::new(epsilon, w).unwrap()),
            AlgorithmSpec::NaiveSampling => Box::new(NaiveSampling::new(epsilon, w).unwrap()),
            AlgorithmSpec::AppSampling => Box::new(Sampling::new(PpKind::App, epsilon, w).unwrap()),
            AlgorithmSpec::CappSampling => {
                Box::new(Sampling::new(PpKind::Capp, epsilon, w).unwrap())
            }
            AlgorithmSpec::MechDirect(m) => match m {
                AltMechanism::Laplace => {
                    Box::new(DirectMechanismStream::new(Laplace::new(slot).unwrap()))
                }
                AltMechanism::Sr => Box::new(DirectMechanismStream::new(
                    StochasticRounding::new(slot).unwrap(),
                )),
                AltMechanism::Pm => {
                    Box::new(DirectMechanismStream::new(Piecewise::new(slot).unwrap()))
                }
                AltMechanism::Hm => {
                    Box::new(DirectMechanismStream::new(Hybrid::new(slot).unwrap()))
                }
            },
            AlgorithmSpec::MechApp(m) => match m {
                AltMechanism::Laplace => Box::new(GenericApp::new(Laplace::new(slot).unwrap())),
                AltMechanism::Sr => {
                    Box::new(GenericApp::new(StochasticRounding::new(slot).unwrap()))
                }
                AltMechanism::Pm => Box::new(GenericApp::new(Piecewise::new(slot).unwrap())),
                AltMechanism::Hm => Box::new(GenericApp::new(Hybrid::new(slot).unwrap())),
            },
        }
    }

    /// The SW-vs-alternatives arms of Figure 9, including SW itself
    /// expressed in the same direct/APP pairing.
    #[must_use]
    pub fn fig9_arms() -> Vec<(String, AlgorithmSpec)> {
        let mut arms: Vec<(String, AlgorithmSpec)> = Vec::new();
        for m in [AltMechanism::Laplace, AltMechanism::Sr, AltMechanism::Pm] {
            arms.push((
                format!("{}-direct", m.label()),
                AlgorithmSpec::MechDirect(m),
            ));
            arms.push((format!("{}-APP", m.label()), AlgorithmSpec::MechApp(m)));
        }
        arms.push(("SW-direct".into(), AlgorithmSpec::SwDirect));
        arms.push(("SW-APP".into(), AlgorithmSpec::App));
        arms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn every_spec_builds_and_publishes() {
        let specs = [
            AlgorithmSpec::SwDirect,
            AlgorithmSpec::BaSw,
            AlgorithmSpec::Ipp,
            AlgorithmSpec::App,
            AlgorithmSpec::Capp { margin: None },
            AlgorithmSpec::Capp { margin: Some(0.1) },
            AlgorithmSpec::ToPL,
            AlgorithmSpec::NaiveSampling,
            AlgorithmSpec::AppSampling,
            AlgorithmSpec::CappSampling,
            AlgorithmSpec::MechDirect(AltMechanism::Laplace),
            AlgorithmSpec::MechApp(AltMechanism::Pm),
            AlgorithmSpec::MechDirect(AltMechanism::Hm),
            AlgorithmSpec::MechApp(AltMechanism::Sr),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let xs = vec![0.5; 24];
        for spec in specs {
            let algo = spec.build(1.0, 8);
            let out = algo.publish(&xs, &mut rng);
            assert_eq!(out.len(), xs.len(), "{}", spec.label());
        }
    }

    #[test]
    fn labels_are_paper_facing() {
        assert_eq!(AlgorithmSpec::Capp { margin: None }.label(), "CAPP");
        assert_eq!(AlgorithmSpec::AppSampling.label(), "APP-S");
        assert_eq!(
            AlgorithmSpec::MechApp(AltMechanism::Laplace).label(),
            "Laplace-APP"
        );
    }

    #[test]
    fn fig9_arms_cover_four_mechanisms_both_ways() {
        let arms = AlgorithmSpec::fig9_arms();
        assert_eq!(arms.len(), 8);
        assert!(arms.iter().any(|(l, _)| l == "SW-APP"));
        assert!(arms.iter().any(|(l, _)| l == "PM-direct"));
    }

    #[test]
    fn symmetric_domain_flag() {
        assert!(AlgorithmSpec::MechDirect(AltMechanism::Sr).uses_symmetric_domain());
        assert!(!AlgorithmSpec::App.uses_symmetric_domain());
    }
}
