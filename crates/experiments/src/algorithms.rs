//! Uniform construction of every algorithm appearing in the evaluation.

use ldp_baselines::{BaSw, ToPL};
use ldp_core::{
    App, Capp, ClipBounds, Direct, Ipp, PipelineSpec, Sampling, SessionKind, StreamMechanism,
};
use ldp_mechanisms::{Domain, Mechanism, MechanismKind};

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
    /// One (rule, mechanism) cell of the pipeline grid, scored on the
    /// mechanism's input domain (Fig 9's direct and APP arms).
    Cell(PipelineSpec),
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
            AlgorithmSpec::Cell(spec) => {
                let mechanism = match spec.mechanism {
                    MechanismKind::SquareWave => "SW",
                    MechanismKind::StochasticRounding => "SR",
                    MechanismKind::Piecewise => "PM",
                    MechanismKind::Laplace => "Laplace",
                    MechanismKind::Hybrid => "HM",
                };
                let rule = match spec.session {
                    SessionKind::SwDirect => "direct",
                    SessionKind::Ipp => "IPP",
                    SessionKind::App => "APP",
                    SessionKind::Capp => "CAPP",
                };
                format!("{mechanism}-{rule}")
            }
        }
    }

    /// The domain the metric compares published and true streams on.
    /// Every arm publishes on the unit scale; a grid cell is scored on its
    /// mechanism's input domain (`[−1, 1]` for all but SW), as the paper
    /// evaluates Figure 9.
    #[must_use]
    pub fn metric_domain(self) -> Domain {
        match self {
            AlgorithmSpec::Cell(spec) => spec
                .mechanism
                .build(1.0)
                .expect("a unit budget is valid")
                .input_domain(),
            _ => Domain::UNIT,
        }
    }

    /// Builds the algorithm for window budget `epsilon` and window size `w`.
    ///
    /// # Panics
    /// Panics on invalid `(epsilon, w)` — experiment configurations are
    /// static, so construction failures are programming errors.
    #[must_use]
    pub fn build(self, epsilon: f64, w: usize) -> Box<dyn StreamMechanism + Send + Sync> {
        match self {
            AlgorithmSpec::SwDirect => Box::new(Direct::new(epsilon, w).unwrap()),
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
            AlgorithmSpec::NaiveSampling => {
                Box::new(Sampling::new(SessionKind::SwDirect, epsilon, w).unwrap())
            }
            AlgorithmSpec::AppSampling => {
                Box::new(Sampling::new(SessionKind::App, epsilon, w).unwrap())
            }
            AlgorithmSpec::CappSampling => {
                Box::new(Sampling::new(SessionKind::Capp, epsilon, w).unwrap())
            }
            AlgorithmSpec::Cell(spec) => {
                let m = spec.mechanism;
                match spec.session {
                    SessionKind::SwDirect => Box::new(Direct::of_mechanism(m, epsilon, w).unwrap()),
                    SessionKind::Ipp => Box::new(Ipp::of_mechanism(m, epsilon, w).unwrap()),
                    SessionKind::App => Box::new(App::of_mechanism(m, epsilon, w).unwrap()),
                    SessionKind::Capp => Box::new(Capp::of_mechanism(m, epsilon, w).unwrap()),
                }
            }
        }
    }

    /// The arms of Figure 9: direct and APP over Laplace, SR, PM and SW.
    #[must_use]
    pub fn fig9_arms() -> Vec<AlgorithmSpec> {
        let mut arms = Vec::new();
        for m in [
            MechanismKind::Laplace,
            MechanismKind::StochasticRounding,
            MechanismKind::Piecewise,
            MechanismKind::SquareWave,
        ] {
            for session in [SessionKind::SwDirect, SessionKind::App] {
                arms.push(AlgorithmSpec::Cell(PipelineSpec::new(session, m)));
            }
        }
        arms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn every_spec_builds_and_publishes() {
        let mut specs = vec![
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
        ];
        specs.extend(PipelineSpec::grid().into_iter().map(AlgorithmSpec::Cell));
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
        assert_eq!(AlgorithmSpec::NaiveSampling.label(), "Sampling");
        assert_eq!(AlgorithmSpec::AppSampling.label(), "APP-S");
        assert_eq!(AlgorithmSpec::CappSampling.label(), "CAPP-S");
        let laplace_app = PipelineSpec::new(SessionKind::App, MechanismKind::Laplace);
        assert_eq!(AlgorithmSpec::Cell(laplace_app).label(), "Laplace-APP");
    }

    /// Figure 4's SW arms and Figure 9's SW cells are one publisher each:
    /// the same bits from the same seed, scored on the same domain.
    #[test]
    fn named_sw_arms_are_their_cells() {
        let pairs = [
            (AlgorithmSpec::SwDirect, SessionKind::SwDirect),
            (AlgorithmSpec::Ipp, SessionKind::Ipp),
            (AlgorithmSpec::App, SessionKind::App),
            (AlgorithmSpec::Capp { margin: None }, SessionKind::Capp),
        ];
        let xs: Vec<f64> = (0..60)
            .map(|i| 0.5 + 0.45 * (i as f64 / 7.0).sin())
            .collect();
        let rng = || rand::rngs::StdRng::seed_from_u64(21);
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for (named, session) in pairs {
            let cell = AlgorithmSpec::Cell(PipelineSpec::sw(session));
            assert_eq!(
                bits(named.build(2.0, 8).publish(&xs, &mut rng())),
                bits(cell.build(2.0, 8).publish(&xs, &mut rng())),
                "{}",
                named.label()
            );
            assert_eq!(
                named.metric_domain(),
                cell.metric_domain(),
                "{}",
                named.label()
            );
        }
    }

    #[test]
    fn fig9_arms_cover_four_mechanisms_both_ways() {
        let labels: Vec<String> = AlgorithmSpec::fig9_arms()
            .into_iter()
            .map(AlgorithmSpec::label)
            .collect();
        assert_eq!(
            labels,
            [
                "Laplace-direct",
                "Laplace-APP",
                "SR-direct",
                "SR-APP",
                "PM-direct",
                "PM-APP",
                "SW-direct",
                "SW-APP"
            ]
        );
    }

    #[test]
    fn symmetric_domain_flag() {
        let sr = PipelineSpec::new(SessionKind::SwDirect, MechanismKind::StochasticRounding);
        assert_eq!(
            AlgorithmSpec::Cell(sr).metric_domain(),
            Domain::new(-1.0, 1.0).unwrap()
        );
        let sw_app = PipelineSpec::sw(SessionKind::App);
        assert_eq!(AlgorithmSpec::Cell(sw_app).metric_domain(), Domain::UNIT);
        assert_eq!(AlgorithmSpec::App.metric_domain(), Domain::UNIT);
    }
}
