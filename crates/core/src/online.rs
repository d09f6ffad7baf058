//! Online (slot-at-a-time) publication sessions.
//!
//! The batch [`crate::StreamMechanism`] API fits experiments; real
//! deployments receive values one at a time and must emit a report
//! immediately. [`OnlineSession`] carries the deviation state across
//! calls, so a device can run
//!
//! ```
//! use ldp_core::online::{OnlineSession, PipelineSpec, SessionKind};
//! use rand::SeedableRng;
//!
//! let capp = PipelineSpec::sw(SessionKind::Capp);
//! let mut session = OnlineSession::of_spec(capp, 2.0, 24).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! for reading in [0.31, 0.35, 0.33] {
//!     let report = session.report(reading, &mut rng);
//!     assert!(report.is_finite());
//! }
//! assert_eq!(session.slots_published(), 3);
//! ```
//!
//! indefinitely while retaining the w-event guarantee (every slot spends
//! `ε/w`, so any window of `w` totals ε). "Indefinitely" is meant
//! literally: the session's spend ledger is an O(w) ring buffer
//! ([`WEventAccountant`]), so per-session memory is flat no matter how
//! long the stream runs.

use crate::accountant::{slot_budget, WEventAccountant};
use crate::kernel::Kernel;
use crate::Result;
use ldp_mechanisms::{MechanismError, MechanismKind};
use rand::RngCore;
use std::fmt;
use std::str::FromStr;

/// The publicly selectable feedback rules (used by the collector fleet
/// and anything else that needs to construct sessions dynamically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionKind {
    /// No feedback (mechanism-direct baseline; historically "SW-direct"
    /// because SW is the default backend).
    SwDirect,
    /// Last-deviation feedback.
    Ipp,
    /// Accumulated-deviation feedback.
    App,
    /// Accumulated feedback with the recommended clip range.
    Capp,
}

impl SessionKind {
    /// Every kind, in display order.
    pub const ALL: [SessionKind; 4] = [
        SessionKind::SwDirect,
        SessionKind::Ipp,
        SessionKind::App,
        SessionKind::Capp,
    ];

    /// Short label for reports and benchmarks.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SessionKind::SwDirect => "direct",
            SessionKind::Ipp => "ipp",
            SessionKind::App => "app",
            SessionKind::Capp => "capp",
        }
    }
}

impl fmt::Display for SessionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for SessionKind {
    type Err = MechanismError;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "direct" | "sw-direct" => Ok(SessionKind::SwDirect),
            "ipp" => Ok(SessionKind::Ipp),
            "app" => Ok(SessionKind::App),
            "capp" => Ok(SessionKind::Capp),
            other => Err(MechanismError::UnknownLabel {
                expected: "session kind (direct, ipp, app, capp)",
                got: other.to_owned(),
            }),
        }
    }
}

/// A full client pipeline configuration: which feedback rule runs over
/// which perturbation primitive. This is the unit the collector fleet,
/// the experiment grid, and the benches are parameterized by — any
/// [`SessionKind`] composes with any [`MechanismKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineSpec {
    /// The feedback rule.
    pub session: SessionKind,
    /// The perturbation primitive it drives.
    pub mechanism: MechanismKind,
}

impl PipelineSpec {
    /// Pairs a feedback rule with a mechanism.
    #[must_use]
    pub const fn new(session: SessionKind, mechanism: MechanismKind) -> Self {
        Self { session, mechanism }
    }

    /// The SW-backed pipeline for a feedback rule — the paper's default.
    #[must_use]
    pub const fn sw(session: SessionKind) -> Self {
        Self::new(session, MechanismKind::SquareWave)
    }

    /// Label of the form `capp+sw`, stable for reports and benches
    /// (delegates to [`fmt::Display`] so the two can never diverge).
    #[must_use]
    pub fn label(self) -> String {
        self.to_string()
    }

    /// The full SessionKind × MechanismKind grid, sessions-major.
    #[must_use]
    pub fn grid() -> Vec<PipelineSpec> {
        let mut cells = Vec::with_capacity(SessionKind::ALL.len() * MechanismKind::ALL.len());
        for session in SessionKind::ALL {
            for mechanism in MechanismKind::ALL {
                cells.push(PipelineSpec::new(session, mechanism));
            }
        }
        cells
    }
}

impl fmt::Display for PipelineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.session, self.mechanism)
    }
}

impl FromStr for PipelineSpec {
    type Err = MechanismError;

    /// Parses `"<session>+<mechanism>"` (e.g. `capp+sw`, `app+laplace`);
    /// a bare session name defaults the mechanism to SW.
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.split_once('+') {
            Some((session, mechanism)) => Ok(Self::new(session.parse()?, mechanism.parse()?)),
            None => Ok(Self::sw(s.parse()?)),
        }
    }
}

/// A stateful, slot-at-a-time publication session.
#[derive(Debug, Clone)]
pub struct OnlineSession {
    kernel: Kernel,
    kind: SessionKind,
    deviation: f64,
    accountant: WEventAccountant,
}

impl OnlineSession {
    /// Builds a session for a [`PipelineSpec`] cell (the paper's rules over
    /// SW are `PipelineSpec::sw(kind)`).
    ///
    /// # Errors
    /// Returns an error for invalid `(epsilon, w)`.
    pub fn of_spec(spec: PipelineSpec, epsilon: f64, w: usize) -> Result<Self> {
        Ok(Self {
            kernel: Kernel::of_spec(spec, slot_budget(epsilon, w)?)?,
            kind: spec.session,
            deviation: 0.0,
            accountant: WEventAccountant::new(w, epsilon),
        })
    }

    /// The pipeline cell this session runs.
    #[must_use]
    pub fn spec(&self) -> PipelineSpec {
        PipelineSpec::new(self.kind, self.kernel.backend().kind())
    }

    /// Window size `w` of the w-event guarantee.
    #[must_use]
    pub fn window(&self) -> usize {
        self.accountant.window()
    }

    /// Per-slot privacy budget.
    #[must_use]
    pub fn slot_epsilon(&self) -> f64 {
        self.kernel.backend().epsilon()
    }

    /// Number of slots reported so far.
    #[must_use]
    pub fn slots_published(&self) -> usize {
        self.accountant.len()
    }

    /// The session's spend ledger (for audits).
    #[must_use]
    pub fn accountant(&self) -> &WEventAccountant {
        &self.accountant
    }

    /// The deviation the next input corrects: 0 for the direct rule, the
    /// last report's `x − x'` for IPP, and the running sum of every
    /// report's `x − x'` for APP and CAPP.
    #[must_use]
    pub fn pending_deviation(&self) -> f64 {
        self.deviation
    }

    /// Restarts the session for a new stream under the same configuration:
    /// zero deviation and an empty ledger. Nothing is re-derived or
    /// reallocated, so a driver publishing for many users keeps one
    /// session per lane and resets it between users.
    pub fn reset(&mut self) {
        self.deviation = 0.0;
        self.accountant.reset();
    }

    /// Perturbs and reports one value, updating the feedback state and the
    /// budget ledger. Allocation-free.
    pub fn report(&mut self, x: f64, rng: &mut dyn RngCore) -> f64 {
        let reported = self.kernel.step(x, &mut self.deviation, rng);
        self.accountant.record(self.slot_epsilon());
        reported
    }

    /// Reports a whole batch into a reused buffer (cleared first): the
    /// single-lane form of [`Self::report_lanes_into`].
    pub fn report_all_into(&mut self, xs: &[f64], out: &mut Vec<f64>, rng: &mut dyn RngCore) {
        Self::report_lanes_into([self], [xs], [out], [rng]);
    }

    /// Advances `K` independent sessions in lock-step, lane `k` reporting
    /// the batch `xs[k]` into `outs[k]` (cleared first, capacity reused)
    /// with generator `rngs[k]` — the fleet's upload path, free of heap
    /// allocation once the buffers have warmed up.
    ///
    /// Every lane ends in exactly the state — reports, pending deviation,
    /// ledger — that its own [`Self::report_all_into`] call would leave;
    /// the lanes share nothing. What lock-step buys is speed: one stream
    /// is a serial feedback chain (each input needs the previous report),
    /// and `K` chains side by side keep the pipeline full. Passing a
    /// concrete generator type additionally inlines it into the loop.
    ///
    /// # Panics
    /// Panics unless the `K` batches have the same length.
    pub fn report_lanes_into<const K: usize, R: RngCore + ?Sized>(
        sessions: [&mut OnlineSession; K],
        xs: [&[f64]; K],
        outs: [&mut Vec<f64>; K],
        rngs: [&mut R; K],
    ) {
        let kernels = sessions.each_ref().map(|s| s.kernel);
        let mut deviations = sessions.each_ref().map(|s| s.deviation);
        let slots = xs.first().map_or(0, |x| x.len());
        let outs = outs.map(|out| {
            out.clear();
            out.resize(slots, 0.0);
            out.as_mut_slice()
        });
        Kernel::run_lanes(&kernels, &mut deviations, xs, outs, rngs);
        for (k, session) in sessions.into_iter().enumerate() {
            session.deviation = deviations[k];
            session.accountant.record_run(session.slot_epsilon(), slots);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publisher::StreamMechanism;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn sw(kind: SessionKind, epsilon: f64, w: usize) -> OnlineSession {
        OnlineSession::of_spec(PipelineSpec::sw(kind), epsilon, w).unwrap()
    }

    #[test]
    fn rejects_invalid_configs() {
        assert!(OnlineSession::of_spec(PipelineSpec::sw(SessionKind::App), 0.0, 5).is_err());
        let err = OnlineSession::of_spec(PipelineSpec::sw(SessionKind::Capp), 2.0, 0).unwrap_err();
        assert_eq!(err, MechanismError::InvalidWindow(0));
        assert!(err.to_string().contains("window size w"), "{err}");
    }

    #[test]
    fn session_accounting_tracks_every_slot() {
        let mut s = sw(SessionKind::App, 1.0, 10);
        let mut r = rng(1);
        for _ in 0..25 {
            let _ = s.report(0.5, &mut r);
        }
        assert_eq!(s.slots_published(), 25);
        assert!(s.accountant().satisfies_w_event());
        assert!((s.accountant().max_window_spend() - 1.0).abs() < 1e-9);
    }

    /// Same kernel, same draws: for every mechanism, the batch publisher
    /// of `session`'s rule (unsmoothed) reports exactly what a session of
    /// that cell reports.
    fn assert_online_matches_batch(session: SessionKind) {
        let (epsilon, w) = (4.0, 10);
        let xs: Vec<f64> = (0..60)
            .map(|i| 0.5 + 0.45 * (i as f64 / 7.0).sin())
            .collect();
        for mechanism in MechanismKind::ALL {
            let spec = PipelineSpec::new(session, mechanism);
            let mut r = rng(2);
            let batch = match session {
                SessionKind::SwDirect => crate::Direct::of_mechanism(mechanism, epsilon, w)
                    .unwrap()
                    .publish(&xs, &mut r),
                SessionKind::Ipp => crate::Ipp::of_mechanism(mechanism, epsilon, w)
                    .unwrap()
                    .publish(&xs, &mut r),
                SessionKind::App => crate::App::of_mechanism(mechanism, epsilon, w)
                    .unwrap()
                    .with_smoothing(1)
                    .publish(&xs, &mut r),
                SessionKind::Capp => crate::Capp::of_mechanism(mechanism, epsilon, w)
                    .unwrap()
                    .with_smoothing(1)
                    .publish(&xs, &mut r),
            };
            let mut online = OnlineSession::of_spec(spec, epsilon, w).unwrap();
            let mut reported = Vec::new();
            online.report_all_into(&xs, &mut reported, &mut rng(2));
            assert_eq!(batch, reported, "{spec}");
        }
    }

    #[test]
    fn online_direct_matches_batch_direct() {
        assert_online_matches_batch(SessionKind::SwDirect);
    }

    #[test]
    fn online_app_matches_batch_app() {
        assert_online_matches_batch(SessionKind::App);
    }

    #[test]
    fn online_ipp_matches_batch_ipp() {
        assert_online_matches_batch(SessionKind::Ipp);
    }

    #[test]
    fn online_capp_matches_batch_capp_raw() {
        assert_online_matches_batch(SessionKind::Capp);
    }

    /// Each rule's feedback law, slot by slot: after every report the
    /// pending deviation is exactly 0 for the direct rule, the last
    /// report's `x − x'` for IPP, and the running `Σ (x_i − x'_i)` (summed
    /// in slot order) for APP and CAPP.
    #[test]
    fn every_rule_keeps_its_feedback_law() {
        for spec in PipelineSpec::grid() {
            let mut session = OnlineSession::of_spec(spec, 2.0, 8).unwrap();
            let mut r = rng(5);
            let mut running = 0.0;
            for t in 0..40 {
                let x = 0.5 + 0.45 * ((t as f64) / 5.0).sin();
                let deviation = x - session.report(x, &mut r);
                running += deviation;
                let expected = match spec.session {
                    SessionKind::SwDirect => 0.0,
                    SessionKind::Ipp => deviation,
                    SessionKind::App | SessionKind::Capp => running,
                };
                assert_eq!(
                    session.pending_deviation().to_bits(),
                    expected.to_bits(),
                    "{spec} at slot {t}"
                );
            }
        }
    }

    #[test]
    fn pipeline_spec_grid_covers_every_cell() {
        let grid = PipelineSpec::grid();
        assert_eq!(
            grid.len(),
            SessionKind::ALL.len() * MechanismKind::ALL.len()
        );
        for session in SessionKind::ALL {
            for mechanism in MechanismKind::ALL {
                assert!(grid.contains(&PipelineSpec::new(session, mechanism)));
            }
        }
    }

    #[test]
    fn pipeline_spec_labels_roundtrip_through_fromstr() {
        for spec in PipelineSpec::grid() {
            assert_eq!(spec.label().parse::<PipelineSpec>().unwrap(), spec);
        }
        // Bare session names default to SW.
        assert_eq!(
            "capp".parse::<PipelineSpec>().unwrap(),
            PipelineSpec::sw(SessionKind::Capp)
        );
        assert!("capp+nope".parse::<PipelineSpec>().is_err());
        assert!("nope+sw".parse::<PipelineSpec>().is_err());
    }

    #[test]
    fn every_grid_cell_reports_finite_values() {
        for spec in PipelineSpec::grid() {
            let mut session = OnlineSession::of_spec(spec, 2.0, 8).unwrap();
            let mut r = rng(13);
            for t in 0..30 {
                let x = 0.5 + 0.4 * ((t as f64) / 7.0).sin();
                let y = session.report(x, &mut r);
                assert!(y.is_finite(), "{}: non-finite report {y}", spec.label());
            }
            assert!(session.accountant().satisfies_w_event(), "{}", spec.label());
        }
    }

    #[test]
    fn report_all_into_matches_slot_by_slot_reports() {
        let xs = [0.3; 25];
        let mut a = sw(SessionKind::App, 1.0, 5);
        let mut b = sw(SessionKind::App, 1.0, 5);
        let mut buf = vec![1.0; 7];
        a.report_all_into(&xs, &mut buf, &mut rng(14));
        let mut r = rng(14);
        let one_by_one: Vec<f64> = xs.iter().map(|&x| b.report(x, &mut r)).collect();
        assert_eq!(buf, one_by_one);
        assert_eq!(a.pending_deviation(), b.pending_deviation());
        assert_eq!(a.slots_published(), b.slots_published());
    }

    #[test]
    fn deviation_state_persists_across_calls() {
        let mut s = sw(SessionKind::App, 1.0, 5);
        let mut r = rng(6);
        let _ = s.report(0.5, &mut r);
        let d1 = s.pending_deviation();
        assert_ne!(d1, 0.0, "a perturbed report should leave a deviation");
        let _ = s.report(0.5, &mut r);
        // Accumulated: deviation changes but is not reset.
        assert_ne!(s.pending_deviation(), d1);
    }
}
