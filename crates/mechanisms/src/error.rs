//! Error type for mechanism construction.

use std::fmt;

/// Errors raised when constructing or configuring a mechanism.
#[derive(Debug, Clone, PartialEq)]
pub enum MechanismError {
    /// The privacy budget must be a finite, strictly positive number.
    InvalidEpsilon(f64),
    /// A w-event window must span at least one slot.
    InvalidWindow(usize),
    /// A sensitivity / scale parameter must be finite and positive.
    InvalidSensitivity(f64),
    /// A domain bound pair was not ordered `lo < hi` or not finite.
    InvalidDomain { lo: f64, hi: f64 },
    /// A label did not match any known name for the expected kind of item
    /// (mechanism kinds, session kinds, pipeline specs).
    UnknownLabel {
        /// What was being parsed, including the valid options.
        expected: &'static str,
        /// The unrecognized input.
        got: String,
    },
}

impl fmt::Display for MechanismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidEpsilon(e) => {
                write!(f, "privacy budget must be finite and > 0, got {e}")
            }
            Self::InvalidWindow(w) => {
                write!(f, "window size w must be at least 1 slot, got w = {w}")
            }
            Self::InvalidSensitivity(s) => {
                write!(f, "sensitivity must be finite and > 0, got {s}")
            }
            Self::InvalidDomain { lo, hi } => {
                write!(
                    f,
                    "domain bounds must satisfy lo < hi and be finite, got [{lo}, {hi}]"
                )
            }
            Self::UnknownLabel { expected, got } => {
                write!(f, "unknown {expected} label {got:?}")
            }
        }
    }
}

impl std::error::Error for MechanismError {}

/// Validates a privacy budget value.
pub(crate) fn check_epsilon(epsilon: f64) -> Result<(), MechanismError> {
    if epsilon.is_finite() && epsilon > 0.0 {
        Ok(())
    } else {
        Err(MechanismError::InvalidEpsilon(epsilon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_nonpositive_epsilon() {
        assert!(check_epsilon(0.0).is_err());
        assert!(check_epsilon(-1.0).is_err());
        assert!(check_epsilon(f64::NAN).is_err());
        assert!(check_epsilon(f64::INFINITY).is_err());
    }

    #[test]
    fn accepts_positive_epsilon() {
        assert!(check_epsilon(0.01).is_ok());
        assert!(check_epsilon(5.0).is_ok());
    }

    #[test]
    fn display_formats() {
        let e = MechanismError::InvalidEpsilon(-2.0);
        assert!(e.to_string().contains("-2"));
        let d = MechanismError::InvalidDomain { lo: 1.0, hi: 0.0 };
        assert!(d.to_string().contains("[1, 0]"));
    }
}
