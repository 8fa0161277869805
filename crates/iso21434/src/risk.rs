//! Risk-value determination (ISO/SAE-21434 Clause 15.8).
//!
//! The risk value of a threat scenario combines the impact of the associated damage
//! scenario with the attack feasibility of the most feasible attack path.  The
//! standard leaves the exact combination open but provides an informative risk
//! matrix; this module implements the common 4×4 matrix producing risk values from
//! 1 (minimal) to 5 (critical).

use crate::feasibility::AttackFeasibilityRating;
use crate::impact::ImpactRating;
use serde::Serialize;
use std::fmt;

/// A risk value from 1 (minimal) to 5 (critical).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize)]
pub struct RiskValue(u8);

impl RiskValue {
    /// The minimum risk value defined by the standard's informative matrix.
    pub const MIN: RiskValue = RiskValue(1);
    /// The maximum risk value defined by the standard's informative matrix.
    pub const MAX: RiskValue = RiskValue(5);

    /// Creates a risk value, clamping into the 1..=5 range.
    #[must_use]
    pub fn new(value: u8) -> Self {
        Self(value.clamp(1, 5))
    }

    /// The numeric value.
    #[must_use]
    pub fn get(self) -> u8 {
        self.0
    }

    /// Whether the risk is generally considered unacceptable without treatment
    /// (value 4 or 5).
    #[must_use]
    pub fn requires_treatment(self) -> bool {
        self.0 >= 4
    }
}

impl fmt::Display for RiskValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The informative risk matrix combining impact and feasibility.
#[derive(Debug, Clone, Copy, Default)]
pub struct RiskMatrix;

impl RiskMatrix {
    /// Creates the standard matrix.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Determines the risk value for an impact / feasibility pair.
    ///
    /// The matrix follows the common informative layout: risk grows with both
    /// coordinates, a severe impact with high feasibility is critical (5) and a
    /// negligible impact never exceeds the minimal risk (1).
    #[must_use]
    pub fn risk(self, impact: ImpactRating, feasibility: AttackFeasibilityRating) -> RiskValue {
        if impact == ImpactRating::Negligible {
            return RiskValue::new(1);
        }
        // impact value 2..=4, feasibility value 1..=4.
        let i = i16::from(impact.value());
        let f = i16::from(feasibility.value());
        // Sum ranges from 3 (moderate, very low) to 8 (severe, high); map 3..=8
        // onto 1..=5 with the top two cells saturating at 5.
        let value = (i + f - 3).clamp(1, 5) as u8;
        RiskValue::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::tests::FEASIBILITIES;

    #[test]
    fn risk_value_clamps() {
        assert_eq!(RiskValue::new(0).get(), 1);
        assert_eq!(RiskValue::new(9).get(), 5);
        assert_eq!(RiskValue::new(3).get(), 3);
    }

    #[test]
    fn negligible_impact_is_always_minimal_risk() {
        let m = RiskMatrix::new();
        for feas in FEASIBILITIES {
            assert_eq!(m.risk(ImpactRating::Negligible, feas), RiskValue::new(1));
        }
    }

    #[test]
    fn severe_high_is_critical() {
        let m = RiskMatrix::new();
        assert_eq!(
            m.risk(ImpactRating::Severe, AttackFeasibilityRating::High),
            RiskValue::new(5)
        );
    }

    #[test]
    fn severe_very_low_is_moderate_risk() {
        let m = RiskMatrix::new();
        assert_eq!(
            m.risk(ImpactRating::Severe, AttackFeasibilityRating::VeryLow),
            RiskValue::new(2)
        );
    }

    #[test]
    fn risk_is_monotone_in_feasibility() {
        let m = RiskMatrix::new();
        for impact in ImpactRating::ALL {
            let mut prev = RiskValue::new(1);
            for feas in FEASIBILITIES {
                let r = m.risk(impact, feas);
                assert!(r >= prev, "risk must not decrease with feasibility");
                prev = r;
            }
        }
    }

    #[test]
    fn risk_is_monotone_in_impact() {
        let m = RiskMatrix::new();
        for feas in FEASIBILITIES {
            let mut prev = RiskValue::new(1);
            for impact in ImpactRating::ALL {
                let r = m.risk(impact, feas);
                assert!(r >= prev, "risk must not decrease with impact");
                prev = r;
            }
        }
    }

    #[test]
    fn treatment_threshold() {
        assert!(!RiskValue::new(3).requires_treatment());
        assert!(RiskValue::new(4).requires_treatment());
        assert!(RiskValue::new(5).requires_treatment());
    }

    #[test]
    fn display_is_numeric() {
        assert_eq!(RiskValue::new(4).to_string(), "4");
    }
}
