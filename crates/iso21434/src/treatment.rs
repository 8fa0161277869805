//! Risk treatment decisions and cybersecurity goals (ISO/SAE-21434 Clause 15.9 / 9.4).
//!
//! Once a risk value is determined, the organisation decides how to treat it:
//! avoid, reduce, share or retain.  Reducing a risk produces one or more
//! cybersecurity goals, which later become cybersecurity requirements.

use crate::risk::RiskValue;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The four risk-treatment options of Clause 15.9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RiskTreatment {
    /// Remove the risk source (e.g. drop the feature or interface).
    Avoid,
    /// Reduce the risk through cybersecurity goals and controls.
    Reduce,
    /// Share the risk contractually (suppliers, insurance).
    Share,
    /// Accept and retain the risk with a documented rationale.
    Retain,
}

impl RiskTreatment {
    /// The default treatment policy used by the TARA engine: retain minimal risks,
    /// share low risks, reduce medium and high risks, avoid critical ones when no
    /// reduction is planned.
    #[must_use]
    pub fn default_for(risk: RiskValue) -> Self {
        match risk.get() {
            1 => RiskTreatment::Retain,
            2 => RiskTreatment::Share,
            3 | 4 => RiskTreatment::Reduce,
            _ => RiskTreatment::Avoid,
        }
    }
}

impl fmt::Display for RiskTreatment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A cybersecurity goal derived from a reduced risk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CybersecurityGoal {
    statement: String,
    threat_title: String,
    risk: RiskValue,
}

impl CybersecurityGoal {
    /// Creates a goal for the named threat scenario.
    #[must_use]
    pub fn new(
        statement: impl Into<String>,
        threat_title: impl Into<String>,
        risk: RiskValue,
    ) -> Self {
        Self {
            statement: statement.into(),
            threat_title: threat_title.into(),
            risk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_escalates_with_risk() {
        assert_eq!(
            RiskTreatment::default_for(RiskValue::new(1)),
            RiskTreatment::Retain
        );
        assert_eq!(
            RiskTreatment::default_for(RiskValue::new(2)),
            RiskTreatment::Share
        );
        assert_eq!(
            RiskTreatment::default_for(RiskValue::new(3)),
            RiskTreatment::Reduce
        );
        assert_eq!(
            RiskTreatment::default_for(RiskValue::new(4)),
            RiskTreatment::Reduce
        );
        assert_eq!(
            RiskTreatment::default_for(RiskValue::new(5)),
            RiskTreatment::Avoid
        );
    }

    #[test]
    fn goal_accessors() {
        let g = CybersecurityGoal::new(
            "The ECM shall only accept authenticated firmware",
            "ECM reprogramming",
            RiskValue::new(4),
        );
        assert_eq!(g.threat_title, "ECM reprogramming");
        assert_eq!(g.risk.get(), 4);
    }

    #[test]
    fn all_treatments_distinct() {
        let set: std::collections::HashSet<_> = [
            RiskTreatment::Avoid,
            RiskTreatment::Reduce,
            RiskTreatment::Share,
            RiskTreatment::Retain,
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn serde_round_trip() {
        let g = CybersecurityGoal::new("s", "t", RiskValue::new(3));
        let json = serde_json::to_string(&g).unwrap();
        assert_eq!(g, serde_json::from_str(&json).unwrap());
    }
}
