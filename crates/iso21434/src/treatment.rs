//! Risk treatment decisions and cybersecurity goals (ISO/SAE-21434 Clause 15.9 / 9.4).
//!
//! Once a risk value is determined, the organisation decides how to treat it:
//! avoid, reduce, share or retain.  Reducing a risk produces one or more
//! cybersecurity goals, which later become cybersecurity requirements.

use crate::risk::RiskValue;
use serde::Serialize;
use std::fmt;

/// The four risk-treatment options of Clause 15.9.
#[derive(Debug, Clone, Copy, Serialize)]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_escalates_with_risk() {
        let policy: Vec<_> = (1..=5)
            .map(|risk| RiskTreatment::default_for(RiskValue::new(risk)).to_string())
            .collect();
        assert_eq!(policy, ["Retain", "Share", "Reduce", "Reduce", "Avoid"]);
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
}
