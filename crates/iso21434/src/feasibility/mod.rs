//! Attack-feasibility models (ISO/SAE-21434 Clause 15.7 and Annex G).
//!
//! The standard defines three alternative approaches to rate how feasible an attack
//! path is.  Two are modelled here:
//!
//! * the **attack-potential-based** approach ([`attack_potential`]) derived from
//!   ISO/IEC 18045, summing elapsed time, expertise, knowledge, window of
//!   opportunity and equipment scores (paper Figure 3);
//! * the **attack-vector-based** approach ([`attack_vector`]) that maps the access
//!   required (network / adjacent / local / physical) straight to a rating
//!   (paper Figure 5 and table G.9).
//!
//! Both produce an [`AttackFeasibilityRating`].  The attack-vector approach is
//! the one the PSP framework re-weights, so its table type accepts arbitrary
//! vector → rating mappings.  The third, CVSS-based approach is not modelled:
//! the paper's method does not use it.

pub mod attack_potential;
pub mod attack_vector;

use serde::{Deserialize, Serialize};
use std::fmt;

/// The attack-feasibility rating scale shared by both models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AttackFeasibilityRating {
    /// The attack is practically out of reach.
    VeryLow,
    /// The attack requires substantial effort or access.
    Low,
    /// The attack is plausible with moderate effort.
    Medium,
    /// The attack is easy for the relevant attacker population.
    High,
}

impl AttackFeasibilityRating {
    /// Numeric feasibility value used by the risk matrix (1 = very low … 4 = high).
    #[must_use]
    pub fn value(self) -> u8 {
        match self {
            AttackFeasibilityRating::VeryLow => 1,
            AttackFeasibilityRating::Low => 2,
            AttackFeasibilityRating::Medium => 3,
            AttackFeasibilityRating::High => 4,
        }
    }

    /// Builds a rating from the numeric value, clamping out-of-range input.
    #[must_use]
    pub fn from_value(value: u8) -> Self {
        match value {
            0 | 1 => AttackFeasibilityRating::VeryLow,
            2 => AttackFeasibilityRating::Low,
            3 => AttackFeasibilityRating::Medium,
            _ => AttackFeasibilityRating::High,
        }
    }

    /// The label used in the standard's tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AttackFeasibilityRating::VeryLow => "Very Low",
            AttackFeasibilityRating::Low => "Low",
            AttackFeasibilityRating::Medium => "Medium",
            AttackFeasibilityRating::High => "High",
        }
    }
}

impl fmt::Display for AttackFeasibilityRating {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every rating, from lowest to highest feasibility.
    pub(crate) const FEASIBILITIES: [AttackFeasibilityRating; 4] = [
        AttackFeasibilityRating::VeryLow,
        AttackFeasibilityRating::Low,
        AttackFeasibilityRating::Medium,
        AttackFeasibilityRating::High,
    ];

    #[test]
    fn values_are_monotone_with_feasibility() {
        let values: Vec<_> = FEASIBILITIES.iter().map(|r| r.value()).collect();
        assert_eq!(values, vec![1, 2, 3, 4]);
    }

    #[test]
    fn from_value_round_trips_and_clamps() {
        for r in FEASIBILITIES {
            assert_eq!(AttackFeasibilityRating::from_value(r.value()), r);
        }
        assert_eq!(
            AttackFeasibilityRating::from_value(0),
            AttackFeasibilityRating::VeryLow
        );
        assert_eq!(
            AttackFeasibilityRating::from_value(99),
            AttackFeasibilityRating::High
        );
    }

    #[test]
    fn labels_match_standard_wording() {
        assert_eq!(AttackFeasibilityRating::VeryLow.to_string(), "Very Low");
        assert_eq!(AttackFeasibilityRating::High.to_string(), "High");
    }

    #[test]
    fn ordering_puts_high_last() {
        assert!(AttackFeasibilityRating::VeryLow < AttackFeasibilityRating::High);
        assert_eq!(
            FEASIBILITIES.iter().max(),
            Some(&AttackFeasibilityRating::High)
        );
    }
}
