//! Normative and informative tables of ISO/SAE-21434 as typed constants.
//!
//! These are the "fixed weights defined in Clause 15" that paper Figure 3 shows and
//! that the PSP framework sets out to re-tune.  Keeping them in one module makes the
//! bench harness able to print them verbatim (experiments E3, E5 and E6) and makes
//! the provenance of every number auditable.

use crate::feasibility::attack_potential::{
    ElapsedTime, Equipment, Expertise, Knowledge, WindowOfOpportunity,
};
use crate::feasibility::AttackFeasibilityRating;

/// One row of the attack-potential parameter table (paper Figure 3).
#[derive(Debug, Clone, Copy)]
pub struct PotentialRow {
    /// The parameter group (e.g. "Elapsed time").
    pub parameter: &'static str,
    /// The level label (e.g. "<= 1 week").
    pub level: &'static str,
    /// The numeric attack-potential value.
    pub value: u32,
}

/// The full attack-potential weight table as printed in paper Figure 3.
#[must_use]
pub fn attack_potential_rows() -> Vec<PotentialRow> {
    let mut rows = Vec::new();
    let et = [
        ("<= 1 day", ElapsedTime::OneDay),
        ("<= 1 week", ElapsedTime::OneWeek),
        ("<= 1 month", ElapsedTime::OneMonth),
        ("<= 6 months", ElapsedTime::SixMonths),
        ("> 6 months", ElapsedTime::BeyondSixMonths),
    ];
    for (label, v) in et {
        rows.push(PotentialRow {
            parameter: "Elapsed time",
            level: label,
            value: v.value(),
        });
    }
    let ex = [
        ("Layman", Expertise::Layman),
        ("Proficient", Expertise::Proficient),
        ("Expert", Expertise::Expert),
        ("Multiple experts", Expertise::MultipleExperts),
    ];
    for (label, v) in ex {
        rows.push(PotentialRow {
            parameter: "Specialist expertise",
            level: label,
            value: v.value(),
        });
    }
    let kn = [
        ("Public information", Knowledge::Public),
        ("Restricted information", Knowledge::Restricted),
        ("Confidential information", Knowledge::Confidential),
        (
            "Strictly confidential information",
            Knowledge::StrictlyConfidential,
        ),
    ];
    for (label, v) in kn {
        rows.push(PotentialRow {
            parameter: "Knowledge of the item",
            level: label,
            value: v.value(),
        });
    }
    let wo = [
        ("Unlimited", WindowOfOpportunity::Unlimited),
        ("Easy", WindowOfOpportunity::Easy),
        ("Moderate", WindowOfOpportunity::Moderate),
        ("Difficult", WindowOfOpportunity::Difficult),
    ];
    for (label, v) in wo {
        rows.push(PotentialRow {
            parameter: "Window of opportunity",
            level: label,
            value: v.value(),
        });
    }
    let eq = [
        ("Standard", Equipment::Standard),
        ("Specialized", Equipment::Specialized),
        ("Bespoke", Equipment::Bespoke),
        ("Multiple bespoke", Equipment::MultipleBespoke),
    ];
    for (label, v) in eq {
        rows.push(PotentialRow {
            parameter: "Equipment",
            level: label,
            value: v.value(),
        });
    }
    rows
}

/// The mapping from summed attack-potential values to feasibility ratings
/// (Annex G.2).
pub const ATTACK_POTENTIAL_BANDS: [(u32, u32, AttackFeasibilityRating); 4] = [
    (0, 13, AttackFeasibilityRating::High),
    (14, 19, AttackFeasibilityRating::Medium),
    (20, 24, AttackFeasibilityRating::Low),
    (25, u32::MAX, AttackFeasibilityRating::VeryLow),
];

/// Looks up the feasibility band for a summed attack-potential value.
#[must_use]
pub fn feasibility_for_potential(total: u32) -> AttackFeasibilityRating {
    for (lo, hi, rating) in ATTACK_POTENTIAL_BANDS {
        if total >= lo && total <= hi {
            return rating;
        }
    }
    AttackFeasibilityRating::VeryLow
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::attack_potential::AttackPotential;

    #[test]
    fn figure_3_has_21_rows() {
        // 5 elapsed-time + 4 expertise + 4 knowledge + 4 window + 4 equipment.
        assert_eq!(attack_potential_rows().len(), 21);
    }

    #[test]
    fn rows_cover_five_parameter_groups() {
        let groups: std::collections::BTreeSet<_> = attack_potential_rows()
            .iter()
            .map(|r| r.parameter)
            .collect();
        assert_eq!(groups.len(), 5);
    }

    #[test]
    fn rows_are_monotone_within_each_group() {
        let rows = attack_potential_rows();
        let mut prev: Option<(&str, u32)> = None;
        for row in &rows {
            if let Some((param, value)) = prev {
                if param == row.parameter {
                    assert!(row.value >= value, "{} not monotone", row.parameter);
                }
            }
            prev = Some((row.parameter, row.value));
        }
    }

    #[test]
    fn bands_are_contiguous_and_exhaustive() {
        for total in 0..60 {
            let _ = feasibility_for_potential(total);
        }
        assert_eq!(feasibility_for_potential(0), AttackFeasibilityRating::High);
        assert_eq!(feasibility_for_potential(13), AttackFeasibilityRating::High);
        assert_eq!(
            feasibility_for_potential(14),
            AttackFeasibilityRating::Medium
        );
        assert_eq!(
            feasibility_for_potential(19),
            AttackFeasibilityRating::Medium
        );
        assert_eq!(feasibility_for_potential(20), AttackFeasibilityRating::Low);
        assert_eq!(feasibility_for_potential(24), AttackFeasibilityRating::Low);
        assert_eq!(
            feasibility_for_potential(25),
            AttackFeasibilityRating::VeryLow
        );
    }

    #[test]
    fn bands_agree_with_attack_potential_rating() {
        use crate::feasibility::attack_potential::{
            ElapsedTime, Equipment, Expertise, Knowledge, WindowOfOpportunity,
        };
        for et in ElapsedTime::ALL {
            for ex in Expertise::ALL {
                let ap = AttackPotential::new(
                    et,
                    ex,
                    Knowledge::Public,
                    WindowOfOpportunity::Unlimited,
                    Equipment::Standard,
                );
                assert_eq!(ap.rating(), feasibility_for_potential(ap.total()));
            }
        }
    }
}
