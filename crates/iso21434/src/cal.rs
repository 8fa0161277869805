//! Cybersecurity Assurance Level (CAL) determination (paper Figure 6, Annex E).
//!
//! ISO/SAE-21434 defines four assurance levels, CAL1 (lowest) to CAL4 (highest),
//! determined from the impact of the associated damage scenario and the attack
//! vector of the threat scenario.  The key property the paper points out: the
//! physical-vector column never exceeds CAL2, so a safety-critical powertrain
//! function attacked physically (the realistic insider case) receives only a
//! medium-low assurance emphasis.

use crate::impact::ImpactRating;
use serde::Serialize;
use std::fmt;
use vehicle::attack_surface::AttackVector;

/// A Cybersecurity Assurance Level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Cal {
    /// CAL1 — lowest assurance rigour.
    Cal1,
    /// CAL2.
    Cal2,
    /// CAL3.
    Cal3,
    /// CAL4 — highest assurance rigour.
    Cal4,
}

impl Cal {
    /// The numeric level (1–4).
    #[must_use]
    pub fn level(self) -> u8 {
        match self {
            Cal::Cal1 => 1,
            Cal::Cal2 => 2,
            Cal::Cal3 => 3,
            Cal::Cal4 => 4,
        }
    }
}

impl fmt::Display for Cal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CAL{}", self.level())
    }
}

/// The CAL determination matrix of Annex E (paper Figure 6).
#[derive(Debug, Clone, Copy, Default)]
pub struct CalMatrix;

impl CalMatrix {
    /// Creates the standard matrix.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Determines the CAL for an impact / attack-vector pair.  Returns `None` for
    /// negligible impact (no cybersecurity goal, hence no CAL, is assigned).
    #[must_use]
    pub fn cal(self, impact: ImpactRating, vector: AttackVector) -> Option<Cal> {
        use AttackVector::{Adjacent, Local, Network, Physical};
        use ImpactRating::{Major, Moderate, Negligible, Severe};
        let cal = match (impact, vector) {
            (Negligible, _) => return None,
            (Moderate, Physical | Local) => Cal::Cal1,
            (Moderate, Adjacent | Network) => Cal::Cal2,
            (Major, Physical) => Cal::Cal1,
            (Major, Local) => Cal::Cal2,
            (Major, Adjacent | Network) => Cal::Cal3,
            (Severe, Physical) => Cal::Cal2,
            (Severe, Local) => Cal::Cal3,
            (Severe, Adjacent | Network) => Cal::Cal4,
        };
        Some(cal)
    }

    /// The maximum CAL reachable through a given attack vector — the paper's point
    /// is that this is CAL2 for the physical vector.
    #[must_use]
    pub fn max_cal_for_vector(self, vector: AttackVector) -> Cal {
        ImpactRating::ALL
            .iter()
            .filter_map(|impact| self.cal(*impact, vector))
            .max()
            .unwrap_or(Cal::Cal1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negligible_impact_has_no_cal() {
        let m = CalMatrix::new();
        for v in AttackVector::ALL {
            assert_eq!(m.cal(ImpactRating::Negligible, v), None);
        }
    }

    #[test]
    fn severe_network_is_cal4() {
        assert_eq!(
            CalMatrix::new().cal(ImpactRating::Severe, AttackVector::Network),
            Some(Cal::Cal4)
        );
    }

    #[test]
    fn physical_never_exceeds_cal2() {
        // The limitation the paper calls out for powertrain DoS attacks.
        let m = CalMatrix::new();
        assert_eq!(m.max_cal_for_vector(AttackVector::Physical), Cal::Cal2);
        for impact in ImpactRating::ALL {
            if let Some(cal) = m.cal(impact, AttackVector::Physical) {
                assert!(cal <= Cal::Cal2, "{impact:?} physical gave {cal}");
            }
        }
    }

    #[test]
    fn cal_grows_with_impact_for_fixed_vector() {
        let m = CalMatrix::new();
        for vector in AttackVector::ALL {
            let mut prev = Cal::Cal1;
            for impact in [
                ImpactRating::Moderate,
                ImpactRating::Major,
                ImpactRating::Severe,
            ] {
                let cal = m.cal(impact, vector).unwrap();
                assert!(cal >= prev, "{vector:?}: CAL must not decrease with impact");
                prev = cal;
            }
        }
    }

    #[test]
    fn cal_grows_with_vector_remoteness_for_fixed_impact() {
        let m = CalMatrix::new();
        for impact in [
            ImpactRating::Moderate,
            ImpactRating::Major,
            ImpactRating::Severe,
        ] {
            let mut prev = Cal::Cal1;
            // Physical -> Local -> Adjacent -> Network is increasing remoteness.
            for vector in [
                AttackVector::Physical,
                AttackVector::Local,
                AttackVector::Adjacent,
                AttackVector::Network,
            ] {
                let cal = m.cal(impact, vector).unwrap();
                assert!(cal >= prev);
                prev = cal;
            }
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(Cal::Cal3.to_string(), "CAL3");
    }
}
