//! Threat scenarios, STRIDE categories and attacker profiles
//! (ISO/SAE-21434 Clause 15.4).
//!
//! A threat scenario ties an asset and one of its cybersecurity properties to a
//! potential cause of compromise.  The paper additionally leans on an attacker
//! profile taxonomy (Insider, Outsider, Rational, Malicious, …) because the PSP
//! framework only re-tunes the feasibility weights for *insider* threats — attacks
//! the vehicle owner is aware of and approves.

use crate::asset::CybersecurityProperty;
use serde::{Deserialize, Serialize};
use vehicle::attack_surface::AttackVector;

/// STRIDE threat categories used to enumerate threat scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StrideCategory {
    /// Pretending to be something or somebody else.
    Spoofing,
    /// Unauthorised modification of data or code.
    Tampering,
    /// Denying having performed an action.
    Repudiation,
    /// Exposure of information to unauthorised parties.
    InformationDisclosure,
    /// Denial of service.
    DenialOfService,
    /// Gaining capabilities without authorisation.
    ElevationOfPrivilege,
}

impl StrideCategory {
    /// The cybersecurity property a threat of this category primarily violates.
    #[must_use]
    pub fn violated_property(self) -> CybersecurityProperty {
        match self {
            StrideCategory::Spoofing => CybersecurityProperty::Authenticity,
            StrideCategory::Tampering => CybersecurityProperty::Integrity,
            StrideCategory::Repudiation => CybersecurityProperty::NonRepudiation,
            StrideCategory::InformationDisclosure => CybersecurityProperty::Confidentiality,
            StrideCategory::DenialOfService => CybersecurityProperty::Availability,
            StrideCategory::ElevationOfPrivilege => CybersecurityProperty::Authorization,
        }
    }
}

/// Attacker profiles, following the taxonomy the paper cites (Section II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AttackerProfile {
    /// Service or maintenance personnel, workshops — and, in the paper's reading,
    /// any attack the owner is aware of and approves.
    Insider,
    /// External attackers (black hats) acting without the owner's knowledge.
    Outsider,
    /// The vehicle owner acting in their own economic interest.
    Rational,
    /// Criminals seeking direct gain (theft, extortion).
    Malicious,
    /// Opportunistic thieves using standard tools.
    Active,
    /// Rivals or competitors gathering information.
    Passive,
    /// Attackers requiring presence at the vehicle.
    Local,
    /// Attackers operating remotely.
    Remote,
}

/// A threat scenario.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreatScenario {
    title: String,
    asset_name: String,
    violated_property: CybersecurityProperty,
    stride: StrideCategory,
    attacker: AttackerProfile,
    preferred_vector: AttackVector,
}

impl ThreatScenario {
    /// Creates a threat scenario for the named asset.
    ///
    /// The violated property is the one implied by the STRIDE category.
    ///
    /// # Examples
    ///
    /// ```
    /// use iso21434::{CybersecurityProperty, ThreatScenario, StrideCategory, AttackerProfile};
    /// use vehicle::attack_surface::AttackVector;
    ///
    /// let ts = ThreatScenario::new("ECM reprogramming", "ECM firmware", StrideCategory::Tampering)
    ///     .by(AttackerProfile::Rational)
    ///     .via(AttackVector::Physical);
    /// assert_eq!(ts.violated_property(), CybersecurityProperty::Integrity);
    /// ```
    #[must_use]
    pub fn new(
        title: impl Into<String>,
        asset_name: impl Into<String>,
        stride: StrideCategory,
    ) -> Self {
        Self {
            title: title.into(),
            asset_name: asset_name.into(),
            violated_property: stride.violated_property(),
            stride,
            attacker: AttackerProfile::Outsider,
            preferred_vector: AttackVector::Network,
        }
    }

    /// Sets the attacker profile.
    #[must_use]
    pub fn by(mut self, attacker: AttackerProfile) -> Self {
        self.attacker = attacker;
        self
    }

    /// Sets the attack vector the scenario is expected to use.
    #[must_use]
    pub fn via(mut self, vector: AttackVector) -> Self {
        self.preferred_vector = vector;
        self
    }

    /// The scenario title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The name of the asset under threat.
    #[must_use]
    pub fn asset_name(&self) -> &str {
        &self.asset_name
    }

    /// The violated cybersecurity property.
    #[must_use]
    pub fn violated_property(&self) -> CybersecurityProperty {
        self.violated_property
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reprogramming() -> ThreatScenario {
        ThreatScenario::new(
            "ECM reprogramming",
            "ECM firmware",
            StrideCategory::Tampering,
        )
        .by(AttackerProfile::Rational)
        .via(AttackVector::Physical)
    }

    #[test]
    fn stride_implies_property() {
        assert_eq!(
            StrideCategory::Tampering.violated_property(),
            CybersecurityProperty::Integrity
        );
        assert_eq!(
            StrideCategory::DenialOfService.violated_property(),
            CybersecurityProperty::Availability
        );
        assert_eq!(
            StrideCategory::Spoofing.violated_property(),
            CybersecurityProperty::Authenticity
        );
    }

    #[test]
    fn scenario_defaults_follow_stride() {
        let ts = ThreatScenario::new("t", "a", StrideCategory::InformationDisclosure);
        assert_eq!(
            ts.violated_property(),
            CybersecurityProperty::Confidentiality
        );
        assert_eq!(ts.attacker, AttackerProfile::Outsider);
    }

    #[test]
    fn serde_round_trip() {
        let ts = reprogramming();
        let json = serde_json::to_string(&ts).unwrap();
        assert_eq!(ts, serde_json::from_str(&json).unwrap());
    }
}
