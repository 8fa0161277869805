//! Plugging PSP-tuned tables back into the ISO/SAE-21434 TARA engine.
//!
//! This is where the two halves of the workspace meet: a TARA built with the
//! `iso21434` crate is evaluated twice — once with the standard attack-vector table
//! (the static model the paper criticises) and once with the PSP insider table for
//! the relevant threat scenario — and the differences are reported per threat.

use crate::engine::LiveEngine;
use crate::workflow::{PspOutcome, PspWorkflow};
use iso21434::feasibility::attack_vector::AttackVectorModel;
use iso21434::feasibility::AttackFeasibilityRating;
use iso21434::risk::RiskValue;
use iso21434::tara::{Tara, TaraReport};
use iso21434::Iso21434Error;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The per-threat difference between the static and the dynamic evaluation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreatDelta {
    /// The threat scenario title.
    pub threat_title: String,
    /// Feasibility under the standard G.9 table.
    pub static_feasibility: AttackFeasibilityRating,
    /// Feasibility under the PSP-tuned table.
    pub dynamic_feasibility: AttackFeasibilityRating,
    /// Risk value under the standard table.
    pub static_risk: RiskValue,
    /// Risk value under the PSP-tuned table.
    pub dynamic_risk: RiskValue,
}

impl ThreatDelta {
    /// Whether the dynamic model changed the risk value at all.
    #[must_use]
    pub fn risk_changed(&self) -> bool {
        self.static_risk != self.dynamic_risk
    }

    /// Whether the dynamic model raised the risk (the typical direction for the
    /// under-rated insider threats the paper worries about).
    #[must_use]
    pub fn risk_raised(&self) -> bool {
        self.dynamic_risk > self.static_risk
    }
}

/// The result of a static-vs-dynamic comparison.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DynamicTaraComparison {
    /// The report produced with the standard table.
    pub static_report: TaraReport,
    /// The report produced with the PSP-tuned table.
    pub dynamic_report: TaraReport,
    /// Per-threat deltas, keyed by threat title.
    pub deltas: BTreeMap<String, ThreatDelta>,
}

impl DynamicTaraComparison {
    /// Evaluates a TARA statically and dynamically.
    ///
    /// `scenario` names the PSP insider scenario whose tuned table should drive the
    /// dynamic evaluation (threats outside that scenario still see the tuned table,
    /// which mirrors how an analyst would apply the re-tuned G.9 annex to the item
    /// under analysis).
    ///
    /// # Errors
    ///
    /// Forwards [`Iso21434Error`] from the TARA engine (unknown assets, missing
    /// attack paths).
    pub fn evaluate(
        tara: &Tara,
        outcome: &PspOutcome,
        scenario: &str,
    ) -> Result<Self, Iso21434Error> {
        let static_model = AttackVectorModel::standard();
        let dynamic_table = outcome
            .insider_table(scenario)
            .cloned()
            .unwrap_or_else(iso21434::feasibility::attack_vector::AttackVectorTable::standard);
        let dynamic_model = AttackVectorModel::with_table(dynamic_table);

        let static_report = tara.evaluate(&static_model)?;
        let dynamic_report = tara.evaluate(&dynamic_model)?;

        let mut deltas = BTreeMap::new();
        for assessment in static_report.assessments() {
            if let Some(dynamic) = dynamic_report.assessment_of(&assessment.threat_title) {
                deltas.insert(
                    assessment.threat_title.clone(),
                    ThreatDelta {
                        threat_title: assessment.threat_title.clone(),
                        static_feasibility: assessment.feasibility,
                        dynamic_feasibility: dynamic.feasibility,
                        static_risk: assessment.risk,
                        dynamic_risk: dynamic.risk,
                    },
                );
            }
        }

        Ok(Self {
            static_report,
            dynamic_report,
            deltas,
        })
    }

    /// Runs the PSP workflow against a prebuilt [`LiveEngine`] and evaluates
    /// the TARA with the freshly tuned tables — the continuous-re-evaluation
    /// entry point: the corpus is indexed once in the engine and each
    /// re-evaluation only pays for the indexed scoring pass.
    ///
    /// # Errors
    ///
    /// Forwards [`Iso21434Error`] from the TARA engine.
    pub fn evaluate_with_engine(
        tara: &Tara,
        engine: &LiveEngine,
        workflow: &PspWorkflow,
        scenario: &str,
    ) -> Result<Self, Iso21434Error> {
        let outcome = workflow.run_with_engine(engine);
        Self::evaluate(tara, &outcome, scenario)
    }

    /// The delta for one threat.
    #[must_use]
    pub fn delta(&self, threat_title: &str) -> Option<&ThreatDelta> {
        self.deltas.get(threat_title)
    }

    /// Number of threats whose risk value changed.
    #[must_use]
    pub fn changed_count(&self) -> usize {
        self.deltas.values().filter(|d| d.risk_changed()).count()
    }

    /// Number of threats whose risk value increased under the dynamic model.
    #[must_use]
    pub fn raised_count(&self) -> usize {
        self.deltas.values().filter(|d| d.risk_raised()).count()
    }
}

/// Builds the ECM reprogramming / powertrain DoS TARA used by the paper's running
/// example, the examples and the benches.  The item is the engine control module of
/// the given vehicle (only the name is used; the architecture itself comes from the
/// `vehicle` reference models).
#[must_use]
pub fn ecm_reference_tara(item_name: &str) -> Tara {
    use iso21434::asset::{Asset, AssetCategory, CybersecurityProperty};
    use iso21434::attack_path::AttackPath;
    use iso21434::impact::{DamageScenario, ImpactCategory, ImpactRating};
    use iso21434::tara::TaraEntry;
    use iso21434::threat::{AttackerProfile, StrideCategory, ThreatScenario};
    use vehicle::attack_surface::AttackVector;

    let firmware = Asset::new("ECM firmware", AssetCategory::Firmware)
        .hosted_on("ECM")
        .with_property(CybersecurityProperty::Integrity)
        .with_property(CybersecurityProperty::Authenticity);
    let calibration = Asset::new("ECM calibration", AssetCategory::Calibration)
        .hosted_on("ECM")
        .with_property(CybersecurityProperty::Integrity);
    let torque = Asset::new("Torque control function", AssetCategory::Function)
        .hosted_on("ECM")
        .with_property(CybersecurityProperty::Availability);

    let reprogramming = TaraEntry::new(
        ThreatScenario::new(
            "ECM reprogramming",
            "ECM firmware",
            StrideCategory::Tampering,
        )
        .by(AttackerProfile::Rational)
        .via(AttackVector::Physical)
        .with_keyword("chiptuning")
        .with_keyword("benchflash"),
        DamageScenario::new("Emission limits exceeded, warranty and type-approval fraud")
            .rate(ImpactCategory::Financial, ImpactRating::Major)
            .rate(ImpactCategory::Operational, ImpactRating::Moderate),
    )
    .with_path(
        AttackPath::new("bench flash")
            .step("remove the ECM from the vehicle", AttackVector::Physical)
            .step(
                "open the case and flash via boot mode",
                AttackVector::Physical,
            ),
    )
    .with_path(
        AttackPath::new("OBD reflash")
            .step(
                "connect a pass-thru tool to the OBD port",
                AttackVector::Local,
            )
            .step("unlock the programming session", AttackVector::Local)
            .step("flash the modified calibration", AttackVector::Local),
    );

    let calibration_tamper = TaraEntry::new(
        ThreatScenario::new(
            "Calibration parameter tampering",
            "ECM calibration",
            StrideCategory::Tampering,
        )
        .by(AttackerProfile::Insider)
        .via(AttackVector::Local)
        .with_keyword("chiptuning"),
        DamageScenario::new("Torque and emission maps outside homologated range")
            .rate(ImpactCategory::Financial, ImpactRating::Major)
            .rate(ImpactCategory::Safety, ImpactRating::Moderate),
    )
    .with_path(
        AttackPath::new("OBD calibration write")
            .step("write calibration blocks over OBD", AttackVector::Local),
    );

    let dos = TaraEntry::new(
        ThreatScenario::new(
            "Powertrain CAN denial of service",
            "Torque control function",
            StrideCategory::DenialOfService,
        )
        .by(AttackerProfile::Outsider)
        .via(AttackVector::Physical),
        DamageScenario::new("Loss of propulsion while driving")
            .rate(ImpactCategory::Safety, ImpactRating::Severe)
            .rate(ImpactCategory::Operational, ImpactRating::Major),
    )
    .with_path(
        AttackPath::new("bus flood via spliced harness")
            .step(
                "splice into the powertrain CAN harness",
                AttackVector::Physical,
            )
            .step(
                "flood the bus with highest-priority frames",
                AttackVector::Physical,
            ),
    );

    Tara::new(item_name)
        .asset(firmware)
        .asset(calibration)
        .asset(torque)
        .entry(reprogramming)
        .entry(calibration_tamper)
        .entry(dos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PspConfig;
    use crate::keyword_db::KeywordDatabase;
    use crate::workflow::PspWorkflow;
    use socialsim::scenario;

    fn outcome() -> PspOutcome {
        PspWorkflow::new(
            PspConfig::passenger_car_europe(),
            KeywordDatabase::passenger_car_seed(),
        )
        .run(&scenario::passenger_car_europe(42))
    }

    #[test]
    fn dynamic_model_raises_the_reprogramming_risk() {
        let comparison = DynamicTaraComparison::evaluate(
            &ecm_reference_tara("ECM"),
            &outcome(),
            "ecm-reprogramming",
        )
        .unwrap();
        let delta = comparison.delta("ECM reprogramming").unwrap();
        assert!(
            delta.risk_raised(),
            "insider tuning must raise the risk: {delta:?}"
        );
        assert!(delta.dynamic_feasibility > delta.static_feasibility);
        assert!(comparison.raised_count() >= 1);
    }

    #[test]
    fn comparison_covers_every_threat() {
        let comparison = DynamicTaraComparison::evaluate(
            &ecm_reference_tara("ECM"),
            &outcome(),
            "ecm-reprogramming",
        )
        .unwrap();
        assert_eq!(comparison.deltas.len(), 3);
        assert_eq!(
            comparison.static_report.assessments().len(),
            comparison.dynamic_report.assessments().len()
        );
    }

    #[test]
    fn missing_scenario_falls_back_to_standard_table() {
        let comparison = DynamicTaraComparison::evaluate(
            &ecm_reference_tara("ECM"),
            &outcome(),
            "no-such-scenario",
        )
        .unwrap();
        assert_eq!(comparison.changed_count(), 0);
    }

    #[test]
    fn reference_tara_is_well_formed() {
        let tara = ecm_reference_tara("ECM");
        assert_eq!(tara.assets().len(), 3);
        assert_eq!(tara.entries().len(), 3);
        let report = tara
            .evaluate(&AttackVectorModel::standard())
            .expect("reference TARA evaluates");
        assert_eq!(report.assessments().len(), 3);
    }
}
