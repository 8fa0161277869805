//! The end-to-end TARA engine (ISO/SAE-21434 Clause 15).
//!
//! A [`Tara`] collects assets, damage scenarios, threat scenarios and attack paths,
//! then evaluates them against an [`AttackVectorModel`] to produce a
//! [`TaraReport`] with per-threat risk values, CALs and treatment decisions, and
//! the number of cybersecurity goals they call for.
//!
//! The engine is deliberately table-agnostic: running the same TARA against the
//! standard attack-vector table and against a PSP-tuned table is how the workspace
//! reproduces the before/after comparisons of paper Figure 9.

use crate::asset::Asset;
use crate::attack_path::AttackPath;
use crate::cal::{Cal, CalMatrix};
use crate::error::Iso21434Error;
use crate::feasibility::attack_vector::AttackVectorModel;
use crate::feasibility::AttackFeasibilityRating;
use crate::impact::{DamageScenario, ImpactRating};
use crate::risk::{RiskMatrix, RiskValue};
use crate::threat::ThreatScenario;
use crate::treatment::RiskTreatment;
use serde::Serialize;
use std::fmt;

/// One threat scenario bundled with its damage scenario and candidate attack paths.
#[derive(Debug)]
pub struct TaraEntry {
    threat: ThreatScenario,
    damage: DamageScenario,
    paths: Vec<AttackPath>,
}

impl TaraEntry {
    /// Creates an entry.
    #[must_use]
    pub fn new(threat: ThreatScenario, damage: DamageScenario) -> Self {
        Self {
            threat,
            damage,
            paths: Vec::new(),
        }
    }

    /// Adds a candidate attack path.
    #[must_use]
    pub fn with_path(mut self, path: AttackPath) -> Self {
        self.paths.push(path);
        self
    }

    /// The threat scenario.
    #[must_use]
    pub fn threat(&self) -> &ThreatScenario {
        &self.threat
    }

    /// The damage scenario.
    #[must_use]
    pub fn damage(&self) -> &DamageScenario {
        &self.damage
    }

    /// The candidate attack paths.
    #[must_use]
    pub fn paths(&self) -> &[AttackPath] {
        &self.paths
    }
}

/// The assessment of one TARA entry.
#[derive(Debug, Serialize)]
pub struct TaraAssessment {
    /// The threat scenario title.
    pub threat_title: String,
    /// The overall impact of the damage scenario.
    pub impact: ImpactRating,
    /// The feasibility of the most feasible attack path.
    pub feasibility: AttackFeasibilityRating,
    /// The name of the attack path that produced the rating.
    pub decisive_path: String,
    /// The resulting risk value.
    pub risk: RiskValue,
    /// The CAL assigned from impact and the decisive path's limiting vector.
    pub cal: Option<Cal>,
    /// The treatment decision under the default policy.
    pub treatment: RiskTreatment,
}

/// The full TARA report.
#[derive(Debug, Serialize)]
pub struct TaraReport {
    item_name: String,
    model_name: String,
    assessments: Vec<TaraAssessment>,
}

impl TaraReport {
    /// The feasibility model used.
    #[must_use]
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// Per-threat assessments in submission order.
    #[must_use]
    pub fn assessments(&self) -> &[TaraAssessment] {
        &self.assessments
    }

    /// The number of cybersecurity goals (Clause 9.4) the report calls for:
    /// one per threat whose risk is reduced or avoided.
    #[must_use]
    pub fn goal_count(&self) -> usize {
        self.assessments
            .iter()
            .filter(|a| matches!(a.treatment, RiskTreatment::Reduce | RiskTreatment::Avoid))
            .count()
    }

    /// The assessment of a named threat scenario.
    #[must_use]
    pub fn assessment_of(&self, threat_title: &str) -> Option<&TaraAssessment> {
        self.assessments
            .iter()
            .find(|a| a.threat_title == threat_title)
    }
}

impl fmt::Display for TaraReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TARA report for {} (model: {})",
            self.item_name, self.model_name
        )?;
        for a in &self.assessments {
            writeln!(
                f,
                "  {:<40} impact={:<10} feasibility={:<8} risk={} cal={} treatment={}",
                a.threat_title,
                a.impact.to_string(),
                a.feasibility.to_string(),
                a.risk,
                a.cal.map_or("-".to_string(), |c| c.to_string()),
                a.treatment
            )?;
        }
        Ok(())
    }
}

/// The TARA under construction.
#[derive(Debug)]
pub struct Tara {
    item_name: String,
    assets: Vec<Asset>,
    entries: Vec<TaraEntry>,
}

impl Tara {
    /// Starts a TARA for the named item (ECU or function).
    #[must_use]
    pub fn new(item_name: impl Into<String>) -> Self {
        Self {
            item_name: item_name.into(),
            assets: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Registers an asset.
    #[must_use]
    pub fn asset(mut self, asset: Asset) -> Self {
        self.assets.push(asset);
        self
    }

    /// Adds a TARA entry (threat + damage + attack paths).
    #[must_use]
    pub fn entry(mut self, entry: TaraEntry) -> Self {
        self.entries.push(entry);
        self
    }

    /// The registered assets.
    #[must_use]
    pub fn assets(&self) -> &[Asset] {
        &self.assets
    }

    /// The registered entries.
    #[must_use]
    pub fn entries(&self) -> &[TaraEntry] {
        &self.entries
    }

    /// Evaluates the TARA with the given feasibility model.
    ///
    /// # Errors
    ///
    /// Returns [`Iso21434Error::UnknownAsset`] if a threat scenario references an
    /// asset that was not registered, and [`Iso21434Error::MissingAttackPath`] if an
    /// entry has no attack path.
    pub fn evaluate(&self, model: &AttackVectorModel) -> Result<TaraReport, Iso21434Error> {
        let risk_matrix = RiskMatrix::new();
        let cal_matrix = CalMatrix::new();
        let mut assessments = Vec::with_capacity(self.entries.len());

        for entry in &self.entries {
            let threat = entry.threat();
            if !self.assets.iter().any(|a| a.name() == threat.asset_name()) {
                return Err(Iso21434Error::UnknownAsset {
                    name: threat.asset_name().to_string(),
                });
            }
            if entry.paths().is_empty() {
                return Err(Iso21434Error::MissingAttackPath {
                    threat: threat.title().to_string(),
                });
            }

            // The standard rates the threat by its most feasible attack path.
            let (decisive_path, feasibility) = entry
                .paths()
                .iter()
                .map(|p| (p, model.rate(p)))
                .max_by_key(|(_, rating)| *rating)
                .expect("entry has at least one path");

            let impact = entry.damage().overall();
            let risk = risk_matrix.risk(impact, feasibility);
            let vector = decisive_path
                .limiting_vector()
                .unwrap_or(vehicle::attack_surface::AttackVector::Physical);
            let cal = cal_matrix.cal(impact, vector);
            let treatment = RiskTreatment::default_for(risk);

            assessments.push(TaraAssessment {
                threat_title: threat.title().to_string(),
                impact,
                feasibility,
                decisive_path: decisive_path.name().to_string(),
                risk,
                cal,
                treatment,
            });
        }

        Ok(TaraReport {
            item_name: self.item_name.clone(),
            model_name: model.name().to_string(),
            assessments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asset::CybersecurityProperty;
    use crate::impact::ImpactCategory;
    use vehicle::attack_surface::AttackVector;

    fn ecm_tara() -> Tara {
        let firmware = Asset::new("ECM firmware")
            .hosted_on("ECM")
            .with_property(CybersecurityProperty::Integrity);
        let torque = Asset::new("Torque control")
            .hosted_on("ECM")
            .with_property(CybersecurityProperty::Availability);

        let reprogramming = TaraEntry::new(
            ThreatScenario::new("ECM reprogramming", "ECM firmware"),
            DamageScenario::new() // emission defeat / warranty fraud
                .rate(ImpactCategory::Financial, ImpactRating::Major)
                .rate(ImpactCategory::Operational, ImpactRating::Moderate),
        )
        .with_path(
            AttackPath::new("bench flash")
                .step(AttackVector::Physical) // remove ECM from vehicle
                .step(AttackVector::Physical), // flash modified calibration on the bench
        )
        .with_path(
            AttackPath::new("OBD reflash")
                .step(AttackVector::Local) // connect tool to OBD port
                .step(AttackVector::Local), // flash modified calibration
        );

        let dos = TaraEntry::new(
            ThreatScenario::new("CAN DoS on powertrain", "Torque control"),
            DamageScenario::new() // loss of propulsion while driving
                .rate(ImpactCategory::Safety, ImpactRating::Severe),
        )
        .with_path(
            AttackPath::new("bus flood")
                .step(AttackVector::Physical) // splice into the powertrain CAN harness
                .step(AttackVector::Physical), // flood bus with high-priority frames
        );

        Tara::new("ECM")
            .asset(firmware)
            .asset(torque)
            .entry(reprogramming)
            .entry(dos)
    }

    #[test]
    fn evaluate_with_standard_model_produces_report() {
        let report = ecm_tara().evaluate(&AttackVectorModel::standard()).unwrap();
        assert_eq!(report.assessments().len(), 2);
        assert_eq!(report.item_name, "ECM");
        assert!(report.model_name().contains("G.9"));
    }

    #[test]
    fn reprogramming_is_rated_by_its_most_feasible_path() {
        let report = ecm_tara().evaluate(&AttackVectorModel::standard()).unwrap();
        let a = report.assessment_of("ECM reprogramming").unwrap();
        // The OBD (Local -> Low) path beats the bench (Physical -> Very Low) path.
        assert_eq!(a.feasibility, AttackFeasibilityRating::Low);
        assert_eq!(a.decisive_path, "OBD reflash");
    }

    #[test]
    fn dos_gets_severe_impact_but_low_cal_via_physical_vector() {
        let report = ecm_tara().evaluate(&AttackVectorModel::standard()).unwrap();
        let a = report.assessment_of("CAN DoS on powertrain").unwrap();
        assert_eq!(a.impact, ImpactRating::Severe);
        // The paper's complaint: the physical vector caps the CAL at 2.
        assert_eq!(a.cal, Some(Cal::Cal2));
    }

    #[test]
    fn unknown_asset_is_rejected() {
        let tara = Tara::new("X").entry(TaraEntry::new(
            ThreatScenario::new("t", "missing asset"),
            DamageScenario::new(),
        ));
        let err = tara.evaluate(&AttackVectorModel::standard()).unwrap_err();
        assert!(matches!(err, Iso21434Error::UnknownAsset { .. }));
    }

    #[test]
    fn missing_attack_path_is_rejected() {
        let tara = Tara::new("X").asset(Asset::new("a")).entry(TaraEntry::new(
            ThreatScenario::new("t", "a"),
            DamageScenario::new(),
        ));
        let err = tara.evaluate(&AttackVectorModel::standard()).unwrap_err();
        assert!(matches!(err, Iso21434Error::MissingAttackPath { .. }));
    }

    #[test]
    fn goals_are_generated_for_reduced_risks() {
        let report = ecm_tara().evaluate(&AttackVectorModel::standard()).unwrap();
        let treated: Vec<_> = report
            .assessments()
            .iter()
            .filter(|a| matches!(a.treatment, RiskTreatment::Reduce | RiskTreatment::Avoid))
            .collect();
        assert_eq!(report.goal_count(), treated.len());
        assert!(treated.iter().all(|a| a.risk.get() >= 3));
    }

    #[test]
    fn a_tuned_table_changes_the_outcome() {
        use crate::feasibility::attack_vector::AttackVectorTable;
        use std::collections::BTreeMap;
        let mut ratings = BTreeMap::new();
        ratings.insert(AttackVector::Physical, AttackFeasibilityRating::High);
        ratings.insert(AttackVector::Local, AttackFeasibilityRating::High);
        ratings.insert(AttackVector::Adjacent, AttackFeasibilityRating::Low);
        ratings.insert(AttackVector::Network, AttackFeasibilityRating::VeryLow);
        let tuned = AttackVectorModel::with_table(
            AttackVectorTable::custom("PSP insider", ratings).unwrap(),
        );

        let static_report = ecm_tara().evaluate(&AttackVectorModel::standard()).unwrap();
        let tuned_report = ecm_tara().evaluate(&tuned).unwrap();

        let before = static_report
            .assessment_of("ECM reprogramming")
            .unwrap()
            .risk;
        let after = tuned_report
            .assessment_of("ECM reprogramming")
            .unwrap()
            .risk;
        assert!(
            after > before,
            "insider tuning must raise the reprogramming risk"
        );
    }

    #[test]
    fn display_lists_every_threat() {
        let report = ecm_tara().evaluate(&AttackVectorModel::standard()).unwrap();
        let s = report.to_string();
        assert!(s.contains("ECM reprogramming"));
        assert!(s.contains("CAN DoS on powertrain"));
    }
}
