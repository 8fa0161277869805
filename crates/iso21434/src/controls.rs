//! Cybersecurity controls and residual-risk estimation.
//!
//! The paper closes its financial example with a design directive: "the development
//! team should create a secure anti-tampering DPF architecture to ensure product
//! security that can withstand an adversary's investment of up to 145 286 EUR".
//! This module gives that directive a data model: a catalogue of controls, each
//! with an implementation cost, the attack vectors it mitigates, the adversary
//! investment it is expected to withstand (its *resistance budget*), and the
//! feasibility reduction it buys.  A [`ControlPlan`] selects controls for a
//! cybersecurity goal and reports the residual feasibility and whether the combined
//! resistance meets a required investment bound.

use crate::feasibility::AttackFeasibilityRating;
use std::fmt;
use vehicle::attack_surface::AttackVector;

/// A cybersecurity control (technical or organisational).
#[derive(Debug, Clone)]
pub struct Control {
    /// Control name (e.g. "authenticated diagnostics / UDS 0x29").
    pub name: String,
    /// Implementation cost to the OEM / supplier, in EUR.
    pub implementation_cost_eur: f64,
    /// Attack vectors the control mitigates.
    pub mitigates: Vec<AttackVector>,
    /// The adversary investment (EUR) the control is designed to withstand.
    pub resistance_budget_eur: f64,
    /// How many feasibility levels the control removes from a mitigated vector
    /// (1 = one step down the High→Medium→Low→Very Low ladder).
    pub feasibility_reduction: u8,
}

impl Control {
    /// Creates a control.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        implementation_cost_eur: f64,
        mitigates: Vec<AttackVector>,
        resistance_budget_eur: f64,
        feasibility_reduction: u8,
    ) -> Self {
        Self {
            name: name.into(),
            implementation_cost_eur,
            mitigates,
            resistance_budget_eur,
            feasibility_reduction,
        }
    }

    /// Whether the control mitigates the given vector.
    #[must_use]
    pub fn mitigates_vector(&self, vector: AttackVector) -> bool {
        self.mitigates.contains(&vector)
    }
}

impl fmt::Display for Control {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (cost {:.0} EUR, withstands {:.0} EUR)",
            self.name, self.implementation_cost_eur, self.resistance_budget_eur
        )
    }
}

/// A reference catalogue of anti-tampering controls for powertrain /
/// after-treatment items, sized from public engineering practice.
#[must_use]
pub fn anti_tampering_catalogue() -> Vec<Control> {
    vec![
        Control::new(
            "Secure boot with hardware root of trust",
            180_000.0,
            vec![AttackVector::Physical, AttackVector::Local],
            250_000.0,
            2,
        ),
        Control::new(
            "Authenticated diagnostics (UDS service 0x29)",
            60_000.0,
            vec![AttackVector::Local],
            90_000.0,
            1,
        ),
        Control::new(
            "Signed calibration with anti-rollback counters",
            75_000.0,
            vec![AttackVector::Local, AttackVector::Physical],
            120_000.0,
            1,
        ),
        Control::new(
            "ECU-to-vehicle pairing (component protection)",
            50_000.0,
            vec![AttackVector::Physical],
            80_000.0,
            1,
        ),
        Control::new(
            "CAN intrusion detection with limp-home reaction",
            90_000.0,
            vec![AttackVector::Local, AttackVector::Adjacent],
            60_000.0,
            1,
        ),
        Control::new(
            "Hardened telematics stack and FOTA signing",
            140_000.0,
            vec![AttackVector::Network, AttackVector::Adjacent],
            200_000.0,
            2,
        ),
    ]
}

/// A selected set of controls for one cybersecurity goal.
#[derive(Debug, Default)]
pub struct ControlPlan {
    controls: Vec<Control>,
}

impl ControlPlan {
    /// Creates an empty plan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a control.
    #[must_use]
    pub fn with_control(mut self, control: Control) -> Self {
        self.controls.push(control);
        self
    }

    /// The selected controls.
    #[must_use]
    pub fn controls(&self) -> &[Control] {
        &self.controls
    }

    /// Total implementation cost.
    #[must_use]
    pub fn total_cost(&self) -> f64 {
        self.controls
            .iter()
            .map(|c| c.implementation_cost_eur)
            .sum()
    }

    /// The combined resistance budget against attacks using the given vector
    /// (controls that do not mitigate the vector contribute nothing).
    #[must_use]
    pub fn resistance_for(&self, vector: AttackVector) -> f64 {
        self.controls
            .iter()
            .filter(|c| c.mitigates_vector(vector))
            .map(|c| c.resistance_budget_eur)
            .sum()
    }

    /// The residual feasibility after applying the plan to an initial rating for
    /// attacks using the given vector: each mitigating control steps the rating
    /// down by its `feasibility_reduction`, saturating at Very Low.
    #[must_use]
    pub fn residual_feasibility(
        &self,
        vector: AttackVector,
        initial: AttackFeasibilityRating,
    ) -> AttackFeasibilityRating {
        let reduction: u8 = self
            .controls
            .iter()
            .filter(|c| c.mitigates_vector(vector))
            .map(|c| c.feasibility_reduction)
            .sum();
        AttackFeasibilityRating::from_value(initial.value().saturating_sub(reduction))
    }

    /// Greedily selects controls from a catalogue until the required resistance for
    /// the given vector is reached, preferring the cheapest resistance first.
    /// Returns `None` if the catalogue cannot reach the requirement.
    #[must_use]
    pub fn select_for(
        catalogue: &[Control],
        vector: AttackVector,
        required_resistance_eur: f64,
    ) -> Option<Self> {
        let mut candidates: Vec<&Control> = catalogue
            .iter()
            .filter(|c| c.mitigates_vector(vector) && c.resistance_budget_eur > 0.0)
            .collect();
        candidates.sort_by(|a, b| {
            let ra = a.implementation_cost_eur / a.resistance_budget_eur;
            let rb = b.implementation_cost_eur / b.resistance_budget_eur;
            ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut plan = ControlPlan::new();
        for control in candidates {
            if plan.resistance_for(vector) >= required_resistance_eur {
                break;
            }
            plan = plan.with_control(control.clone());
        }
        if plan.resistance_for(vector) >= required_resistance_eur {
            Some(plan)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_plausible() {
        let catalogue = anti_tampering_catalogue();
        assert_eq!(catalogue.len(), 6);
        assert!(catalogue.iter().all(|c| c.implementation_cost_eur > 0.0));
        assert!(catalogue.iter().all(|c| !c.mitigates.is_empty()));
    }

    #[test]
    fn resistance_accumulates_per_vector() {
        let plan = ControlPlan::new()
            .with_control(anti_tampering_catalogue()[0].clone()) // secure boot
            .with_control(anti_tampering_catalogue()[1].clone()); // authenticated diag
        assert!(plan.resistance_for(AttackVector::Local) >= 340_000.0 - 1e-9);
        assert!(plan.resistance_for(AttackVector::Physical) >= 250_000.0 - 1e-9);
        assert_eq!(plan.resistance_for(AttackVector::Network), 0.0);
        assert!(plan.total_cost() > 0.0);
    }

    #[test]
    fn paper_investment_bound_can_be_met_for_local_attacks() {
        // The paper's DPF example: the architecture must withstand ~145 286 EUR of
        // adversary investment; the attack is local (OBD / service tool).
        let plan =
            ControlPlan::select_for(&anti_tampering_catalogue(), AttackVector::Local, 145_286.0)
                .expect("catalogue suffices");
        assert!(plan.resistance_for(AttackVector::Local) >= 145_286.0);
        assert!(!plan.controls().is_empty());
    }

    #[test]
    fn unreachable_requirement_returns_none() {
        let plan = ControlPlan::select_for(
            &anti_tampering_catalogue(),
            AttackVector::Network,
            10_000_000.0,
        );
        assert!(plan.is_none());
    }

    #[test]
    fn residual_feasibility_saturates_at_very_low() {
        let plan = ControlPlan::new()
            .with_control(anti_tampering_catalogue()[0].clone())
            .with_control(anti_tampering_catalogue()[2].clone());
        let residual =
            plan.residual_feasibility(AttackVector::Physical, AttackFeasibilityRating::High);
        assert_eq!(residual, AttackFeasibilityRating::VeryLow);
        // Vectors the plan does not cover keep their initial rating.
        assert_eq!(
            plan.residual_feasibility(AttackVector::Network, AttackFeasibilityRating::Medium),
            AttackFeasibilityRating::Medium
        );
    }

    #[test]
    fn selection_prefers_cost_effective_controls() {
        let plan =
            ControlPlan::select_for(&anti_tampering_catalogue(), AttackVector::Local, 50_000.0)
                .unwrap();
        // A small requirement should not drag in the whole catalogue.
        assert!(plan.controls().len() <= 2);
    }

    #[test]
    fn display_mentions_cost_and_resistance() {
        let c = &anti_tampering_catalogue()[1];
        let s = c.to_string();
        assert!(s.contains("cost"));
        assert!(s.contains("withstands"));
    }
}
