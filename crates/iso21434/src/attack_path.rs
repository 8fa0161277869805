//! Attack paths and attack steps (ISO/SAE-21434 Clause 15.6).
//!
//! An attack path is the ordered sequence of steps an attacker performs to realise
//! a threat scenario.  Each step carries the attack vector it uses; the path as a
//! whole is characterised by its *limiting* vector (the most local access any step
//! requires) because that is what the attack-vector-based feasibility model rates.

use serde::{Deserialize, Serialize};
use vehicle::attack_surface::AttackVector;

/// One step of an attack path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackStep {
    description: String,
    vector: AttackVector,
}

impl AttackStep {
    /// Creates a step.
    #[must_use]
    pub fn new(description: impl Into<String>, vector: AttackVector) -> Self {
        Self {
            description: description.into(),
            vector,
        }
    }

    /// The attack vector used by the step.
    #[must_use]
    pub fn vector(&self) -> AttackVector {
        self.vector
    }
}

/// An ordered attack path realising a threat scenario.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackPath {
    name: String,
    steps: Vec<AttackStep>,
}

impl AttackPath {
    /// Creates an empty attack path.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            steps: Vec::new(),
        }
    }

    /// Appends a step.
    #[must_use]
    pub fn then(mut self, step: AttackStep) -> Self {
        self.steps.push(step);
        self
    }

    /// Convenience: appends a step built from its parts.
    #[must_use]
    pub fn step(self, description: impl Into<String>, vector: AttackVector) -> Self {
        self.then(AttackStep::new(description, vector))
    }

    /// The path name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The *limiting* vector: the most local (highest-ordinal) access any step of
    /// the path requires.  This is the vector the attack-vector-based feasibility
    /// model rates, because the attacker must satisfy every step's access need.
    #[must_use]
    pub fn limiting_vector(&self) -> Option<AttackVector> {
        self.steps.iter().map(AttackStep::vector).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obd_reflash_path() -> AttackPath {
        AttackPath::new("OBD reflash")
            .step(
                "connect J2534 pass-thru tool to OBD port",
                AttackVector::Local,
            )
            .step(
                "unlock programming session via seed-key brute force",
                AttackVector::Local,
            )
            .step("flash modified calibration", AttackVector::Local)
    }

    fn remote_then_physical_path() -> AttackPath {
        AttackPath::new("remote foothold, physical finish")
            .step(
                "compromise telematics unit over cellular",
                AttackVector::Network,
            )
            .step("pivot to powertrain CAN via gateway", AttackVector::Network)
            .step(
                "solder bypass wire on the ECM board",
                AttackVector::Physical,
            )
    }

    #[test]
    fn empty_path_has_no_vectors() {
        let p = AttackPath::new("empty");
        assert!(p.steps.is_empty());
        assert_eq!(p.limiting_vector(), None);
    }

    #[test]
    fn limiting_vector_is_most_local_step() {
        assert_eq!(
            obd_reflash_path().limiting_vector(),
            Some(AttackVector::Local)
        );
        assert_eq!(
            remote_then_physical_path().limiting_vector(),
            Some(AttackVector::Physical)
        );
    }

    #[test]
    fn serde_round_trip() {
        let p = obd_reflash_path();
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(p, serde_json::from_str(&json).unwrap());
    }
}
