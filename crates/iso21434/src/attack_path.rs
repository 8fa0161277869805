//! Attack paths and attack steps (ISO/SAE-21434 Clause 15.6).
//!
//! An attack path is the ordered sequence of steps an attacker performs to realise
//! a threat scenario.  A path records the attack vector each step uses; the path as a
//! whole is characterised by its *limiting* vector (the most local access any step
//! requires) because that is what the attack-vector-based feasibility model rates.

use vehicle::attack_surface::AttackVector;

/// An ordered attack path realising a threat scenario: the attack vector
/// each of its steps uses.
#[derive(Debug)]
pub struct AttackPath {
    name: String,
    steps: Vec<AttackVector>,
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

    /// Appends a step that uses `vector`.
    #[must_use]
    pub fn step(mut self, vector: AttackVector) -> Self {
        self.steps.push(vector);
        self
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
        self.steps.iter().copied().max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obd_reflash_path() -> AttackPath {
        AttackPath::new("OBD reflash")
            .step(AttackVector::Local) // connect a J2534 pass-thru tool to the OBD port
            .step(AttackVector::Local) // unlock the programming session (seed-key brute force)
            .step(AttackVector::Local) // flash the modified calibration
    }

    fn remote_then_physical_path() -> AttackPath {
        AttackPath::new("remote foothold, physical finish")
            .step(AttackVector::Network) // compromise the telematics unit over cellular
            .step(AttackVector::Network) // pivot to the powertrain CAN via the gateway
            .step(AttackVector::Physical) // solder a bypass wire on the ECM board
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
}
