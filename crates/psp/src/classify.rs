//! Insider / outsider classification (paper Figure 7, blocks 8–9).
//!
//! The paper defines insiders as "all attacks that the owner is aware of and
//! approves, even if the attack comes from third parties (e.g. an untrusted
//! service, a racing workshop)", and outsiders as "attacks conducted by a third
//! party only, where the owner is oblivious (criminal attacks, thefts, black hat
//! attacks)".  The PSP re-tuning only applies to insider entries: "re-tuning the
//! standard model weight values on the outsider entries does not make sense".

use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether an attack topic belongs to the insider or outsider super-category.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackOrigin {
    /// Owner-approved attacks (tuning, defeat devices, reprogramming).
    Insider,
    /// Owner-oblivious attacks (theft, remote exploitation, espionage).
    Outsider,
}

impl fmt::Display for AttackOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackOrigin::Insider => f.write_str("Insider"),
            AttackOrigin::Outsider => f.write_str("Outsider"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_labels() {
        assert_eq!(AttackOrigin::Insider.to_string(), "Insider");
        assert_eq!(AttackOrigin::Outsider.to_string(), "Outsider");
    }
}
