//! ISO/SAE-21434 Threat Analysis and Risk Assessment (TARA) substrate.
//!
//! This crate implements the Clause 15 TARA workflow of ISO/SAE-21434:2021 — the
//! static model the PSP framework sets out to make dynamic.  It covers:
//!
//! * [`asset`] — assets and the cybersecurity properties they carry,
//! * [`impact`] — damage scenarios and impact rating over the four impact
//!   categories (safety, financial, operational, privacy),
//! * [`threat`] — threat scenarios,
//! * [`attack_path`] — attack paths and the vector of each step,
//! * [`feasibility`] — two of the standard's three attack-feasibility models
//!   (attack-potential-based and attack-vector-based; paper Figures 3 and 5),
//! * [`risk`] — risk-value determination from impact and feasibility,
//! * [`cal`] — Cybersecurity Assurance Level determination (paper Figure 6),
//! * [`treatment`] — risk-treatment decisions and cybersecurity goals,
//! * [`tables`] — the normative parameter tables as typed constants,
//! * [`tara`] — the end-to-end TARA engine producing a [`tara::TaraReport`].
//!
//! The attack-vector model deliberately accepts *replacement weight tables*
//! ([`feasibility::attack_vector::AttackVectorTable`]): that is the hook through
//! which the `psp` crate injects its socially tuned weights.
//!
//! # Example
//!
//! ```
//! use iso21434::feasibility::attack_vector::AttackVectorTable;
//! use iso21434::feasibility::AttackFeasibilityRating;
//! use vehicle::attack_surface::AttackVector;
//!
//! let table = AttackVectorTable::standard();
//! assert_eq!(table.rating(AttackVector::Network), AttackFeasibilityRating::High);
//! assert_eq!(table.rating(AttackVector::Physical), AttackFeasibilityRating::VeryLow);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asset;
pub mod attack_path;
pub mod cal;
pub mod controls;
pub mod error;
pub mod feasibility;
pub mod impact;
pub mod risk;
pub mod tables;
pub mod tara;
pub mod threat;
pub mod treatment;

pub use asset::{Asset, CybersecurityProperty};
pub use cal::{Cal, CalMatrix};
pub use error::Iso21434Error;
pub use feasibility::AttackFeasibilityRating;
pub use impact::{DamageScenario, ImpactCategory, ImpactRating};
pub use risk::{RiskMatrix, RiskValue};
pub use tara::{Tara, TaraEntry, TaraReport};
pub use threat::ThreatScenario;
pub use treatment::RiskTreatment;
