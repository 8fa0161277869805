//! The attack-vector-based feasibility model (paper Figure 5 / table G.9).
//!
//! The simpler of the two models: the attack vector required by the attack path
//! is looked up in a four-row table that maps Network → High, Adjacent → Medium,
//! Local → Low and Physical → Very Low.
//!
//! The paper's central criticism is that this table is *fixed*: for a powertrain ECU
//! attacked by its own owner (the insider case) the physical row is grossly
//! under-rated.  [`AttackVectorTable`] therefore supports arbitrary replacement
//! mappings; the `psp` crate generates those from social-media evidence
//! (paper Figures 8-B, 9-B and 9-C).

use super::AttackFeasibilityRating;
use crate::attack_path::AttackPath;
use crate::error::Iso21434Error;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use vehicle::attack_surface::AttackVector;

/// A vector → rating table (the G.9 table or a PSP-tuned replacement).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackVectorTable {
    name: String,
    ratings: BTreeMap<AttackVector, AttackFeasibilityRating>,
}

impl AttackVectorTable {
    /// The standard table of ISO/SAE-21434 G.9 (paper Figure 5 / Figure 9-A):
    /// Network → High, Adjacent → Medium, Local → Low, Physical → Very Low.
    #[must_use]
    pub fn standard() -> Self {
        let mut ratings = BTreeMap::new();
        ratings.insert(AttackVector::Network, AttackFeasibilityRating::High);
        ratings.insert(AttackVector::Adjacent, AttackFeasibilityRating::Medium);
        ratings.insert(AttackVector::Local, AttackFeasibilityRating::Low);
        ratings.insert(AttackVector::Physical, AttackFeasibilityRating::VeryLow);
        Self {
            name: "ISO/SAE-21434 G.9 (standard)".to_string(),
            ratings,
        }
    }

    /// Builds a custom table.
    ///
    /// # Errors
    ///
    /// Returns [`Iso21434Error::InvalidWeightTable`] if any of the four attack
    /// vectors is missing from `ratings`.
    pub fn custom(
        name: impl Into<String>,
        ratings: BTreeMap<AttackVector, AttackFeasibilityRating>,
    ) -> Result<Self, Iso21434Error> {
        for vector in AttackVector::ALL {
            if !ratings.contains_key(&vector) {
                return Err(Iso21434Error::InvalidWeightTable {
                    reason: format!("missing rating for attack vector {vector}"),
                });
            }
        }
        Ok(Self {
            name: name.into(),
            ratings,
        })
    }

    /// The table name (shown in reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The rating assigned to an attack vector.
    #[must_use]
    pub fn rating(&self, vector: AttackVector) -> AttackFeasibilityRating {
        self.ratings
            .get(&vector)
            .copied()
            .unwrap_or(AttackFeasibilityRating::VeryLow)
    }

    /// Iterates over the rows in vector order (Network first).
    pub fn rows(&self) -> impl Iterator<Item = (AttackVector, AttackFeasibilityRating)> + '_ {
        AttackVector::ALL.into_iter().map(|v| (v, self.rating(v)))
    }

    /// The attack vectors ranked from most to least feasible under this table
    /// (ties broken by keeping the remote-to-local order).  Comparing the ranking of
    /// a tuned table against the standard one is how the paper presents the
    /// "priority change" of Figure 8-B.
    #[must_use]
    pub fn ranking(&self) -> Vec<AttackVector> {
        let mut vectors = AttackVector::ALL.to_vec();
        vectors.sort_by(|a, b| self.rating(*b).cmp(&self.rating(*a)).then(a.cmp(b)));
        vectors
    }

    /// Whether this table assigns the same rating to every vector as `other`.
    #[must_use]
    pub fn same_ratings_as(&self, other: &AttackVectorTable) -> bool {
        AttackVector::ALL
            .iter()
            .all(|v| self.rating(*v) == other.rating(*v))
    }
}

impl fmt::Display for AttackVectorTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.name)?;
        for (vector, rating) in self.rows() {
            writeln!(f, "  {vector:<9} -> {rating}")?;
        }
        Ok(())
    }
}

/// The feasibility model a [`Tara`](crate::tara::Tara) evaluates with: it rates
/// an attack path by looking up its limiting vector in an [`AttackVectorTable`].
#[derive(Debug)]
pub struct AttackVectorModel {
    table: AttackVectorTable,
}

impl AttackVectorModel {
    /// Uses the standard G.9 table.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            table: AttackVectorTable::standard(),
        }
    }

    /// Uses a custom (e.g. PSP-tuned) table.
    #[must_use]
    pub fn with_table(table: AttackVectorTable) -> Self {
        Self { table }
    }

    /// The table name, shown in reports.
    #[must_use]
    pub fn name(&self) -> &str {
        self.table.name()
    }

    /// Rates an attack path by its limiting vector; an empty path counts as
    /// physical.
    #[must_use]
    pub fn rate(&self, path: &AttackPath) -> AttackFeasibilityRating {
        let vector = path.limiting_vector().unwrap_or(AttackVector::Physical);
        self.table.rating(vector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_table_matches_g9() {
        let t = AttackVectorTable::standard();
        assert_eq!(
            t.rating(AttackVector::Network),
            AttackFeasibilityRating::High
        );
        assert_eq!(
            t.rating(AttackVector::Adjacent),
            AttackFeasibilityRating::Medium
        );
        assert_eq!(t.rating(AttackVector::Local), AttackFeasibilityRating::Low);
        assert_eq!(
            t.rating(AttackVector::Physical),
            AttackFeasibilityRating::VeryLow
        );
    }

    #[test]
    fn standard_ranking_is_remote_first() {
        assert_eq!(
            AttackVectorTable::standard().ranking(),
            vec![
                AttackVector::Network,
                AttackVector::Adjacent,
                AttackVector::Local,
                AttackVector::Physical
            ]
        );
    }

    #[test]
    fn custom_table_requires_all_vectors() {
        let mut partial = BTreeMap::new();
        partial.insert(AttackVector::Network, AttackFeasibilityRating::High);
        let err = AttackVectorTable::custom("partial", partial).unwrap_err();
        assert!(matches!(err, Iso21434Error::InvalidWeightTable { .. }));
    }

    #[test]
    fn custom_table_can_invert_priorities() {
        // The PSP insider table of Figure 8-B: physical/local dominate.
        let mut ratings = BTreeMap::new();
        ratings.insert(AttackVector::Physical, AttackFeasibilityRating::High);
        ratings.insert(AttackVector::Local, AttackFeasibilityRating::Medium);
        ratings.insert(AttackVector::Adjacent, AttackFeasibilityRating::Low);
        ratings.insert(AttackVector::Network, AttackFeasibilityRating::VeryLow);
        let t = AttackVectorTable::custom("PSP insider", ratings).unwrap();
        assert_eq!(t.ranking()[0], AttackVector::Physical);
        assert!(!t.same_ratings_as(&AttackVectorTable::standard()));
    }

    #[test]
    fn model_rates_by_limiting_vector() {
        let model = AttackVectorModel::standard();
        let remote = AttackPath::new("remote").step(AttackVector::Network); // cellular exploit
        let physical = AttackPath::new("bench").step(AttackVector::Physical); // reflash on the bench
        assert_eq!(model.rate(&remote), AttackFeasibilityRating::High);
        assert_eq!(model.rate(&physical), AttackFeasibilityRating::VeryLow);
    }

    #[test]
    fn empty_path_is_treated_as_physical() {
        let model = AttackVectorModel::standard();
        assert_eq!(
            model.rate(&AttackPath::new("empty")),
            AttackFeasibilityRating::VeryLow
        );
    }

    #[test]
    fn rows_iterate_in_vector_order() {
        let rows: Vec<_> = AttackVectorTable::standard().rows().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].0, AttackVector::Network);
        assert_eq!(rows[3].0, AttackVector::Physical);
    }

    #[test]
    fn display_renders_all_rows() {
        let s = AttackVectorTable::standard().to_string();
        for label in ["Network", "Adjacent", "Local", "Physical"] {
            assert!(s.contains(label), "{label} missing from {s}");
        }
    }

    #[test]
    fn same_ratings_as_is_reflexive() {
        let t = AttackVectorTable::standard();
        assert!(t.same_ratings_as(&t.clone()));
    }

    #[test]
    fn serde_round_trip() {
        let t = AttackVectorTable::standard();
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(t, serde_json::from_str(&json).unwrap());
    }
}
