//! Generation of updated attack-vector weight tables (paper Figure 7, blocks 10–12
//! and Figures 8-B / 9-B / 9-C).
//!
//! For outsider threats PSP keeps the standard G.9 weights untouched
//! (paper Figure 8-A).  For insider threats it derives corrective factors from the
//! SAI: the share of social evidence attached to each attack vector re-ranks the
//! vector → rating mapping.  Two mappings are provided:
//!
//! * [`WeightMapping::RankBased`] (default) — vectors are sorted by their SAI share
//!   and assigned High / Medium / Low / Very Low in that order, which is exactly the
//!   "priority change" presentation of Figure 8-B;
//! * [`WeightMapping::Proportional`] — the rating is chosen from the share value
//!   itself (≥ 0.4 High, ≥ 0.2 Medium, > 0.05 Low, else Very Low), which keeps ties
//!   when the evidence is spread evenly.  The difference between the two is the
//!   subject of the `weights_ablation` bench.

use crate::sai::SaiList;
use iso21434::feasibility::attack_vector::AttackVectorTable;
use iso21434::feasibility::AttackFeasibilityRating;
use std::collections::BTreeMap;
use vehicle::attack_surface::AttackVector;

/// How SAI shares are mapped onto feasibility ratings.
#[derive(Debug, Clone, Copy, Default)]
pub enum WeightMapping {
    /// Sort vectors by SAI share and assign High, Medium, Low, Very Low by rank.
    #[default]
    RankBased,
    /// Threshold the share directly (≥ 0.4 High, ≥ 0.2 Medium, > 0.05 Low).
    Proportional,
}

/// The weight-table generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightGenerator {
    mapping: WeightMapping,
}

impl WeightGenerator {
    /// Creates a generator with the default (rank-based) mapping.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a generator with an explicit mapping.
    #[must_use]
    pub fn with_mapping(mapping: WeightMapping) -> Self {
        Self { mapping }
    }

    /// The table PSP uses for outsider threats: the untouched standard G.9 table
    /// (paper Figure 8-A).
    #[must_use]
    pub fn outsider_table(&self) -> AttackVectorTable {
        AttackVectorTable::standard()
    }

    /// Generates the insider table for one threat scenario from the SAI evidence.
    /// Falls back to the standard table when the scenario has no evidence at all
    /// (no data means no justification for deviating from the standard).
    #[must_use]
    pub fn insider_table(&self, sai: &SaiList, scenario: &str) -> AttackVectorTable {
        let shares = sai.vector_shares(scenario);
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        if total <= 0.0 {
            return AttackVectorTable::standard();
        }
        let ratings = match self.mapping {
            WeightMapping::RankBased => rank_based(&shares),
            WeightMapping::Proportional => proportional(&shares),
        };
        let name = format!("PSP insider table ({scenario})");
        AttackVectorTable::custom(name, ratings)
            .expect("generated mapping always covers all four vectors")
    }

    /// Convenience: the corrective factors themselves (vector → share), useful for
    /// reporting next to the generated table.
    #[must_use]
    pub fn corrective_factors(&self, sai: &SaiList, scenario: &str) -> Vec<(AttackVector, f64)> {
        sai.vector_shares(scenario)
    }
}

fn rank_based(shares: &[(AttackVector, f64)]) -> BTreeMap<AttackVector, AttackFeasibilityRating> {
    let mut sorted: Vec<(AttackVector, f64)> = shares.to_vec();
    // Highest share first; ties keep the standard remote-to-local priority so a
    // scenario with no evidence for two vectors degrades gracefully.
    sorted.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    let ladder = [
        AttackFeasibilityRating::High,
        AttackFeasibilityRating::Medium,
        AttackFeasibilityRating::Low,
        AttackFeasibilityRating::VeryLow,
    ];
    sorted
        .into_iter()
        .zip(ladder)
        .map(|((vector, _), rating)| (vector, rating))
        .collect()
}

fn proportional(shares: &[(AttackVector, f64)]) -> BTreeMap<AttackVector, AttackFeasibilityRating> {
    shares
        .iter()
        .map(|(vector, share)| {
            let rating = if *share >= 0.4 {
                AttackFeasibilityRating::High
            } else if *share >= 0.2 {
                AttackFeasibilityRating::Medium
            } else if *share > 0.05 {
                AttackFeasibilityRating::Low
            } else {
                AttackFeasibilityRating::VeryLow
            };
            (*vector, rating)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PspConfig;
    use crate::keyword_db::KeywordDatabase;
    use socialsim::scenario;
    use socialsim::time::DateWindow;

    fn all_time_sai() -> SaiList {
        SaiList::compute(
            &scenario::passenger_car_europe(42),
            &KeywordDatabase::passenger_car_seed(),
            &PspConfig::passenger_car_europe(),
        )
    }

    fn recent_sai() -> SaiList {
        SaiList::compute(
            &scenario::passenger_car_europe(42),
            &KeywordDatabase::passenger_car_seed(),
            &PspConfig::passenger_car_europe().with_window(DateWindow::years(2021, 2023)),
        )
    }

    #[test]
    fn outsider_table_is_the_standard_g9() {
        let generator = WeightGenerator::new();
        assert!(generator
            .outsider_table()
            .same_ratings_as(&AttackVectorTable::standard()));
    }

    #[test]
    fn figure_8b_physical_tops_the_all_time_insider_table() {
        let generator = WeightGenerator::new();
        let table = generator.insider_table(&all_time_sai(), "ecm-reprogramming");
        assert_eq!(
            table.rating(AttackVector::Physical),
            AttackFeasibilityRating::High
        );
        assert_eq!(table.ranking()[0], AttackVector::Physical);
        assert!(!table.same_ratings_as(&AttackVectorTable::standard()));
    }

    #[test]
    fn figure_9c_local_tops_the_recent_window_table() {
        let generator = WeightGenerator::new();
        let table = generator.insider_table(&recent_sai(), "ecm-reprogramming");
        assert_eq!(
            table.rating(AttackVector::Local),
            AttackFeasibilityRating::High
        );
        assert_eq!(table.ranking()[0], AttackVector::Local);
    }

    #[test]
    fn unknown_scenario_falls_back_to_standard() {
        let generator = WeightGenerator::new();
        let table = generator.insider_table(&all_time_sai(), "no-such-scenario");
        assert!(table.same_ratings_as(&AttackVectorTable::standard()));
    }

    #[test]
    fn proportional_mapping_differs_from_rank_based_when_evidence_is_concentrated() {
        let sai = all_time_sai();
        let rank = WeightGenerator::new().insider_table(&sai, "emission-defeat");
        let prop = WeightGenerator::with_mapping(WeightMapping::Proportional)
            .insider_table(&sai, "emission-defeat");
        // All emission-defeat evidence is Local, so the proportional mapping keeps
        // the other vectors at Very Low while the rank-based mapping still hands
        // out Medium and Low by rank.
        assert_eq!(
            prop.rating(AttackVector::Local),
            AttackFeasibilityRating::High
        );
        assert_eq!(
            prop.rating(AttackVector::Physical),
            AttackFeasibilityRating::VeryLow
        );
        assert_eq!(
            rank.rating(AttackVector::Local),
            AttackFeasibilityRating::High
        );
        assert_ne!(
            rank.rating(AttackVector::Network),
            prop.rating(AttackVector::Network)
        );
    }

    #[test]
    fn corrective_factors_expose_the_shares() {
        let generator = WeightGenerator::new();
        let factors = generator.corrective_factors(&all_time_sai(), "ecm-reprogramming");
        let physical = factors
            .iter()
            .find(|(v, _)| *v == AttackVector::Physical)
            .unwrap()
            .1;
        let local = factors
            .iter()
            .find(|(v, _)| *v == AttackVector::Local)
            .unwrap()
            .1;
        assert!(physical > local, "all-time physical share must dominate");
    }

    #[test]
    fn generated_tables_always_cover_all_vectors() {
        let generator = WeightGenerator::new();
        let table = generator.insider_table(&all_time_sai(), "ecm-reprogramming");
        assert_eq!(table.rows().count(), 4);
    }

    #[test]
    fn mapping_accessor() {
        assert!(matches!(
            WeightGenerator::new().mapping,
            WeightMapping::RankBased
        ));
        assert!(matches!(
            WeightGenerator::with_mapping(WeightMapping::Proportional).mapping,
            WeightMapping::Proportional
        ));
    }
}
