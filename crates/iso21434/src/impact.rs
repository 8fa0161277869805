//! Damage scenarios and impact rating (ISO/SAE-21434 Clause 15.3 / 15.5).
//!
//! A damage scenario describes the harm that results if a cybersecurity property of
//! an asset is violated.  The impact rating assigns one of four levels — severe,
//! major, moderate, negligible — to each of the four impact categories: safety,
//! financial, operational and privacy (S/F/O/P).

use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// The four impact categories of ISO/SAE-21434.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ImpactCategory {
    /// Harm to life and limb of road users.
    Safety,
    /// Financial loss to the road user or the OEM.
    Financial,
    /// Loss or degradation of a vehicle function.
    Operational,
    /// Loss of personal data or privacy of the road user.
    Privacy,
}

/// The impact level assigned to one impact category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum ImpactRating {
    /// No noticeable harm.
    Negligible,
    /// Inconvenient but recoverable harm.
    Moderate,
    /// Substantial harm.
    Major,
    /// Life-threatening or catastrophic harm.
    Severe,
}

impl ImpactRating {
    /// All ratings from lowest to highest.
    pub const ALL: [ImpactRating; 4] = [
        ImpactRating::Negligible,
        ImpactRating::Moderate,
        ImpactRating::Major,
        ImpactRating::Severe,
    ];

    /// The numeric impact value used by the risk matrix (1 = negligible … 4 = severe).
    #[must_use]
    pub fn value(self) -> u8 {
        match self {
            ImpactRating::Negligible => 1,
            ImpactRating::Moderate => 2,
            ImpactRating::Major => 3,
            ImpactRating::Severe => 4,
        }
    }
}

impl fmt::Display for ImpactRating {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A damage scenario: the impact rating of each category it affects (a
/// category it does not rate is negligible).
#[derive(Debug, Default)]
pub struct DamageScenario {
    ratings: BTreeMap<ImpactCategory, ImpactRating>,
}

impl DamageScenario {
    /// Creates a damage scenario with all categories rated negligible.
    ///
    /// # Examples
    ///
    /// ```
    /// use iso21434::{DamageScenario, ImpactCategory, ImpactRating};
    /// // Engine stall while driving.
    /// let ds = DamageScenario::new()
    ///     .rate(ImpactCategory::Safety, ImpactRating::Severe)
    ///     .rate(ImpactCategory::Operational, ImpactRating::Major);
    /// assert_eq!(ds.overall(), ImpactRating::Severe);
    /// ```
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the rating of one impact category.
    #[must_use]
    pub fn rate(mut self, category: ImpactCategory, rating: ImpactRating) -> Self {
        self.ratings.insert(category, rating);
        self
    }

    /// The overall impact: the maximum over the four categories, as required by the
    /// standard when a single impact level is needed for risk determination.
    #[must_use]
    pub fn overall(&self) -> ImpactRating {
        self.ratings
            .values()
            .copied()
            .max()
            .unwrap_or(ImpactRating::Negligible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stall_scenario() -> DamageScenario {
        DamageScenario::new() // engine stall while driving
            .rate(ImpactCategory::Safety, ImpactRating::Severe)
            .rate(ImpactCategory::Operational, ImpactRating::Major)
            .rate(ImpactCategory::Financial, ImpactRating::Moderate)
    }

    #[test]
    fn ratings_default_to_negligible() {
        assert_eq!(DamageScenario::new().overall(), ImpactRating::Negligible);
        let privacy_only =
            DamageScenario::new().rate(ImpactCategory::Privacy, ImpactRating::Moderate);
        assert_eq!(privacy_only.overall(), ImpactRating::Moderate);
    }

    #[test]
    fn overall_is_the_maximum() {
        assert_eq!(stall_scenario().overall(), ImpactRating::Severe);
    }

    #[test]
    fn rating_values_are_monotone() {
        let values: Vec<_> = ImpactRating::ALL.iter().map(|r| r.value()).collect();
        assert_eq!(values, vec![1, 2, 3, 4]);
    }

    #[test]
    fn ordering_of_ratings() {
        assert!(ImpactRating::Negligible < ImpactRating::Moderate);
        assert!(ImpactRating::Major < ImpactRating::Severe);
    }
}
