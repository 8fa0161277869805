//! The attack-potential-based feasibility model (paper Figure 3, Annex G.2).
//!
//! Derived from the ISO/IEC 18045 "attack potential" calculation: the analyst rates
//! five core parameters — elapsed time, specialist expertise, knowledge of the item,
//! window of opportunity and equipment — sums the associated values, and maps the
//! total onto a feasibility rating (a *higher* attack-potential total means the
//! attack is *harder*, hence *lower* feasibility).

use super::AttackFeasibilityRating;

/// Elapsed time needed to identify and exploit the vulnerability.
#[derive(Debug, Clone, Copy)]
pub enum ElapsedTime {
    /// Up to one day.
    OneDay,
    /// Up to one week.
    OneWeek,
    /// Up to one month.
    OneMonth,
    /// Up to six months.
    SixMonths,
    /// More than six months.
    BeyondSixMonths,
}

impl ElapsedTime {
    /// Attack-potential value per ISO/IEC 18045.
    #[must_use]
    pub fn value(self) -> u32 {
        match self {
            ElapsedTime::OneDay => 0,
            ElapsedTime::OneWeek => 1,
            ElapsedTime::OneMonth => 4,
            ElapsedTime::SixMonths => 17,
            ElapsedTime::BeyondSixMonths => 19,
        }
    }

    /// All levels.
    pub const ALL: [ElapsedTime; 5] = [
        ElapsedTime::OneDay,
        ElapsedTime::OneWeek,
        ElapsedTime::OneMonth,
        ElapsedTime::SixMonths,
        ElapsedTime::BeyondSixMonths,
    ];
}

/// Specialist expertise required of the attacker.
#[derive(Debug, Clone, Copy)]
pub enum Expertise {
    /// No particular expertise (layman).
    Layman,
    /// Familiar with the security behaviour of the product type (proficient).
    Proficient,
    /// Familiar with underlying algorithms, protocols, hardware (expert).
    Expert,
    /// Different fields of expertise required (multiple experts).
    MultipleExperts,
}

impl Expertise {
    /// Attack-potential value.
    #[must_use]
    pub fn value(self) -> u32 {
        match self {
            Expertise::Layman => 0,
            Expertise::Proficient => 3,
            Expertise::Expert => 6,
            Expertise::MultipleExperts => 8,
        }
    }

    /// All levels.
    pub const ALL: [Expertise; 4] = [
        Expertise::Layman,
        Expertise::Proficient,
        Expertise::Expert,
        Expertise::MultipleExperts,
    ];
}

/// Knowledge of the item or component required.
#[derive(Debug, Clone, Copy)]
pub enum Knowledge {
    /// Public information only.
    Public,
    /// Restricted information (e.g. controlled distribution).
    Restricted,
    /// Confidential information.
    Confidential,
    /// Strictly confidential information.
    StrictlyConfidential,
}

impl Knowledge {
    /// Attack-potential value.
    #[must_use]
    pub fn value(self) -> u32 {
        match self {
            Knowledge::Public => 0,
            Knowledge::Restricted => 3,
            Knowledge::Confidential => 7,
            Knowledge::StrictlyConfidential => 11,
        }
    }

    /// All levels.
    pub const ALL: [Knowledge; 4] = [
        Knowledge::Public,
        Knowledge::Restricted,
        Knowledge::Confidential,
        Knowledge::StrictlyConfidential,
    ];
}

/// Window of opportunity available to the attacker.
#[derive(Debug, Clone, Copy)]
pub enum WindowOfOpportunity {
    /// Unlimited access (no time or access constraint) — the insider case the paper
    /// highlights for powertrain attackers.
    Unlimited,
    /// Easy: access ≤ 1 month, limited physical constraint.
    Easy,
    /// Moderate: access ≤ 1 month with constraints.
    Moderate,
    /// Difficult: very limited access opportunity.
    Difficult,
}

impl WindowOfOpportunity {
    /// Attack-potential value.
    #[must_use]
    pub fn value(self) -> u32 {
        match self {
            WindowOfOpportunity::Unlimited => 0,
            WindowOfOpportunity::Easy => 1,
            WindowOfOpportunity::Moderate => 4,
            WindowOfOpportunity::Difficult => 10,
        }
    }

    /// All levels.
    pub const ALL: [WindowOfOpportunity; 4] = [
        WindowOfOpportunity::Unlimited,
        WindowOfOpportunity::Easy,
        WindowOfOpportunity::Moderate,
        WindowOfOpportunity::Difficult,
    ];
}

/// Equipment required.
#[derive(Debug, Clone, Copy)]
pub enum Equipment {
    /// Standard equipment readily available (laptop, OBD dongle).
    Standard,
    /// Specialised equipment (CAN analyzers, debuggers, oscilloscopes).
    Specialized,
    /// Bespoke equipment that must be specially produced.
    Bespoke,
    /// Multiple bespoke instruments.
    MultipleBespoke,
}

impl Equipment {
    /// Attack-potential value.
    #[must_use]
    pub fn value(self) -> u32 {
        match self {
            Equipment::Standard => 0,
            Equipment::Specialized => 4,
            Equipment::Bespoke => 7,
            Equipment::MultipleBespoke => 9,
        }
    }

    /// All levels.
    pub const ALL: [Equipment; 4] = [
        Equipment::Standard,
        Equipment::Specialized,
        Equipment::Bespoke,
        Equipment::MultipleBespoke,
    ];
}

/// A complete attack-potential assessment of one attack path.
#[derive(Debug, Clone, Copy)]
pub struct AttackPotential {
    /// Elapsed time parameter.
    pub elapsed_time: ElapsedTime,
    /// Expertise parameter.
    pub expertise: Expertise,
    /// Knowledge-of-item parameter.
    pub knowledge: Knowledge,
    /// Window-of-opportunity parameter.
    pub window: WindowOfOpportunity,
    /// Equipment parameter.
    pub equipment: Equipment,
}

impl AttackPotential {
    /// Creates an assessment from its five parameters.
    #[must_use]
    pub fn new(
        elapsed_time: ElapsedTime,
        expertise: Expertise,
        knowledge: Knowledge,
        window: WindowOfOpportunity,
        equipment: Equipment,
    ) -> Self {
        Self {
            elapsed_time,
            expertise,
            knowledge,
            window,
            equipment,
        }
    }

    /// The summed attack-potential value.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.elapsed_time.value()
            + self.expertise.value()
            + self.knowledge.value()
            + self.window.value()
            + self.equipment.value()
    }

    /// Maps the total onto the feasibility rating per Annex G:
    /// 0–13 → High, 14–19 → Medium, 20–24 → Low, ≥25 → Very Low.
    #[must_use]
    pub fn rating(&self) -> AttackFeasibilityRating {
        match self.total() {
            0..=13 => AttackFeasibilityRating::High,
            14..=19 => AttackFeasibilityRating::Medium,
            20..=24 => AttackFeasibilityRating::Low,
            _ => AttackFeasibilityRating::VeryLow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_values_match_iso18045() {
        assert_eq!(ElapsedTime::OneDay.value(), 0);
        assert_eq!(ElapsedTime::BeyondSixMonths.value(), 19);
        assert_eq!(Expertise::MultipleExperts.value(), 8);
        assert_eq!(Knowledge::StrictlyConfidential.value(), 11);
        assert_eq!(WindowOfOpportunity::Difficult.value(), 10);
        assert_eq!(Equipment::MultipleBespoke.value(), 9);
    }

    #[test]
    fn values_are_monotone_within_each_parameter() {
        fn monotone(values: &[u32]) -> bool {
            values.windows(2).all(|w| w[0] <= w[1])
        }
        assert!(monotone(&ElapsedTime::ALL.map(|v| v.value())));
        assert!(monotone(&Expertise::ALL.map(|v| v.value())));
        assert!(monotone(&Knowledge::ALL.map(|v| v.value())));
        assert!(monotone(&WindowOfOpportunity::ALL.map(|v| v.value())));
        assert!(monotone(&Equipment::ALL.map(|v| v.value())));
    }

    #[test]
    fn trivial_attack_rates_high() {
        // The owner-assisted OBD reflash: hours of work, layman following a forum
        // guide, public information, unlimited window, standard tools.
        let ap = AttackPotential::new(
            ElapsedTime::OneDay,
            Expertise::Layman,
            Knowledge::Public,
            WindowOfOpportunity::Unlimited,
            Equipment::Standard,
        );
        assert_eq!(ap.total(), 0);
        assert_eq!(ap.rating(), AttackFeasibilityRating::High);
    }

    #[test]
    fn nation_state_attack_rates_very_low() {
        let ap = AttackPotential::new(
            ElapsedTime::BeyondSixMonths,
            Expertise::MultipleExperts,
            Knowledge::StrictlyConfidential,
            WindowOfOpportunity::Difficult,
            Equipment::MultipleBespoke,
        );
        assert_eq!(ap.total(), 57);
        assert_eq!(ap.rating(), AttackFeasibilityRating::VeryLow);
    }

    #[test]
    fn band_boundaries() {
        // 13 is the top of High.
        let high = AttackPotential::new(
            ElapsedTime::OneWeek,          // 1
            Expertise::Proficient,         // 3
            Knowledge::Restricted,         // 3
            WindowOfOpportunity::Moderate, // 4
            Equipment::Standard,           // 0
        );
        assert_eq!(high.total(), 11);
        assert_eq!(high.rating(), AttackFeasibilityRating::High);

        let medium = AttackPotential::new(
            ElapsedTime::OneMonth,     // 4
            Expertise::Expert,         // 6
            Knowledge::Restricted,     // 3
            WindowOfOpportunity::Easy, // 1
            Equipment::Standard,       // 0
        );
        assert_eq!(medium.total(), 14);
        assert_eq!(medium.rating(), AttackFeasibilityRating::Medium);

        let low = AttackPotential::new(
            ElapsedTime::OneMonth,     // 4
            Expertise::Expert,         // 6
            Knowledge::Confidential,   // 7
            WindowOfOpportunity::Easy, // 1
            Equipment::Specialized,    // 4
        );
        assert_eq!(low.total(), 22);
        assert_eq!(low.rating(), AttackFeasibilityRating::Low);
    }
}
