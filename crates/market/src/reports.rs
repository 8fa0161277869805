//! Synthetic cybersecurity annual reports (the `PEA` term of Equation 2).
//!
//! The paper determines the "percentage of potential attackers" by text-mining
//! vehicle cybersecurity annual reports (it cites the Upstream global report).
//! Those reports are proprietary, so this module models the statistic they provide:
//! per attack category and year, the share of the fleet whose owners engage in the
//! corresponding insider attack.

/// One line of an annual report: incident prevalence for an attack category.
#[derive(Debug)]
pub struct IncidentStatistic {
    /// Attack category (e.g. "emission tampering", "ECU reprogramming").
    pub category: String,
    /// Year covered.
    pub year: i32,
    /// Share of the observed fleet affected, as a fraction in `[0, 1]`.
    pub prevalence: f64,
}

impl IncidentStatistic {
    /// Creates a statistic, clamping the prevalence into `[0, 1]`.
    #[must_use]
    pub fn new(category: impl Into<String>, year: i32, prevalence: f64) -> Self {
        Self {
            category: category.into(),
            year,
            prevalence: prevalence.clamp(0.0, 1.0),
        }
    }
}

/// A cybersecurity annual report (a bag of incident statistics); start from
/// `default()`.
#[derive(Debug, Default)]
pub struct CyberSecurityReport {
    statistics: Vec<IncidentStatistic>,
}

impl CyberSecurityReport {
    /// Adds a statistic.
    #[must_use]
    pub fn with_statistic(mut self, statistic: IncidentStatistic) -> Self {
        self.statistics.push(statistic);
        self
    }

    /// The percentage of potential attackers (`PEA`) for an attack category: the
    /// prevalence reported for the most recent year whose category matches
    /// case-insensitively (substring match, so "emission" finds
    /// "emission tampering").
    #[must_use]
    pub fn potential_attacker_share(&self, category: &str) -> Option<f64> {
        let needle = category.to_lowercase();
        self.statistics
            .iter()
            .filter(|s| s.category.to_lowercase().contains(&needle))
            .max_by_key(|s| s.year)
            .map(|s| s.prevalence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> CyberSecurityReport {
        CyberSecurityReport::default()
            .with_statistic(IncidentStatistic::new("emission tampering", 2021, 0.055))
            .with_statistic(IncidentStatistic::new("emission tampering", 2022, 0.07))
            .with_statistic(IncidentStatistic::new("ECU reprogramming", 2022, 0.12))
            .with_statistic(IncidentStatistic::new("keyless theft", 2022, 0.004))
    }

    #[test]
    fn most_recent_year_wins() {
        let r = report();
        assert_eq!(r.potential_attacker_share("emission tampering"), Some(0.07));
    }

    #[test]
    fn substring_and_case_insensitive_match() {
        let r = report();
        assert_eq!(r.potential_attacker_share("Emission"), Some(0.07));
        assert_eq!(r.potential_attacker_share("reprogramming"), Some(0.12));
    }

    #[test]
    fn unknown_category_is_none() {
        assert_eq!(report().potential_attacker_share("ransomware"), None);
    }

    #[test]
    fn prevalence_is_clamped() {
        let s = IncidentStatistic::new("x", 2022, 7.0);
        assert_eq!(s.prevalence, 1.0);
        let s = IncidentStatistic::new("x", 2022, -1.0);
        assert_eq!(s.prevalence, 0.0);
    }

    #[test]
    fn statistics_accumulate() {
        assert_eq!(report().statistics.len(), 4);
    }
}
