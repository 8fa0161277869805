//! Market structure and market share (the `MS` term of Equation 2).
//!
//! Equation 2 of the paper distinguishes monopolistic markets (use total vehicle
//! sales `VS`) from non-monopolistic ones (use the manufacturer's market share
//! `MS`, i.e. the slice of the fleet actually exposed to the attack in question).

/// Whether the market for the application under analysis is effectively served by a
/// single manufacturer.
#[derive(Debug, Clone, Copy)]
pub enum MarketStructure {
    /// One manufacturer dominates: the potential-attacker base is the whole market
    /// (`PAE = VS · PEA`).
    Monopolistic,
    /// Several manufacturers compete: only the manufacturer's own share matters
    /// (`PAE = MS · PEA`), expressed as a fraction of total sales in `0.0..=1.0`.
    NonMonopolistic {
        /// The manufacturer's market share as a fraction.
        share: f64,
    },
}

impl MarketStructure {
    /// Creates a non-monopolistic structure, clamping the share into `[0, 1]`.
    #[must_use]
    pub fn with_share(share: f64) -> Self {
        MarketStructure::NonMonopolistic {
            share: share.clamp(0.0, 1.0),
        }
    }

    /// The exposed-fleet size: all sold units for a monopolistic market, the
    /// manufacturer's share of them otherwise.
    #[must_use]
    pub fn exposed_units(&self, total_units_sold: u64) -> f64 {
        match self {
            MarketStructure::Monopolistic => total_units_sold as f64,
            MarketStructure::NonMonopolistic { share } => total_units_sold as f64 * share,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monopolistic_uses_all_units() {
        assert_eq!(
            MarketStructure::Monopolistic.exposed_units(20_000),
            20_000.0
        );
    }

    #[test]
    fn non_monopolistic_scales_by_share() {
        let s = MarketStructure::with_share(0.35);
        assert!((s.exposed_units(20_000) - 7_000.0).abs() < 1e-9);
    }

    #[test]
    fn share_is_clamped() {
        assert_eq!(MarketStructure::with_share(1.7).exposed_units(100), 100.0);
        assert_eq!(MarketStructure::with_share(-0.3).exposed_units(100), 0.0);
    }
}
