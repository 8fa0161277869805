//! Adversary pricing study (the `PPIA` and `VCU` terms).
//!
//! The PSP framework estimates the purchase price per insider attack (`PPIA`) by
//! clustering the prices of defeat devices and tuning services advertised online,
//! and the variable cost per unit (`VCU`) from the bare component price.  This
//! module aggregates price observations (typically produced by
//! `textmine::price::extract_prices` over a social corpus) into those two numbers.

/// A single observed price.
#[derive(Debug)]
pub struct PriceObservation {
    /// The price in EUR.
    pub eur: f64,
    /// Whether the listing is a full service (install included) rather than a bare
    /// component.  Bare-component listings inform `VCU`, full listings inform
    /// `PPIA`.
    pub full_service: bool,
}

impl PriceObservation {
    /// A full-service listing.
    #[must_use]
    pub fn service(eur: f64) -> Self {
        Self {
            eur,
            full_service: true,
        }
    }
}

/// An aggregated pricing study for one insider attack.
#[derive(Debug)]
pub struct PricingStudy {
    observations: Vec<PriceObservation>,
}

impl PricingStudy {
    /// Builds a study from observations.
    #[must_use]
    pub fn from_observations(observations: impl IntoIterator<Item = PriceObservation>) -> Self {
        Self {
            observations: observations.into_iter().collect(),
        }
    }

    /// The purchase price per insider attack: the median of full-service prices,
    /// falling back to the median of all prices.
    #[must_use]
    pub fn ppia(&self) -> Option<f64> {
        let service: Vec<f64> = self
            .observations
            .iter()
            .filter(|o| o.full_service)
            .map(|o| o.eur)
            .collect();
        if !service.is_empty() {
            return median(&service);
        }
        let all: Vec<f64> = self.observations.iter().map(|o| o.eur).collect();
        median(&all)
    }

    /// The variable cost per unit: the median of bare-component prices, falling back
    /// to a configurable fraction (default 1/7, roughly the paper's 50-out-of-360
    /// split between component cost and street price) of the PPIA.
    #[must_use]
    pub fn vcu(&self) -> Option<f64> {
        let components: Vec<f64> = self
            .observations
            .iter()
            .filter(|o| !o.full_service)
            .map(|o| o.eur)
            .collect();
        if !components.is_empty() {
            return median(&components);
        }
        self.ppia().map(|p| p / 7.0)
    }
}

fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn component(eur: f64) -> PriceObservation {
        PriceObservation {
            eur,
            full_service: false,
        }
    }

    #[test]
    fn ppia_prefers_full_service_listings() {
        let study = PricingStudy::from_observations([
            PriceObservation::service(360.0),
            PriceObservation::service(380.0),
            PriceObservation::service(340.0),
            component(55.0),
        ]);
        assert_eq!(study.ppia(), Some(360.0));
        assert_eq!(study.vcu(), Some(55.0));
    }

    #[test]
    fn fallback_when_only_unlabelled_prices_exist() {
        let study = PricingStudy::from_observations([component(100.0), component(140.0)]);
        assert_eq!(study.ppia(), Some(120.0));
        assert_eq!(study.vcu(), Some(120.0));
    }

    #[test]
    fn vcu_fallback_is_a_fraction_of_ppia() {
        let study = PricingStudy::from_observations([PriceObservation::service(350.0)]);
        let vcu = study.vcu().unwrap();
        assert!((vcu - 50.0).abs() < 1.0);
    }

    #[test]
    fn empty_study_yields_none() {
        let study = PricingStudy::from_observations(std::iter::empty());
        assert_eq!(study.ppia(), None);
        assert_eq!(study.vcu(), None);
    }
}
