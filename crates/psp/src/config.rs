//! PSP configuration (paper Figure 7, block 1: target application input).

use serde::Serialize;
use socialsim::post::{Region, TargetApplication};
use socialsim::time::DateWindow;

/// Weights used when combining post evidence into a Social Attraction Index score.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SaiWeights {
    /// Weight of one view.
    pub view_weight: f64,
    /// Weight of one interaction (like, reply, repost).
    pub interaction_weight: f64,
    /// Weight of one matching post (presence signal independent of reach).
    pub post_weight: f64,
    /// Weight of the text-mined intent score.
    pub intent_weight: f64,
}

impl Default for SaiWeights {
    fn default() -> Self {
        Self {
            view_weight: 0.01,
            interaction_weight: 1.0,
            post_weight: 5.0,
            intent_weight: 2.0,
        }
    }
}

impl SaiWeights {
    /// Weights that only count raw audience size (used by the SAI ablation bench).
    #[must_use]
    pub fn views_only() -> Self {
        Self {
            view_weight: 1.0,
            interaction_weight: 0.0,
            post_weight: 0.0,
            intent_weight: 0.0,
        }
    }

    /// Weights that only count active engagement.
    #[must_use]
    pub fn interactions_only() -> Self {
        Self {
            view_weight: 0.0,
            interaction_weight: 1.0,
            post_weight: 0.0,
            intent_weight: 0.0,
        }
    }
}

/// The full PSP configuration.
#[derive(Debug, Clone, Serialize)]
pub struct PspConfig {
    /// The target application (cars, trucks, agriculture machines, …).
    pub application: TargetApplication,
    /// The region of interest.
    pub region: Region,
    /// Optional analysis time window (None = full history, Figure 9-B;
    /// Some(2021..) = the recent window of Figure 9-C).
    pub window: Option<DateWindow>,
    /// SAI scoring weights.
    pub sai_weights: SaiWeights,
    /// Whether the keyword auto-learning step (Figure 7, block 5) runs.
    pub keyword_learning: bool,
    /// Minimum co-occurrence support for a learned keyword.
    pub learning_min_support: usize,
    /// Minimum author credibility for a post to be counted; `None` disables the
    /// poisoning filter.
    pub min_author_credibility: Option<f64>,
}

impl PspConfig {
    /// A configuration for the given scene with default weights, learning enabled
    /// and no poisoning filter.
    #[must_use]
    pub fn new(application: TargetApplication, region: Region) -> Self {
        Self {
            application,
            region,
            window: None,
            sai_weights: SaiWeights::default(),
            keyword_learning: true,
            learning_min_support: 3,
            min_author_credibility: None,
        }
    }

    /// The passenger-car / Europe scene of the ECM-reprogramming case study.
    #[must_use]
    pub fn passenger_car_europe() -> Self {
        Self::new(TargetApplication::PassengerCar, Region::Europe)
    }

    /// The excavator / Europe scene of the financial case study.
    #[must_use]
    pub fn excavator_europe() -> Self {
        Self::new(TargetApplication::Excavator, Region::Europe)
    }

    /// Restricts the analysis to a time window (builder style).
    #[must_use]
    pub fn with_window(mut self, window: DateWindow) -> Self {
        self.window = Some(window);
        self
    }

    /// Overrides the SAI weights.
    #[must_use]
    pub fn with_weights(mut self, weights: SaiWeights) -> Self {
        self.sai_weights = weights;
        self
    }

    /// Enables or disables keyword learning.
    #[must_use]
    pub fn with_learning(mut self, enabled: bool) -> Self {
        self.keyword_learning = enabled;
        self
    }

    /// Enables the poisoning filter with the given credibility threshold.
    #[must_use]
    pub fn with_poisoning_filter(mut self, min_credibility: f64) -> Self {
        self.min_author_credibility = Some(min_credibility);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weights_favour_interactions_over_views() {
        let w = SaiWeights::default();
        assert!(w.interaction_weight > w.view_weight);
        assert!(w.post_weight > 0.0);
    }

    #[test]
    fn scene_presets() {
        let car = PspConfig::passenger_car_europe();
        assert_eq!(car.application, TargetApplication::PassengerCar);
        assert_eq!(car.region, Region::Europe);
        let digger = PspConfig::excavator_europe();
        assert_eq!(digger.application, TargetApplication::Excavator);
    }

    #[test]
    fn builder_methods_compose() {
        let cfg = PspConfig::passenger_car_europe()
            .with_window(DateWindow::years(2021, 2023))
            .with_weights(SaiWeights::views_only())
            .with_learning(false)
            .with_poisoning_filter(0.3);
        assert!(cfg.window.is_some());
        assert_eq!(
            format!("{:?}", cfg.sai_weights),
            format!("{:?}", SaiWeights::views_only())
        );
        assert!(!cfg.keyword_learning);
        assert_eq!(cfg.min_author_credibility, Some(0.3));
    }

    #[test]
    fn ablation_weight_presets_are_degenerate_on_purpose() {
        assert_eq!(SaiWeights::views_only().interaction_weight, 0.0);
        assert_eq!(SaiWeights::interactions_only().view_weight, 0.0);
    }
}
