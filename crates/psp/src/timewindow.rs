//! Time-window analysis and trend-inversion detection (paper Figure 9-B vs 9-C).
//!
//! "The social sentiment analysis time window plays a crucial role in the PSP
//! framework's analysis. […] The trend inversion highlighted by PSP began last year
//! […] reprogramming via a physical attack is no longer mainstream, and attackers
//! are more likely to opt for a local attack via OBD."

use crate::config::PspConfig;
use crate::engine::WindowAxis;
use crate::keyword_db::KeywordDatabase;
use crate::weights::WeightGenerator;
use iso21434::feasibility::attack_vector::AttackVectorTable;
use serde::{Deserialize, Serialize};
use socialsim::corpus::Corpus;
use socialsim::time::DateWindow;
use vehicle::attack_surface::AttackVector;

/// The comparison of one scenario across two analysis windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowComparison {
    /// The scenario analysed.
    pub scenario: String,
    /// The window used for the "historical" run (None = full history).
    pub baseline_window: Option<DateWindow>,
    /// The window used for the "recent" run.
    pub recent_window: DateWindow,
    /// Vector shares in the baseline run.
    pub baseline_shares: Vec<(AttackVector, f64)>,
    /// Vector shares in the recent run.
    pub recent_shares: Vec<(AttackVector, f64)>,
    /// The insider table generated from the baseline run (Figure 9-B).
    pub baseline_table: AttackVectorTable,
    /// The insider table generated from the recent run (Figure 9-C).
    pub recent_table: AttackVectorTable,
}

impl WindowComparison {
    /// The dominant vector (largest share) of the baseline run.
    #[must_use]
    pub fn baseline_dominant(&self) -> AttackVector {
        dominant(&self.baseline_shares)
    }

    /// The dominant vector of the recent run.
    #[must_use]
    pub fn recent_dominant(&self) -> AttackVector {
        dominant(&self.recent_shares)
    }

    /// Whether the two windows disagree on the dominant vector — the trend
    /// inversion the paper highlights.
    #[must_use]
    pub fn trend_inverted(&self) -> bool {
        self.baseline_dominant() != self.recent_dominant()
    }
}

fn dominant(shares: &[(AttackVector, f64)]) -> AttackVector {
    shares
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(v, _)| *v)
        .unwrap_or(AttackVector::Physical)
}

/// Runs the same analysis over two windows and compares them.
#[must_use]
pub fn compare_windows(
    corpus: &Corpus,
    db: &KeywordDatabase,
    base_config: &PspConfig,
    scenario: &str,
    recent_window: DateWindow,
) -> WindowComparison {
    // Both windows are answered through one sweep plan over the borrowed
    // corpus: it is indexed once and the (window-invariant) candidate columns
    // are projected once, then each window resolves against them.
    let lists = crate::engine::sai_windows_once(
        corpus,
        db,
        base_config,
        &WindowAxis::spans(&[base_config.window, Some(recent_window)]),
    );
    let generator = WeightGenerator::new();
    let mut lists = lists.into_iter();
    let baseline_sai = lists.next().expect("baseline window scored");
    let recent_sai = lists.next().expect("recent window scored");

    WindowComparison {
        scenario: scenario.to_string(),
        baseline_window: base_config.window,
        recent_window,
        baseline_shares: baseline_sai.vector_shares(scenario),
        recent_shares: recent_sai.vector_shares(scenario),
        baseline_table: generator.insider_table(&baseline_sai, scenario),
        recent_table: generator.insider_table(&recent_sai, scenario),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{LiveEngine, SaiScorer};
    use iso21434::feasibility::AttackFeasibilityRating;
    use socialsim::scenario;

    fn comparison() -> WindowComparison {
        let corpus = scenario::passenger_car_europe(42);
        compare_windows(
            &corpus,
            &KeywordDatabase::passenger_car_seed(),
            &PspConfig::passenger_car_europe(),
            "ecm-reprogramming",
            DateWindow::years(2021, 2023),
        )
    }

    #[test]
    fn paper_figure_9_trend_inversion_is_detected() {
        let cmp = comparison();
        assert_eq!(cmp.baseline_dominant(), AttackVector::Physical);
        assert_eq!(cmp.recent_dominant(), AttackVector::Local);
        assert!(cmp.trend_inverted());
    }

    #[test]
    fn tables_reflect_the_inversion() {
        let cmp = comparison();
        assert_eq!(
            cmp.baseline_table.rating(AttackVector::Physical),
            AttackFeasibilityRating::High
        );
        assert_eq!(
            cmp.recent_table.rating(AttackVector::Local),
            AttackFeasibilityRating::High
        );
        assert!(!cmp.baseline_table.same_ratings_as(&cmp.recent_table));
    }

    #[test]
    fn stable_scenarios_do_not_invert() {
        let corpus = scenario::passenger_car_europe(42);
        let cmp = compare_windows(
            &corpus,
            &KeywordDatabase::passenger_car_seed(),
            &PspConfig::passenger_car_europe(),
            "emission-defeat",
            DateWindow::years(2021, 2023),
        );
        assert!(
            !cmp.trend_inverted(),
            "emission defeat stays Local in both windows"
        );
    }

    #[test]
    fn shares_are_kept_for_both_windows() {
        let cmp = comparison();
        assert_eq!(cmp.baseline_shares.len(), 4);
        assert_eq!(cmp.recent_shares.len(), 4);
        let recent_total: f64 = cmp.recent_shares.iter().map(|(_, s)| s).sum();
        assert!((recent_total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn serde_round_trip() {
        let cmp = comparison();
        let json = serde_json::to_string(&cmp).unwrap();
        assert_eq!(
            cmp,
            serde_json::from_str::<WindowComparison>(&json).unwrap()
        );
    }

    #[test]
    fn live_comparison_matches_the_snapshot_comparison() {
        let corpus = scenario::passenger_car_europe(42);
        let posts = corpus.posts().to_vec();
        let mut engine = LiveEngine::new(socialsim::corpus::Corpus::new());
        for chunk in posts.chunks(113) {
            engine.ingest(chunk.to_vec());
        }
        let config = PspConfig::passenger_car_europe();
        let lists = engine.sai_windows(
            &KeywordDatabase::passenger_car_seed(),
            &config,
            &WindowAxis::spans(&[config.window, Some(DateWindow::years(2021, 2023))]),
        );
        let snapshot = comparison();
        let shares: Vec<_> = lists
            .iter()
            .map(|sai| sai.vector_shares("ecm-reprogramming"))
            .collect();
        assert_eq!(shares, [snapshot.baseline_shares, snapshot.recent_shares]);
        let recent_table = WeightGenerator::new().insider_table(&lists[1], "ecm-reprogramming");
        assert_eq!(recent_table, snapshot.recent_table);
    }
}
