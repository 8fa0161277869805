//! The end-to-end PSP workflow (paper Figure 7, blocks 1–12).
//!
//! One [`PspWorkflow::run`] call performs, in order:
//!
//! 1. take the target-application input from the configuration (block 1),
//! 2. query the social corpus with the attack-keyword database and compute the
//!    Social Attraction Index list (blocks 2–4, 6),
//! 3. run the keyword auto-learning pass so the next run starts from a richer
//!    database (block 5),
//! 4. estimate attack probabilities and split the list into insider and outsider
//!    entries (blocks 7–9),
//! 5. generate the updated attack-feasibility weight tables: the standard G.9
//!    table for outsider threats, a socially tuned table per insider threat
//!    scenario (blocks 10–12).

use crate::classify::AttackOrigin;
use crate::config::PspConfig;
use crate::engine::LiveEngine;
use crate::keyword_db::KeywordDatabase;
use crate::learning::{learn_keywords, LearningOutcome};
use crate::sai::SaiList;
use crate::weights::{WeightGenerator, WeightMapping};
use iso21434::feasibility::attack_vector::AttackVectorTable;
use serde::{Deserialize, Serialize};
use socialsim::corpus::Corpus;
use std::collections::BTreeMap;

/// The outcome of one PSP run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PspOutcome {
    /// The configuration the run used.
    pub config: PspConfig,
    /// The computed SAI list.
    pub sai: SaiList,
    /// The keyword database after the learning pass.
    pub database: KeywordDatabase,
    /// Keywords learned during this run, with their seed keyword.
    pub learned_keywords: Vec<(String, String)>,
    /// The untouched table applied to outsider threats (Figure 8-A).
    pub outsider_table: AttackVectorTable,
    /// One tuned table per insider threat scenario (Figure 8-B).
    pub insider_tables: BTreeMap<String, AttackVectorTable>,
}

impl PspOutcome {
    /// The tuned table for an insider scenario, if it exists.
    #[must_use]
    pub fn insider_table(&self, scenario: &str) -> Option<&AttackVectorTable> {
        self.insider_tables.get(scenario)
    }

    /// The scenarios for which a tuned table was generated.
    #[must_use]
    pub fn insider_scenarios(&self) -> Vec<&str> {
        self.insider_tables.keys().map(String::as_str).collect()
    }

    /// Number of keywords learned in this run.
    #[must_use]
    pub fn learned_count(&self) -> usize {
        self.learned_keywords.len()
    }
}

/// The PSP workflow runner.
#[derive(Debug, Clone)]
pub struct PspWorkflow {
    config: PspConfig,
    database: KeywordDatabase,
    mapping: WeightMapping,
}

impl PspWorkflow {
    /// Creates a workflow from a configuration and a (seed) keyword database.
    #[must_use]
    pub fn new(config: PspConfig, database: KeywordDatabase) -> Self {
        Self {
            config,
            database,
            mapping: WeightMapping::RankBased,
        }
    }

    /// Overrides the share → rating mapping (used by the ablation bench).
    #[must_use]
    pub fn with_mapping(mut self, mapping: WeightMapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &PspConfig {
        &self.config
    }

    /// Runs the workflow on a corpus.
    ///
    /// Scores the corpus once through a throwaway engine core (the corpus is
    /// borrowed, not copied); callers that run several workflows against the
    /// same corpus should build a [`LiveEngine`] once and call
    /// [`run_with_engine`](Self::run_with_engine).
    #[must_use]
    pub fn run(&self, corpus: &Corpus) -> PspOutcome {
        self.run_scored(corpus, |database| {
            crate::engine::sai_list_once(corpus, database, &self.config)
        })
    }

    /// Runs the workflow against a prebuilt scoring engine (and its corpus).
    #[must_use]
    pub fn run_with_engine(&self, engine: &LiveEngine) -> PspOutcome {
        self.run_scored(engine.corpus(), |database| {
            engine.sai_list(database, &self.config)
        })
    }

    /// The workflow over `corpus`, with `score` computing the SAI list of the
    /// (possibly auto-learned) keyword database under this configuration.
    fn run_scored(
        &self,
        corpus: &Corpus,
        score: impl FnOnce(&KeywordDatabase) -> SaiList,
    ) -> PspOutcome {
        let mut database = self.database.clone();

        // Block 5: keyword auto-learning (before scoring, so newly learned tags
        // contribute evidence to this run as well as future ones).
        let learning = if self.config.keyword_learning {
            learn_keywords(&mut database, corpus, self.config.learning_min_support)
        } else {
            LearningOutcome {
                learned: Vec::new(),
            }
        };

        // Blocks 2, 6, 7: SAI computation with probability estimation, one
        // indexed pass fanned out over keyword profiles.
        let sai = score(&database);

        // Blocks 8–12: insider/outsider split and weight-table generation.
        let generator = WeightGenerator::with_mapping(self.mapping);
        let mut insider_tables = BTreeMap::new();
        let insider_scenarios: std::collections::BTreeSet<String> = database
            .iter()
            .filter(|p| p.origin == AttackOrigin::Insider)
            .map(|p| p.scenario.clone())
            .collect();
        for scenario in insider_scenarios {
            let table = generator.insider_table(&sai, &scenario);
            insider_tables.insert(scenario, table);
        }

        PspOutcome {
            config: self.config.clone(),
            sai,
            database,
            learned_keywords: learning.learned,
            outsider_table: generator.outsider_table(),
            insider_tables,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iso21434::feasibility::AttackFeasibilityRating;
    use socialsim::scenario;
    use socialsim::time::DateWindow;
    use vehicle::attack_surface::AttackVector;

    fn run_passenger(window: Option<DateWindow>) -> PspOutcome {
        let corpus = scenario::passenger_car_europe(42);
        let mut config = PspConfig::passenger_car_europe();
        if let Some(w) = window {
            config = config.with_window(w);
        }
        PspWorkflow::new(config, KeywordDatabase::passenger_car_seed()).run(&corpus)
    }

    #[test]
    fn outcome_contains_tables_for_every_insider_scenario() {
        let outcome = run_passenger(None);
        let scenarios = outcome.insider_scenarios();
        assert!(scenarios.contains(&"ecm-reprogramming"));
        assert!(scenarios.contains(&"emission-defeat"));
        assert!(
            !scenarios.contains(&"vehicle-theft"),
            "outsider scenarios are not tuned"
        );
    }

    #[test]
    fn outsider_table_stays_standard() {
        let outcome = run_passenger(None);
        assert!(outcome
            .outsider_table
            .same_ratings_as(&AttackVectorTable::standard()));
    }

    #[test]
    fn figure_8b_and_9b_all_time_run() {
        let outcome = run_passenger(None);
        let table = outcome.insider_table("ecm-reprogramming").unwrap();
        assert_eq!(
            table.rating(AttackVector::Physical),
            AttackFeasibilityRating::High
        );
    }

    #[test]
    fn figure_9c_recent_window_run() {
        let outcome = run_passenger(Some(DateWindow::years(2021, 2023)));
        let table = outcome.insider_table("ecm-reprogramming").unwrap();
        assert_eq!(
            table.rating(AttackVector::Local),
            AttackFeasibilityRating::High
        );
    }

    #[test]
    fn learning_can_be_disabled() {
        let corpus = scenario::passenger_car_europe(42);
        let outcome = PspWorkflow::new(
            PspConfig::passenger_car_europe().with_learning(false),
            KeywordDatabase::passenger_car_seed(),
        )
        .run(&corpus);
        assert_eq!(outcome.learned_count(), 0);
        assert_eq!(outcome.database.learned_count(), 0);
    }

    #[test]
    fn learning_grows_the_database_when_enabled() {
        let outcome = run_passenger(None);
        assert_eq!(outcome.database.learned_count(), outcome.learned_count());
        // The scene's secondary hashtags (bootmode, ecuclone, stage1, …) are already
        // seeded, so learning may add few or zero keywords; the database must in any
        // case contain at least the seed.
        assert!(outcome.database.len() >= KeywordDatabase::passenger_car_seed().len());
    }

    #[test]
    fn workflow_is_deterministic() {
        let a = run_passenger(None);
        let b = run_passenger(None);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_corpus_still_produces_standard_tables() {
        let outcome = PspWorkflow::new(
            PspConfig::excavator_europe(),
            KeywordDatabase::excavator_seed(),
        )
        .run(&Corpus::new());
        for scenario in outcome.insider_scenarios() {
            assert!(outcome
                .insider_table(scenario)
                .unwrap()
                .same_ratings_as(&AttackVectorTable::standard()));
        }
    }

    #[test]
    fn mapping_override_is_used() {
        let corpus = scenario::passenger_car_europe(42);
        let rank = PspWorkflow::new(
            PspConfig::passenger_car_europe(),
            KeywordDatabase::passenger_car_seed(),
        )
        .run(&corpus);
        let prop = PspWorkflow::new(
            PspConfig::passenger_car_europe(),
            KeywordDatabase::passenger_car_seed(),
        )
        .with_mapping(WeightMapping::Proportional)
        .run(&corpus);
        let rank_table = rank.insider_table("emission-defeat").unwrap();
        let prop_table = prop.insider_table("emission-defeat").unwrap();
        assert!(!rank_table.same_ratings_as(prop_table));
    }
}
