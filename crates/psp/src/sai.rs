//! The Social Attraction Index (paper Figure 7, blocks 2, 6 and 7).
//!
//! For every keyword in the attack-keyword database, the PSP NLP component queries
//! the social corpus (target application + region + optional time window),
//! aggregates views, interactions and post counts, adds the text-mined intent
//! score, and produces a sorted SAI list.  Each entry also carries an attack
//! probability estimation: its share of the total SAI mass.

use crate::classify::AttackOrigin;
use crate::config::PspConfig;
use crate::keyword_db::KeywordDatabase;
use serde::{Deserialize, Serialize};
use socialsim::corpus::Corpus;
use socialsim::Post;
use textmine::pipeline::TextPipeline;
use vehicle::attack_surface::AttackVector;

/// One entry of the SAI list: the social evidence attached to one attack keyword.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaiEntry {
    /// The keyword the evidence was collected for.
    pub keyword: String,
    /// The threat-scenario identifier the keyword belongs to.
    pub scenario: String,
    /// The attack vector of the discussed technique.
    pub vector: AttackVector,
    /// Insider or outsider attack.
    pub origin: AttackOrigin,
    /// Number of matching posts.
    pub posts: usize,
    /// Total views over the matching posts.
    pub views: u64,
    /// Total interactions over the matching posts.
    pub interactions: u64,
    /// Summed text-mined intent score.
    pub intent: f64,
    /// Prices mined from the matching posts (EUR).
    pub prices: Vec<f64>,
    /// The Social Attraction Index score.
    pub sai: f64,
    /// The attack-probability estimation: this entry's share of the total SAI mass
    /// (0 when the whole list is empty).
    pub probability: f64,
}

/// The sorted SAI list.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SaiList {
    entries: Vec<SaiEntry>,
}

impl SaiList {
    /// Computes the SAI list for a corpus, keyword database and configuration.
    ///
    /// This is the one-shot convenience entry point: it indexes the borrowed
    /// corpus in a throwaway engine core (no corpus copy) and runs one
    /// indexed pass.  Callers issuing repeated computations against the same
    /// corpus (workflows, window sweeps, monitoring) should build a
    /// [`LiveEngine`](crate::engine::LiveEngine) once and call
    /// [`LiveEngine::sai_list`](crate::engine::LiveEngine::sai_list) directly.
    #[must_use]
    pub fn compute(corpus: &Corpus, db: &KeywordDatabase, config: &PspConfig) -> Self {
        crate::engine::sai_list_once(corpus, db, config)
    }

    /// The naive O(keywords × posts) reference implementation: a linear corpus
    /// scan plus a full text-pipeline run per keyword profile.  Kept as the
    /// behavioural oracle for the engine (property tests assert the indexed
    /// path returns identical results) and as the baseline of the
    /// `engine_scaling` bench.
    #[must_use]
    pub fn compute_naive(corpus: &Corpus, db: &KeywordDatabase, config: &PspConfig) -> Self {
        let pipeline = TextPipeline::new();
        let weights = config.sai_weights;
        let mut entries = Vec::new();

        for profile in db.iter() {
            // Same query construction as the indexed path, by construction.
            let query = crate::engine::profile_query(profile, config);
            let hits: Vec<&Post> = corpus
                .search(&query)
                .into_iter()
                .filter(|post| match config.min_author_credibility {
                    Some(threshold) => {
                        post.author().credibility() >= threshold
                            || post.engagement().interaction_rate() > 0.01
                    }
                    None => true,
                })
                .collect();

            let posts = hits.len();
            let views: u64 = hits.iter().map(|p| p.engagement().views).sum();
            let interactions: u64 = hits.iter().map(|p| p.engagement().interactions()).sum();
            let mut intent = 0.0;
            let mut prices = Vec::new();
            for post in &hits {
                let analysis = pipeline.analyze(post.text());
                intent += analysis.intent.score;
                prices.extend(analysis.prices);
            }
            let sai = weights.view_weight * views as f64
                + weights.interaction_weight * interactions as f64
                + weights.post_weight * posts as f64
                + weights.intent_weight * intent;

            entries.push(SaiEntry {
                keyword: profile.keyword.clone(),
                scenario: profile.scenario.clone(),
                vector: profile.vector,
                origin: profile.origin,
                posts,
                views,
                interactions,
                intent,
                prices,
                sai,
                probability: 0.0,
            });
        }

        Self::from_entries(entries)
    }

    /// Finalises a list from raw (unnormalised) entries: estimates each entry's
    /// attack probability as its share of the total SAI mass and sorts by
    /// descending SAI (keyword as tie-break).  Entries must be given in
    /// keyword-database order so the probability normalisation folds the same
    /// float sum regardless of which path produced them.
    #[must_use]
    pub(crate) fn from_entries(mut entries: Vec<SaiEntry>) -> Self {
        let total: f64 = entries.iter().map(|e| e.sai).sum();
        if total > 0.0 {
            for entry in &mut entries {
                entry.probability = entry.sai / total;
            }
        }
        entries.sort_by(|a, b| {
            b.sai
                .partial_cmp(&a.sai)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.keyword.cmp(&b.keyword))
        });
        Self { entries }
    }

    /// The entries, sorted by descending SAI.
    #[must_use]
    pub fn entries(&self) -> &[SaiEntry] {
        &self.entries
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for one keyword.
    #[must_use]
    pub fn entry(&self, keyword: &str) -> Option<&SaiEntry> {
        self.entries.iter().find(|e| e.keyword == keyword)
    }

    /// The top entry (highest SAI), if any.
    #[must_use]
    pub fn top(&self) -> Option<&SaiEntry> {
        self.entries.first()
    }

    /// Entries belonging to the insider super-category (the only ones PSP re-tunes).
    #[must_use]
    pub fn insider_entries(&self) -> Vec<&SaiEntry> {
        self.entries
            .iter()
            .filter(|e| e.origin == AttackOrigin::Insider)
            .collect()
    }

    /// Entries belonging to the outsider super-category.
    #[must_use]
    pub fn outsider_entries(&self) -> Vec<&SaiEntry> {
        self.entries
            .iter()
            .filter(|e| e.origin == AttackOrigin::Outsider)
            .collect()
    }

    /// Entries attached to one threat scenario, sorted by descending SAI.
    #[must_use]
    pub fn scenario_entries(&self, scenario: &str) -> Vec<&SaiEntry> {
        self.entries
            .iter()
            .filter(|e| e.scenario == scenario)
            .collect()
    }

    /// The aggregated SAI per scenario, sorted descending — the ranking of paper
    /// Figure 12.
    #[must_use]
    pub fn scenario_ranking(&self) -> Vec<(String, f64)> {
        let mut totals: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
        for entry in &self.entries {
            *totals.entry(entry.scenario.clone()).or_insert(0.0) += entry.sai;
        }
        let mut out: Vec<_> = totals.into_iter().collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out
    }

    /// The SAI mass per attack vector for one scenario, normalised to sum to 1
    /// (0-mass vectors are included).  This is the corrective-factor input of the
    /// weight generator.
    #[must_use]
    pub fn vector_shares(&self, scenario: &str) -> Vec<(AttackVector, f64)> {
        let entries = self.scenario_entries(scenario);
        let total: f64 = entries.iter().map(|e| e.sai).sum();
        AttackVector::ALL
            .iter()
            .map(|vector| {
                let mass: f64 = entries
                    .iter()
                    .filter(|e| e.vector == *vector)
                    .map(|e| e.sai)
                    .sum();
                let share = if total > 0.0 { mass / total } else { 0.0 };
                (*vector, share)
            })
            .collect()
    }

    /// All prices mined for one scenario (used by the PPIA estimation).
    #[must_use]
    pub fn scenario_prices(&self, scenario: &str) -> Vec<f64> {
        self.scenario_entries(scenario)
            .iter()
            .flat_map(|e| e.prices.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialsim::scenario;
    use socialsim::time::DateWindow;

    fn excavator_sai() -> SaiList {
        let corpus = scenario::excavator_europe(42);
        SaiList::compute(
            &corpus,
            &KeywordDatabase::excavator_seed(),
            &PspConfig::excavator_europe(),
        )
    }

    #[test]
    fn probabilities_sum_to_one() {
        let sai = excavator_sai();
        let total: f64 = sai.entries().iter().map(|e| e.probability).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn list_is_sorted_by_descending_sai() {
        let sai = excavator_sai();
        for pair in sai.entries().windows(2) {
            assert!(pair[0].sai >= pair[1].sai);
        }
    }

    #[test]
    fn dpf_delete_tops_the_excavator_ranking() {
        // Paper Figure 12: "disabling the DPF is the insider attack with the
        // highest score".
        let sai = excavator_sai();
        assert_eq!(sai.top().unwrap().scenario, "dpf-tampering");
        let ranking = sai.scenario_ranking();
        assert_eq!(ranking[0].0, "dpf-tampering");
    }

    #[test]
    fn excavator_entries_are_all_insider() {
        let sai = excavator_sai();
        assert_eq!(sai.outsider_entries().len(), 0);
        assert_eq!(sai.insider_entries().len(), sai.len());
    }

    #[test]
    fn passenger_scene_splits_insider_and_outsider() {
        let corpus = scenario::passenger_car_europe(42);
        let sai = SaiList::compute(
            &corpus,
            &KeywordDatabase::passenger_car_seed(),
            &PspConfig::passenger_car_europe(),
        );
        assert!(!sai.insider_entries().is_empty());
        assert!(!sai.outsider_entries().is_empty());
    }

    #[test]
    fn vector_shares_sum_to_one_for_active_scenarios() {
        let corpus = scenario::passenger_car_europe(42);
        let sai = SaiList::compute(
            &corpus,
            &KeywordDatabase::passenger_car_seed(),
            &PspConfig::passenger_car_europe(),
        );
        let shares = sai.vector_shares("ecm-reprogramming");
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(shares.len(), 4);
    }

    #[test]
    fn time_window_changes_the_evidence() {
        let corpus = scenario::passenger_car_europe(42);
        let db = KeywordDatabase::passenger_car_seed();
        let all_time = SaiList::compute(&corpus, &db, &PspConfig::passenger_car_europe());
        let recent = SaiList::compute(
            &corpus,
            &db,
            &PspConfig::passenger_car_europe().with_window(DateWindow::years(2021, 2023)),
        );
        let bench_all = all_time.entry("benchflash").unwrap().posts;
        let bench_recent = recent.entry("benchflash").unwrap().posts;
        assert!(bench_recent < bench_all);
    }

    #[test]
    fn prices_are_collected_for_commercial_topics() {
        let sai = excavator_sai();
        let prices = sai.scenario_prices("dpf-tampering");
        assert!(!prices.is_empty());
        let median = textmine::price::representative_price(&prices).unwrap();
        assert!((250.0..=480.0).contains(&median), "median {median}");
    }

    #[test]
    fn unknown_scenario_has_zero_shares() {
        let sai = excavator_sai();
        let shares = sai.vector_shares("does-not-exist");
        assert!(shares.iter().all(|(_, s)| *s == 0.0));
    }

    #[test]
    fn empty_corpus_gives_zero_probabilities() {
        let corpus = Corpus::new();
        let sai = SaiList::compute(
            &corpus,
            &KeywordDatabase::excavator_seed(),
            &PspConfig::excavator_europe(),
        );
        assert!(sai
            .entries()
            .iter()
            .all(|e| e.sai == 0.0 && e.probability == 0.0));
    }
}
