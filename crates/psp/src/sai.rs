//! The Social Attraction Index (paper Figure 7, blocks 2, 6 and 7).
//!
//! For every keyword in the attack-keyword database, the PSP NLP component queries
//! the social corpus (target application + region + optional time window),
//! aggregates views, interactions and post counts, adds the text-mined intent
//! score, and produces a sorted SAI list.  Each entry also carries an attack
//! probability estimation: its share of the total SAI mass.

use crate::classify::AttackOrigin;
use crate::config::{PspConfig, SaiWeights};
use crate::keyword_db::{KeywordDatabase, KeywordProfile};
use serde::{Deserialize, Serialize};
use socialsim::corpus::Corpus;
use socialsim::Post;
use textmine::pipeline::TextPipeline;
use vehicle::attack_surface::AttackVector;

/// The mergeable partial evidence one corpus shard contributes to one keyword
/// profile — the shard-side half of the sharded scoring engine
/// ([`crate::engine::ShardedEngine`]).
///
/// Two kinds of evidence travel differently:
///
/// * **exact integer evidence** (post / view / interaction counts) is carried
///   as plain sums — integer addition is associative, so per-shard sums merge
///   losslessly in any order;
/// * **order-sensitive evidence** (the intent score fold, the mined price
///   stream) is carried at *per-post* granularity keyed by global post id,
///   because float addition is not associative (`(a + b) + c != a + (b + c)`
///   in general) and price lists are order-dependent.  The merge re-folds the
///   per-post values in ascending global id order — exactly the order the
///   single-engine fold uses — which is what makes the merged list
///   bit-identical to the unsharded result rather than merely close.
///
/// Within one partial the ids are strictly ascending, and partials from
/// different shards of the same corpus never share an id (the partition is
/// disjoint), so the merge is a k-way merge of disjoint sorted streams.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SaiPartial {
    /// Number of matching (credibility-passing) posts.
    pub(crate) posts: usize,
    /// Summed views over the matching posts.
    pub(crate) views: u64,
    /// Summed interactions over the matching posts.
    pub(crate) interactions: u64,
    /// Global ids of the matching posts, strictly ascending.
    pub(crate) ids: Vec<u32>,
    /// Per-post intent scores, aligned with `ids`.
    pub(crate) intents: Vec<f64>,
    /// Number of mined prices per post, aligned with `ids`.
    pub(crate) price_counts: Vec<u32>,
    /// Mined prices, flattened in id order.
    pub(crate) prices: Vec<f64>,
}

impl SaiPartial {
    /// Folds one matching post's evidence into the partial.  Posts must be
    /// pushed in ascending global-id order (the engine feeds them straight
    /// from an ascending index query).
    pub(crate) fn push_post(
        &mut self,
        global_id: u32,
        views: u64,
        interactions: u64,
        intent: f64,
        prices: &[f64],
    ) {
        debug_assert!(
            self.ids.last().is_none_or(|last| *last < global_id),
            "shard partial fed out of order: {global_id} after {:?}",
            self.ids.last()
        );
        self.posts += 1;
        self.views += views;
        self.interactions += interactions;
        self.ids.push(global_id);
        self.intents.push(intent);
        self.price_counts.push(prices.len() as u32);
        self.prices.extend_from_slice(prices);
    }
}

/// Merges one profile's partials from every shard into a raw (unnormalised)
/// [`SaiEntry`]: integer sums are added, while the intent fold and the price
/// stream are re-folded in ascending global post id order via a k-way merge of
/// the disjoint per-shard id streams — reproducing the exact fold order (and
/// therefore the exact bits) of the single-engine aggregation.
fn merge_profile(
    profile: &KeywordProfile,
    shards: &[&SaiPartial],
    weights: SaiWeights,
) -> SaiEntry {
    let posts: usize = shards.iter().map(|p| p.posts).sum();
    let views: u64 = shards.iter().map(|p| p.views).sum();
    let interactions: u64 = shards.iter().map(|p| p.interactions).sum();

    // Only shards that matched anything take part in the k-way merge.
    let active: Vec<&SaiPartial> = shards
        .iter()
        .copied()
        .filter(|p| !p.ids.is_empty())
        .collect();
    let matched: usize = active.iter().map(|p| p.ids.len()).sum();
    let mut intent = 0.0_f64;
    let mut prices = Vec::with_capacity(active.iter().map(|p| p.prices.len()).sum());
    let mut next = vec![0_usize; active.len()];
    let mut price_offset = vec![0_usize; active.len()];
    for _ in 0..matched {
        // Pick the stream whose current head has the smallest global id; the
        // streams are disjoint, so the minimum is unique.
        let mut best: Option<usize> = None;
        for (shard, partial) in active.iter().enumerate() {
            if next[shard] < partial.ids.len()
                && best.is_none_or(|b: usize| partial.ids[next[shard]] < active[b].ids[next[b]])
            {
                best = Some(shard);
            }
        }
        let shard = best.expect("k-way merge exhausted early");
        let at = next[shard];
        intent += active[shard].intents[at];
        let count = active[shard].price_counts[at] as usize;
        let from = price_offset[shard];
        prices.extend_from_slice(&active[shard].prices[from..from + count]);
        next[shard] = at + 1;
        price_offset[shard] = from + count;
    }

    let sai = weights.view_weight * views as f64
        + weights.interaction_weight * interactions as f64
        + weights.post_weight * posts as f64
        + weights.intent_weight * intent;

    SaiEntry {
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
    }
}

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

    /// Merges per-shard partial evidence into the finished SAI list — the
    /// merge step of the sharded engine.
    ///
    /// `per_shard[s][p]` is shard `s`'s [`SaiPartial`] for the `p`-th profile
    /// of `db` (every inner vector must cover all profiles, in database
    /// order).  Counts and integer sums are added across shards, the
    /// order-sensitive evidence is re-folded in ascending global post id order
    /// ([`merge_profile`]), and only then does the usual normalisation
    /// (probability shares, sorting) run — once, over the merged raw entries,
    /// never per shard.  Merging *before* normalisation is what keeps the
    /// result bit-identical to the single-engine path: probabilities are
    /// ratios of the merged totals, not averages of per-shard ratios.
    pub(crate) fn from_shard_partials(
        db: &KeywordDatabase,
        config: &PspConfig,
        per_shard: &[Vec<SaiPartial>],
    ) -> Self {
        let weights = config.sai_weights;
        let entries: Vec<SaiEntry> = db
            .iter()
            .enumerate()
            .map(|(p, profile)| {
                let shards: Vec<&SaiPartial> = per_shard.iter().map(|row| &row[p]).collect();
                merge_profile(profile, &shards, weights)
            })
            .collect();
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
