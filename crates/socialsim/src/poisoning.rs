//! Bot-campaign injection and the credibility-based filter.
//!
//! The paper's future-work section plans "a filtering strategy for messages to
//! ensure we process only authentic posts and prevent attackers from poisoning the
//! data".  This module provides both sides of that experiment: a way to *inject* a
//! coordinated bot campaign into a corpus, and a simple credibility filter the PSP
//! pipeline can enable, together with precision/recall accounting against the
//! generator's ground truth.

use crate::corpus::Corpus;
use crate::engagement::Engagement;
use crate::hashtag::Hashtag;
use crate::post::{Post, Region, TargetApplication};
use crate::time::SimDate;
use crate::user::User;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A coordinated campaign of low-credibility accounts pushing one hashtag.
#[derive(Debug)]
pub struct BotCampaign {
    /// The hashtag the campaign amplifies.
    pub hashtag: String,
    /// Number of bot posts to inject.
    pub posts: u32,
    /// Year in which the campaign runs.
    pub year: i32,
    /// Views faked per post (bot farms buy impressions, not conversations).
    pub faked_views: u64,
    /// Region the campaign pretends to post from.
    pub region: Region,
    /// Application the campaign talks about.
    pub application: TargetApplication,
}

impl BotCampaign {
    /// Creates a campaign with sensible defaults (high faked views, Europe).
    #[must_use]
    pub fn new(hashtag: impl Into<String>, posts: u32, year: i32) -> Self {
        Self {
            hashtag: hashtag.into(),
            posts,
            year,
            faked_views: 50_000,
            region: Region::Europe,
            application: TargetApplication::Excavator,
        }
    }

    /// Overrides the scene metadata.
    #[must_use]
    pub fn targeting(mut self, region: Region, application: TargetApplication) -> Self {
        self.region = region;
        self.application = application;
        self
    }

    /// Injects the campaign into a corpus, returning the number of posts added.
    pub fn inject(&self, corpus: &mut Corpus, seed: u64) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let base_id = corpus.len() as u64 + 1_000_000;
        for i in 0..self.posts {
            let author = User::bot(format!("promo_{}_{i}", rng.gen_range(0..100_000)));
            let date = SimDate::new(self.year, rng.gen_range(1..=12), rng.gen_range(1..=28));
            let text = format!(
                "BEST PRICE #{tag} kit!!! dm now, worldwide shipping #deal #sale",
                tag = self.hashtag
            );
            let engagement = Engagement::new(self.faked_views, rng.gen_range(0..3), 0, 0);
            corpus.push(Post::new(
                base_id + u64::from(i),
                author,
                text,
                vec![Hashtag::new(&self.hashtag)],
                date,
                self.region,
                self.application,
                engagement,
            ));
        }
        self.posts as usize
    }
}

/// Outcome of applying the credibility filter to a corpus.
#[derive(Debug, Clone, Copy)]
pub struct FilterOutcome {
    /// Posts kept by the filter.
    pub kept: usize,
    /// Posts removed by the filter.
    pub removed: usize,
    /// Removed posts that were actually bot posts (true positives).
    pub true_positives: usize,
    /// Removed posts that were organic (false positives).
    pub false_positives: usize,
    /// Bot posts that slipped through (false negatives).
    pub false_negatives: usize,
}

impl FilterOutcome {
    /// Precision of the bot removal (1.0 when nothing was removed).
    #[must_use]
    pub fn precision(&self) -> f64 {
        if self.removed == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.removed as f64
        }
    }

    /// Recall of the bot removal (1.0 when there were no bots).
    #[must_use]
    pub fn recall(&self) -> f64 {
        let bots = self.true_positives + self.false_negatives;
        if bots == 0 {
            1.0
        } else {
            self.true_positives as f64 / bots as f64
        }
    }
}

/// Filters a corpus by author credibility and an interaction-rate sanity check:
/// a post survives if its author's credibility is at least `min_credibility` or the
/// post shows organic engagement (interaction rate above 1%).  Returns the filtered
/// corpus and the accounting against ground truth.
#[must_use]
pub fn filter_by_credibility(corpus: &Corpus, min_credibility: f64) -> (Corpus, FilterOutcome) {
    let mut kept = Corpus::new();
    let mut outcome = FilterOutcome {
        kept: 0,
        removed: 0,
        true_positives: 0,
        false_positives: 0,
        false_negatives: 0,
    };
    for post in corpus.iter() {
        let credible = post.author().credibility() >= min_credibility;
        let organic_engagement = post.engagement().interaction_rate() > 0.01;
        let keep = credible || organic_engagement;
        if keep {
            if post.author().is_bot() {
                outcome.false_negatives += 1;
            }
            outcome.kept += 1;
            kept.push(post.clone());
        } else {
            outcome.removed += 1;
            if post.author().is_bot() {
                outcome.true_positives += 1;
            } else {
                outcome.false_positives += 1;
            }
        }
    }
    (kept, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CorpusGenerator;
    use crate::query::Query;
    use crate::trend::{TopicTrend, TrendModel};

    fn organic_corpus() -> Corpus {
        let model = TrendModel::new(TargetApplication::Excavator, Region::Europe).topic(
            TopicTrend::new("dpf-delete")
                .with_hashtag("dpfdelete")
                .volume_range(2020, 2022, 40)
                .engagement(2_000, 80),
        );
        CorpusGenerator::new(99).generate(&model)
    }

    #[test]
    fn injection_adds_the_requested_posts() {
        let mut corpus = organic_corpus();
        let before = corpus.len();
        let added = BotCampaign::new("egrdelete", 25, 2022).inject(&mut corpus, 1);
        assert_eq!(added, 25);
        assert_eq!(corpus.len(), before + 25);
        assert_eq!(
            corpus
                .search(&Query::new().with_hashtag("#egrdelete"))
                .len(),
            25
        );
    }

    #[test]
    fn campaign_posts_have_bot_authors_and_inflated_views() {
        let mut corpus = Corpus::new();
        BotCampaign::new("dpfdelete", 5, 2023).inject(&mut corpus, 2);
        for post in corpus.iter() {
            assert!(post.author().is_bot());
            assert!(post.engagement().views >= 50_000);
            assert!(post.engagement().interaction_rate() < 0.01);
        }
    }

    #[test]
    fn filter_removes_most_bots_and_keeps_most_organics() {
        let mut corpus = organic_corpus();
        let organic = corpus.len();
        BotCampaign::new("dpfdelete", 60, 2022).inject(&mut corpus, 3);
        let (filtered, outcome) = filter_by_credibility(&corpus, 0.25);
        assert!(outcome.recall() > 0.9, "recall {}", outcome.recall());
        assert!(
            outcome.precision() > 0.7,
            "precision {}",
            outcome.precision()
        );
        assert!(filtered.len() >= organic / 2);
    }

    #[test]
    fn filter_on_clean_corpus_has_perfect_recall() {
        let corpus = organic_corpus();
        let (_, outcome) = filter_by_credibility(&corpus, 0.25);
        assert_eq!(outcome.recall(), 1.0);
        assert_eq!(outcome.true_positives, 0);
    }

    #[test]
    fn zero_threshold_keeps_everything() {
        let mut corpus = organic_corpus();
        BotCampaign::new("dpfdelete", 10, 2022).inject(&mut corpus, 4);
        let (filtered, outcome) = filter_by_credibility(&corpus, 0.0);
        assert_eq!(filtered.len(), corpus.len());
        assert_eq!(outcome.removed, 0);
        assert_eq!(outcome.precision(), 1.0);
    }

    #[test]
    fn targeting_overrides_scene() {
        let campaign = BotCampaign::new("x", 1, 2022)
            .targeting(Region::NorthAmerica, TargetApplication::PassengerCar);
        let mut corpus = Corpus::new();
        campaign.inject(&mut corpus, 5);
        let post = corpus.post(0);
        assert_eq!(post.region(), Region::NorthAmerica);
        assert_eq!(post.application(), TargetApplication::PassengerCar);
    }
}
