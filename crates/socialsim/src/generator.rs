//! The seedable corpus generator.
//!
//! Turns a [`TrendModel`] into a concrete [`Corpus`]: for every topic and every
//! active year it synthesises the configured number of posts, drawing engagement
//! figures, posting dates, author properties and text from the topic's profile.
//! Everything is driven by a caller-supplied seed, so every experiment in the bench
//! harness is exactly reproducible.

use crate::corpus::Corpus;
use crate::engagement::Engagement;
use crate::hashtag::Hashtag;
use crate::post::Post;
use crate::time::SimDate;
use crate::trend::{TopicTrend, TrendModel};
use crate::user::User;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Text templates used to synthesise post bodies.  `{tag}` is replaced with the
/// topic hashtag and `{price}` with an advertised price when the topic has one.
const TEMPLATES: [&str; 8] = [
    "finally got the {tag} done, night and day difference",
    "anyone recommend a shop for {tag}? quotes welcome",
    "{tag} kit for sale, plug and play, {price} EUR shipped",
    "before/after dyno numbers with {tag}, unreal torque",
    "dealer refused warranty after they found the {tag}",
    "step by step {tag} guide in the comments",
    "is {tag} legal for off-road use only? asking for a friend",
    "my {tag} install took 40 minutes with the obd cable",
];

/// A deterministic corpus generator.
#[derive(Debug)]
pub struct CorpusGenerator {
    seed: u64,
}

impl CorpusGenerator {
    /// Creates a generator with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Generates the corpus described by a trend model.
    #[must_use]
    pub fn generate(&self, model: &TrendModel) -> Corpus {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut corpus = Corpus::new();
        let mut next_id: u64 = 1;

        for topic in model.topics() {
            for year in topic.active_years() {
                let count = topic.posts_in(year);
                for _ in 0..count {
                    let post = self.synthesize_post(&mut rng, model, topic, year, next_id);
                    corpus.push(post);
                    next_id += 1;
                }
            }
        }
        corpus
    }

    fn synthesize_post(
        &self,
        rng: &mut StdRng,
        model: &TrendModel,
        topic: &TopicTrend,
        year: i32,
        id: u64,
    ) -> Post {
        let month = rng.gen_range(1..=12);
        let day = rng.gen_range(1..=28);
        let date = SimDate::new(year, month, day);

        let tag_text = topic
            .hashtags()
            .first()
            .cloned()
            .unwrap_or_else(|| topic.topic().to_string());
        let template = TEMPLATES[rng.gen_range(0..TEMPLATES.len())];
        let price = topic.advertised_price_eur().unwrap_or(0.0);
        // Jitter the advertised price by ±15% so the price-mining cluster has width.
        let quoted_price = if price > 0.0 {
            price * rng.gen_range(0.85..1.15)
        } else {
            0.0
        };
        let mut text = template
            .replace("{tag}", &format!("#{tag_text}"))
            .replace("{price}", &format!("{quoted_price:.0}"));
        // Attach any secondary hashtags of the topic to a fraction of the posts.
        for extra in topic.hashtags().iter().skip(1) {
            if rng.gen_bool(0.35) {
                text.push_str(&format!(" #{extra}"));
            }
        }

        let views_mean = topic.mean_views() as f64;
        let interactions_mean = topic.mean_interactions() as f64;
        let views = sample_around(rng, views_mean);
        let likes = sample_around(rng, interactions_mean * 0.6);
        let replies = sample_around(rng, interactions_mean * 0.25);
        let reposts = sample_around(rng, interactions_mean * 0.15);

        let followers = rng.gen_range(20..20_000);
        let age_months = rng.gen_range(6..120);
        let author = User::new(
            format!("user_{}", rng.gen_range(1000..999_999)),
            followers,
            age_months,
        );

        Post::new(
            id,
            author,
            text,
            vec![Hashtag::new(&tag_text)],
            date,
            model.region(),
            model.application(),
            Engagement::new(views, likes, replies, reposts),
        )
    }
}

/// Samples a non-negative integer around `mean` with roughly ±50% spread.
fn sample_around(rng: &mut StdRng, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    let factor = rng.gen_range(0.5..1.5);
    (mean * factor).round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::post::{Region, TargetApplication};
    use crate::query::Query;

    fn small_model() -> TrendModel {
        TrendModel::new(TargetApplication::Excavator, Region::Europe)
            .topic(
                TopicTrend::new("dpf-delete")
                    .with_hashtag("dpfdelete")
                    .volume_range(2020, 2022, 30)
                    .engagement(2_000, 60)
                    .advertised_price(360.0),
            )
            .topic(
                TopicTrend::new("egr-delete")
                    .with_hashtag("egrdelete")
                    .volume_range(2020, 2021, 10)
                    .engagement(900, 25),
            )
    }

    #[test]
    fn generates_the_configured_volume() {
        let corpus = CorpusGenerator::new(7).generate(&small_model());
        assert_eq!(corpus.len(), 30 * 3 + 10 * 2);
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = CorpusGenerator::new(42).generate(&small_model());
        let b = CorpusGenerator::new(42).generate(&small_model());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = CorpusGenerator::new(1).generate(&small_model());
        let b = CorpusGenerator::new(2).generate(&small_model());
        assert_ne!(a, b);
    }

    #[test]
    fn posts_carry_topic_hashtags_and_scene_metadata() {
        let corpus = CorpusGenerator::new(3).generate(&small_model());
        let dpf_hits = corpus.search(&Query::new().with_hashtag("#dpfdelete"));
        assert_eq!(dpf_hits.len(), 90);
        for post in corpus.iter() {
            assert_eq!(post.region(), Region::Europe);
            assert_eq!(post.application(), TargetApplication::Excavator);
        }
    }

    #[test]
    fn dates_stay_within_active_years() {
        let corpus = CorpusGenerator::new(5).generate(&small_model());
        for post in corpus.iter() {
            let year = post.date().year();
            assert!((2020..=2022).contains(&year), "unexpected year {year}");
        }
    }

    #[test]
    fn priced_topics_mention_a_price() {
        let corpus = CorpusGenerator::new(11).generate(&small_model());
        let priced_posts = corpus.iter().filter(|p| p.text().contains("EUR")).count();
        assert!(
            priced_posts > 0,
            "at least the for-sale template must appear"
        );
    }

    #[test]
    fn engagement_scales_with_topic_profile() {
        let corpus = CorpusGenerator::new(13).generate(&small_model());
        let views = |tag: &str| -> u64 {
            corpus
                .search(&Query::new().with_hashtag(tag))
                .iter()
                .map(|p| p.engagement().views)
                .sum()
        };
        // 90 posts at ~2000 views vs 20 posts at ~900 views.
        assert!(views("#dpfdelete") > views("#egrdelete") * 3);
    }

    #[test]
    fn post_ids_are_unique() {
        let corpus = CorpusGenerator::new(17).generate(&small_model());
        let mut ids: Vec<_> = corpus.iter().map(Post::id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), corpus.len());
    }
}
