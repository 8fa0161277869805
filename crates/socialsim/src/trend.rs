//! Per-topic posting-intensity profiles over time.
//!
//! The corpus generator is driven by a [`TrendModel`]: for every attack topic it
//! states how many posts per year the scene produces, how that volume evolves, and
//! how engaged the audience is.  The trend inversion the paper observes for ECM
//! reprogramming — bench/physical flashing fading after 2021 while OBD-local
//! flashing keeps growing — is encoded here and recovered by the PSP time-window
//! analysis (Figure 9-B vs 9-C).

use crate::post::{Region, TargetApplication};
use std::collections::BTreeMap;

/// The yearly posting profile of one attack topic.
#[derive(Debug)]
pub struct TopicTrend {
    topic: String,
    hashtags: Vec<String>,
    /// Base number of posts per year, per year.
    posts_per_year: BTreeMap<i32, u32>,
    /// Mean views per post.
    mean_views: u64,
    /// Mean interactions per post.
    mean_interactions: u64,
    /// Mean price (EUR) quoted in posts advertising a device or service, if the
    /// topic has a commercial aftermarket (used by the PPIA price mining).
    advertised_price_eur: Option<f64>,
}

impl TopicTrend {
    /// Creates a topic trend.
    #[must_use]
    pub fn new(topic: impl Into<String>) -> Self {
        Self {
            topic: topic.into(),
            hashtags: Vec::new(),
            posts_per_year: BTreeMap::new(),
            mean_views: 1_000,
            mean_interactions: 30,
            advertised_price_eur: None,
        }
    }

    /// Adds a hashtag the topic's posts use.
    #[must_use]
    pub fn with_hashtag(mut self, tag: impl Into<String>) -> Self {
        self.hashtags.push(tag.into());
        self
    }

    /// Sets the post volume for one year.
    #[must_use]
    pub fn volume(mut self, year: i32, posts: u32) -> Self {
        self.posts_per_year.insert(year, posts);
        self
    }

    /// Sets a constant post volume over a year range (inclusive).
    #[must_use]
    pub fn volume_range(mut self, from_year: i32, to_year: i32, posts: u32) -> Self {
        for year in from_year..=to_year {
            self.posts_per_year.insert(year, posts);
        }
        self
    }

    /// Sets the mean engagement per post.
    #[must_use]
    pub fn engagement(mut self, mean_views: u64, mean_interactions: u64) -> Self {
        self.mean_views = mean_views;
        self.mean_interactions = mean_interactions;
        self
    }

    /// Sets the typical advertised price for the topic's aftermarket device/service.
    #[must_use]
    pub fn advertised_price(mut self, eur: f64) -> Self {
        self.advertised_price_eur = Some(eur);
        self
    }

    /// The topic name.
    #[must_use]
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// The hashtags used by the topic's posts.
    #[must_use]
    pub fn hashtags(&self) -> &[String] {
        &self.hashtags
    }

    /// The post volume for a year (0 when unset).
    #[must_use]
    pub fn posts_in(&self, year: i32) -> u32 {
        self.posts_per_year.get(&year).copied().unwrap_or(0)
    }

    /// Years with non-zero volume, sorted.
    #[must_use]
    pub fn active_years(&self) -> Vec<i32> {
        self.posts_per_year
            .iter()
            .filter(|(_, v)| **v > 0)
            .map(|(y, _)| *y)
            .collect()
    }

    /// Mean views per post.
    #[must_use]
    pub fn mean_views(&self) -> u64 {
        self.mean_views
    }

    /// Mean interactions per post.
    #[must_use]
    pub fn mean_interactions(&self) -> u64 {
        self.mean_interactions
    }

    /// Typical advertised price in EUR, if the topic has a commercial aftermarket.
    #[must_use]
    pub fn advertised_price_eur(&self) -> Option<f64> {
        self.advertised_price_eur
    }
}

/// A full trend model: the topics of one (application, region) scene.
#[derive(Debug)]
pub struct TrendModel {
    application: TargetApplication,
    region: Region,
    topics: Vec<TopicTrend>,
}

impl TrendModel {
    /// Creates an empty trend model for the given scene.
    #[must_use]
    pub fn new(application: TargetApplication, region: Region) -> Self {
        Self {
            application,
            region,
            topics: Vec::new(),
        }
    }

    /// Adds a topic.
    #[must_use]
    pub fn topic(mut self, topic: TopicTrend) -> Self {
        self.topics.push(topic);
        self
    }

    /// The target application of the scene.
    #[must_use]
    pub fn application(&self) -> TargetApplication {
        self.application
    }

    /// The region of the scene.
    #[must_use]
    pub fn region(&self) -> Region {
        self.region
    }

    /// The topics.
    #[must_use]
    pub fn topics(&self) -> &[TopicTrend] {
        &self.topics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dpf_trend() -> TopicTrend {
        TopicTrend::new("dpf-delete")
            .with_hashtag("dpfdelete")
            .with_hashtag("dpfoff")
            .volume_range(2018, 2023, 120)
            .engagement(3_000, 90)
            .advertised_price(360.0)
    }

    #[test]
    fn volume_range_fills_every_year() {
        let t = dpf_trend();
        for year in 2018..=2023 {
            assert_eq!(t.posts_in(year), 120);
        }
        assert_eq!(t.posts_in(2017), 0);
        assert_eq!(t.posts_per_year.values().sum::<u32>(), 6 * 120);
    }

    #[test]
    fn volume_overrides_specific_year() {
        let t = dpf_trend().volume(2020, 10);
        assert_eq!(t.posts_in(2020), 10);
        assert_eq!(t.posts_in(2021), 120);
    }

    #[test]
    fn active_years_are_sorted_and_nonzero() {
        let t = TopicTrend::new("x")
            .volume(2021, 5)
            .volume(2019, 0)
            .volume(2020, 7);
        assert_eq!(t.active_years(), vec![2020, 2021]);
    }

    #[test]
    fn price_is_optional() {
        assert_eq!(TopicTrend::new("x").advertised_price_eur(), None);
        assert_eq!(dpf_trend().advertised_price_eur(), Some(360.0));
    }

    #[test]
    fn model_lookup_and_span() {
        let model = TrendModel::new(TargetApplication::Excavator, Region::Europe)
            .topic(dpf_trend())
            .topic(TopicTrend::new("egr-delete").volume_range(2016, 2020, 40));
        let names: Vec<_> = model.topics().iter().map(TopicTrend::topic).collect();
        assert_eq!(names, ["dpf-delete", "egr-delete"]);
        assert_eq!(model.application(), TargetApplication::Excavator);
        assert_eq!(model.region(), Region::Europe);
    }
}
