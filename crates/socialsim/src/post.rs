//! Social-media posts and the query dimensions attached to them.

use crate::engagement::Engagement;
use crate::hashtag::Hashtag;
use crate::time::SimDate;
use crate::user::User;
use serde::{Deserialize, Serialize};

/// Geographic region of a post (the PSP query "excavator, Europe" filters on this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Region {
    /// Europe.
    Europe,
    /// North America.
    NorthAmerica,
    /// South America.
    SouthAmerica,
    /// Asia-Pacific.
    AsiaPacific,
    /// Africa and the Middle East.
    AfricaMiddleEast,
}

/// The target application a post talks about (PSP input block 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TargetApplication {
    /// Passenger cars.
    PassengerCar,
    /// Light commercial trucks.
    LightTruck,
    /// Heavy trucks.
    HeavyTruck,
    /// Agricultural machines (tractors, harvesters).
    Agriculture,
    /// Construction machines (excavators, loaders).
    Excavator,
    /// Sports cars.
    SportsCar,
}

/// A single social-media post.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Post {
    id: u64,
    author: User,
    text: String,
    hashtags: Vec<Hashtag>,
    date: SimDate,
    region: Region,
    application: TargetApplication,
    engagement: Engagement,
}

impl Post {
    /// Creates a post.  Hashtags present in `text` (tokens starting with `#`) are
    /// extracted automatically and merged with `hashtags`.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        id: u64,
        author: User,
        text: impl Into<String>,
        hashtags: Vec<Hashtag>,
        date: SimDate,
        region: Region,
        application: TargetApplication,
        engagement: Engagement,
    ) -> Self {
        let text = text.into();
        let mut all_tags = hashtags;
        for token in text.split_whitespace() {
            if let Some(stripped) = token.strip_prefix('#') {
                let tag = Hashtag::new(stripped);
                if !tag.is_empty() && !all_tags.contains(&tag) {
                    all_tags.push(tag);
                }
            }
        }
        Self {
            id,
            author,
            text,
            hashtags: all_tags,
            date,
            region,
            application,
            engagement,
        }
    }

    /// The unique post id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The author.
    #[must_use]
    pub fn author(&self) -> &User {
        &self.author
    }

    /// The post text.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The hashtags (explicit plus extracted from the text).
    #[must_use]
    pub fn hashtags(&self) -> &[Hashtag] {
        &self.hashtags
    }

    /// The posting date.
    #[must_use]
    pub fn date(&self) -> SimDate {
        self.date
    }

    /// The region the post is attributed to.
    #[must_use]
    pub fn region(&self) -> Region {
        self.region
    }

    /// The target application the post talks about.
    #[must_use]
    pub fn application(&self) -> TargetApplication {
        self.application
    }

    /// The engagement metrics.
    #[must_use]
    pub fn engagement(&self) -> &Engagement {
        &self.engagement
    }

    /// Whether the post carries the given (normalised) hashtag.
    #[must_use]
    pub fn has_hashtag(&self, tag: &Hashtag) -> bool {
        self.hashtags.contains(tag)
    }

    /// Whether the post text or any hashtag contains the keyword
    /// (case-insensitive).
    #[must_use]
    pub fn mentions(&self, keyword: &str) -> bool {
        let kw = keyword.to_lowercase();
        if kw.is_empty() {
            return false;
        }
        self.text.to_lowercase().contains(&kw)
            || self.hashtags.iter().any(|h| h.as_str().contains(&kw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_post() -> Post {
        Post::new(
            1,
            User::new("digger_dave", 800, 36),
            "Finally got the #DPFDelete done on my 8t excavator, no more regen stops",
            vec![Hashtag::new("#excavatorlife")],
            SimDate::new(2022, 6, 10),
            Region::Europe,
            TargetApplication::Excavator,
            Engagement::new(4_000, 120, 35, 18),
        )
    }

    #[test]
    fn hashtags_are_extracted_from_text() {
        let p = sample_post();
        assert!(p.has_hashtag(&Hashtag::new("dpfdelete")));
        assert!(p.has_hashtag(&Hashtag::new("excavatorlife")));
        assert_eq!(p.hashtags().len(), 2);
    }

    #[test]
    fn duplicate_hashtags_are_not_added_twice() {
        let p = Post::new(
            2,
            User::new("x", 1, 1),
            "#chiptuning is great #chiptuning",
            vec![Hashtag::new("chiptuning")],
            SimDate::new(2021, 1, 1),
            Region::Europe,
            TargetApplication::PassengerCar,
            Engagement::new(0, 0, 0, 0),
        );
        assert_eq!(p.hashtags().len(), 1);
    }

    #[test]
    fn mentions_is_case_insensitive() {
        let p = sample_post();
        assert!(p.mentions("dpf"));
        assert!(p.mentions("REGEN"));
        assert!(!p.mentions("adblue"));
        assert!(!p.mentions(""));
    }

    #[test]
    fn accessors_return_construction_values() {
        let p = sample_post();
        assert_eq!(p.id(), 1);
        assert_eq!(p.region(), Region::Europe);
        assert_eq!(p.application(), TargetApplication::Excavator);
        assert_eq!(p.date().year(), 2022);
        assert_eq!(p.engagement().views, 4_000);
    }

    #[test]
    fn serde_round_trip() {
        let p = sample_post();
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(p, serde_json::from_str::<Post>(&json).unwrap());
    }
}
