//! The search-endpoint-shaped query type.
//!
//! A [`Query`] mirrors the search dimensions the paper's PSP prototype sends to the
//! Twitter API: free-text keywords, hashtags, region, target application and a time
//! window (the lever behind Figure 9-B vs 9-C).

use crate::hashtag::Hashtag;
use crate::post::{Post, Region, TargetApplication};
use crate::time::DateWindow;

/// A corpus search query.  All constraints are conjunctive; keyword and hashtag
/// lists are disjunctive within themselves ("any of these keywords").
#[derive(Debug, Default)]
pub struct Query {
    keywords: Vec<String>,
    hashtags: Vec<Hashtag>,
    region: Option<Region>,
    application: Option<TargetApplication>,
    window: Option<DateWindow>,
}

impl Query {
    /// Creates an unconstrained query (matches every post).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a free-text keyword (matched case-insensitively against text and tags).
    #[must_use]
    pub fn with_keyword(mut self, keyword: impl Into<String>) -> Self {
        self.keywords.push(keyword.into());
        self
    }

    /// Adds a hashtag constraint.
    #[must_use]
    pub fn with_hashtag(mut self, tag: impl Into<Hashtag>) -> Self {
        self.hashtags.push(tag.into());
        self
    }

    /// Restricts to a region.
    #[must_use]
    pub fn in_region(mut self, region: Region) -> Self {
        self.region = Some(region);
        self
    }

    /// Restricts to a target application.
    #[must_use]
    pub fn about(mut self, application: TargetApplication) -> Self {
        self.application = Some(application);
        self
    }

    /// Restricts to a date window.
    #[must_use]
    pub fn within(mut self, window: DateWindow) -> Self {
        self.window = Some(window);
        self
    }

    /// The keyword list.
    #[must_use]
    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    /// The hashtag list.
    #[must_use]
    pub fn hashtags(&self) -> &[Hashtag] {
        &self.hashtags
    }

    /// The region constraint.
    #[must_use]
    pub fn region(&self) -> Option<Region> {
        self.region
    }

    /// The application constraint.
    #[must_use]
    pub fn application(&self) -> Option<TargetApplication> {
        self.application
    }

    /// The time-window constraint.
    #[must_use]
    pub fn window(&self) -> Option<DateWindow> {
        self.window
    }

    /// Whether a post matches the query.
    #[must_use]
    pub fn matches(&self, post: &Post) -> bool {
        if let Some(region) = self.region {
            if post.region() != region {
                return false;
            }
        }
        if let Some(application) = self.application {
            if post.application() != application {
                return false;
            }
        }
        if let Some(window) = self.window {
            if !window.contains(post.date()) {
                return false;
            }
        }
        let keyword_hit =
            self.keywords.is_empty() || self.keywords.iter().any(|k| post.mentions(k));
        let hashtag_hit =
            self.hashtags.is_empty() || self.hashtags.iter().any(|h| post.has_hashtag(h));
        // If both keyword and hashtag constraints are present, either may satisfy
        // the content condition (that is how search terms behave on the platform).
        if self.keywords.is_empty() && self.hashtags.is_empty() {
            true
        } else if self.keywords.is_empty() {
            hashtag_hit
        } else if self.hashtags.is_empty() {
            keyword_hit
        } else {
            keyword_hit || hashtag_hit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engagement::Engagement;
    use crate::time::SimDate;
    use crate::user::User;

    fn post(text: &str, year: i32, region: Region, app: TargetApplication) -> Post {
        Post::new(
            0,
            User::new("u", 10, 10),
            text,
            vec![],
            SimDate::new(year, 6, 1),
            region,
            app,
            Engagement::new(0, 0, 0, 0),
        )
    }

    #[test]
    fn empty_query_matches_everything() {
        let q = Query::new();
        assert!(q.matches(&post(
            "anything",
            2020,
            Region::Europe,
            TargetApplication::Excavator
        )));
    }

    #[test]
    fn keyword_filtering() {
        let q = Query::new().with_keyword("dpf");
        assert!(q.matches(&post(
            "my #dpfdelete story",
            2021,
            Region::Europe,
            TargetApplication::Excavator
        )));
        assert!(!q.matches(&post(
            "nice tractor",
            2021,
            Region::Europe,
            TargetApplication::Excavator
        )));
    }

    #[test]
    fn region_and_application_are_conjunctive() {
        let q = Query::new()
            .in_region(Region::Europe)
            .about(TargetApplication::Excavator);
        assert!(q.matches(&post(
            "x",
            2021,
            Region::Europe,
            TargetApplication::Excavator
        )));
        assert!(!q.matches(&post(
            "x",
            2021,
            Region::NorthAmerica,
            TargetApplication::Excavator
        )));
        assert!(!q.matches(&post(
            "x",
            2021,
            Region::Europe,
            TargetApplication::PassengerCar
        )));
    }

    #[test]
    fn window_filters_by_date() {
        let q = Query::new().within(DateWindow::years(2021, 2023));
        assert!(q.matches(&post(
            "x",
            2022,
            Region::Europe,
            TargetApplication::Excavator
        )));
        assert!(!q.matches(&post(
            "x",
            2019,
            Region::Europe,
            TargetApplication::Excavator
        )));
    }

    #[test]
    fn hashtag_or_keyword_satisfies_content_condition() {
        let q = Query::new()
            .with_keyword("adblue")
            .with_hashtag("#dpfdelete");
        assert!(q.matches(&post(
            "check my #dpfdelete",
            2021,
            Region::Europe,
            TargetApplication::Excavator
        )));
        assert!(q.matches(&post(
            "adblue emulator installed",
            2021,
            Region::Europe,
            TargetApplication::Excavator
        )));
        assert!(!q.matches(&post(
            "stock machine",
            2021,
            Region::Europe,
            TargetApplication::Excavator
        )));
    }

    #[test]
    fn accessors_expose_constraints() {
        let q = Query::new()
            .with_keyword("egr")
            .with_hashtag("#egroff")
            .in_region(Region::Europe)
            .about(TargetApplication::Agriculture)
            .within(DateWindow::years(2020, 2022));
        assert_eq!(q.keywords().len(), 1);
        assert_eq!(q.hashtags().len(), 1);
        assert_eq!(q.region(), Some(Region::Europe));
        assert_eq!(q.application(), Some(TargetApplication::Agriculture));
        assert!(q.window().is_some());
    }
}
