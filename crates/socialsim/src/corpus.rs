//! The post corpus and its search API.

use crate::post::Post;
use crate::query::Query;
use serde::{Deserialize, Serialize};

/// An append-only collection of posts with a search API shaped like a
/// social-media search endpoint.  It holds the posts and nothing derived from
/// them: [`crate::index::CorpusIndex`] is the one index over a corpus, so a
/// deserialised corpus is complete as it stands.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Corpus {
    posts: Vec<Post>,
}

impl Corpus {
    /// Creates an empty corpus.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a corpus from an iterator of posts.
    #[must_use]
    pub fn from_posts(posts: impl IntoIterator<Item = Post>) -> Self {
        Self {
            posts: posts.into_iter().collect(),
        }
    }

    /// Appends a post.
    pub fn push(&mut self, post: Post) {
        self.posts.push(post);
    }

    /// Merges another corpus into this one.
    pub fn merge(&mut self, other: Corpus) {
        self.posts.extend(other.posts);
    }

    /// Number of posts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.posts.len()
    }

    /// Whether the corpus is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.posts.is_empty()
    }

    /// All posts in insertion order.
    #[must_use]
    pub fn posts(&self) -> &[Post] {
        &self.posts
    }

    /// Consumes the corpus, returning the posts in insertion order without
    /// cloning them.
    #[must_use]
    pub fn into_posts(self) -> Vec<Post> {
        self.posts
    }

    /// Iterates over the posts.
    pub fn iter(&self) -> impl Iterator<Item = &Post> {
        self.posts.iter()
    }

    /// Posts matching a query, in insertion order.
    #[must_use]
    pub fn search(&self, query: &Query) -> Vec<&Post> {
        self.posts.iter().filter(|p| query.matches(p)).collect()
    }
}

impl Extend<Post> for Corpus {
    fn extend<T: IntoIterator<Item = Post>>(&mut self, iter: T) {
        self.posts.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engagement::Engagement;
    use crate::post::{Region, TargetApplication};
    use crate::scenario;
    use crate::time::SimDate;
    use crate::user::User;

    fn make_post(id: u64, text: &str, year: i32, views: u64) -> Post {
        Post::new(
            id,
            User::new("u", 100, 24),
            text,
            vec![],
            SimDate::new(year, 3, 5),
            Region::Europe,
            TargetApplication::Excavator,
            Engagement::new(views, views / 20, 0, 0),
        )
    }

    fn sample_corpus() -> Corpus {
        Corpus::from_posts(vec![
            make_post(1, "got my #dpfdelete done", 2019, 1_000),
            make_post(2, "#dpfdelete kit for sale 360 EUR", 2021, 5_000),
            make_post(3, "#egrdelete how-to", 2020, 800),
            make_post(4, "stock machine is fine", 2022, 50),
        ])
    }

    #[test]
    fn len_and_iteration() {
        let c = sample_corpus();
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert_eq!(c.iter().count(), 4);
    }

    #[test]
    fn search_by_keyword() {
        let c = sample_corpus();
        assert_eq!(c.search(&Query::new().with_keyword("dpf")).len(), 2);
        assert_eq!(c.search(&Query::new()).len(), 4);
    }

    #[test]
    fn merge_combines_corpora() {
        let mut a = sample_corpus();
        let b = Corpus::from_posts(vec![make_post(5, "#dpfdelete in the alps", 2023, 10)]);
        a.merge(b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.search(&Query::new().with_hashtag("#dpfdelete")).len(), 3);
    }

    #[test]
    fn a_deserialized_corpus_needs_no_fix_up() {
        let corpus = scenario::excavator_europe(7);
        let json = serde_json::to_string(&corpus).unwrap();
        let back: Corpus = serde_json::from_str(&json).unwrap();
        assert_eq!(back, corpus);
    }

    #[test]
    fn extend_appends_posts() {
        let mut c = Corpus::new();
        c.extend(vec![make_post(9, "x", 2020, 1)]);
        assert_eq!(c.len(), 1);
    }
}
