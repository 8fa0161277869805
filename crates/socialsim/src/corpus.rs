//! The indexed post corpus and its search API.

use crate::engagement::Engagement;
use crate::hashtag::Hashtag;
use crate::post::Post;
use crate::query::Query;
use crate::time::SimDate;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// An indexed collection of posts with a search API shaped like a social-media
/// search endpoint.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Corpus {
    posts: Vec<Post>,
    #[serde(skip)]
    by_hashtag: HashMap<Hashtag, Vec<usize>>,
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
        let mut corpus = Self::new();
        for post in posts {
            corpus.push(post);
        }
        corpus
    }

    /// Adds a post (the hashtag index is updated incrementally).
    pub fn push(&mut self, post: Post) {
        let idx = self.posts.len();
        for tag in post.hashtags() {
            self.by_hashtag.entry(tag.clone()).or_default().push(idx);
        }
        self.posts.push(post);
    }

    /// Merges another corpus into this one.
    pub fn merge(&mut self, other: Corpus) {
        for post in other.posts {
            self.push(post);
        }
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

    /// Posts carrying the given hashtag (uses the index).
    #[must_use]
    pub fn with_hashtag(&self, tag: &Hashtag) -> Vec<&Post> {
        self.by_hashtag
            .get(tag)
            .map(|indices| indices.iter().map(|i| &self.posts[*i]).collect())
            .unwrap_or_default()
    }

    /// The distinct hashtags present, sorted by descending post count.
    #[must_use]
    pub fn hashtag_frequencies(&self) -> Vec<(Hashtag, usize)> {
        let mut counts: BTreeMap<Hashtag, usize> = BTreeMap::new();
        for post in &self.posts {
            for tag in post.hashtags() {
                *counts.entry(tag.clone()).or_insert(0) += 1;
            }
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Aggregated engagement of the posts matching a query.
    #[must_use]
    pub fn aggregate_engagement(&self, query: &Query) -> Engagement {
        self.search(query)
            .iter()
            .fold(Engagement::default(), |acc, p| acc.combined(p.engagement()))
    }

    /// The date range covered by the corpus, as `(earliest, latest)`.
    #[must_use]
    pub fn date_range(&self) -> Option<(SimDate, SimDate)> {
        let min = self.posts.iter().map(Post::date).min()?;
        let max = self.posts.iter().map(Post::date).max()?;
        Some((min, max))
    }

    /// Post counts per year, sorted by year — the raw series behind trend plots.
    #[must_use]
    pub fn posts_per_year(&self, query: &Query) -> Vec<(i32, usize)> {
        let mut counts: BTreeMap<i32, usize> = BTreeMap::new();
        for post in self.search(query) {
            *counts.entry(post.date().year()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Rebuilds the hashtag index (needed after deserialisation, since the index is
    /// not serialised).
    pub fn rebuild_index(&mut self) {
        self.by_hashtag.clear();
        for (idx, post) in self.posts.iter().enumerate() {
            for tag in post.hashtags() {
                self.by_hashtag.entry(tag.clone()).or_default().push(idx);
            }
        }
    }

    /// Serialises the corpus (posts only — derived indexes are rebuilt on
    /// load) as JSON to `path`, creating parent directories as needed.  The
    /// persistence hook for cold-restart workflows: save the corpus next to
    /// the engine's exported signal cache and reload both to resume scoring
    /// without re-running text mining.
    ///
    /// The write is atomic ([`crate::persist::atomic_write`]): a crash
    /// mid-save leaves the previous file at `path` intact.
    ///
    /// # Errors
    ///
    /// Returns a description when serialisation or any filesystem step fails.
    pub fn save_json(&self, path: &std::path::Path) -> Result<(), String> {
        let json =
            serde_json::to_string(self).map_err(|err| format!("serialise corpus: {err:?}"))?;
        crate::persist::atomic_write(path, json.as_bytes())
    }

    /// Loads a corpus serialised by [`save_json`](Self::save_json) and
    /// rebuilds the hashtag index.
    ///
    /// # Errors
    ///
    /// Returns a description when the file is unreadable or malformed.
    pub fn load_json(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|err| format!("read {}: {err}", path.display()))?;
        let mut corpus: Self = serde_json::from_str(&text)
            .map_err(|err| format!("parse {}: {err:?}", path.display()))?;
        corpus.rebuild_index();
        Ok(corpus)
    }
}

impl Extend<Post> for Corpus {
    fn extend<T: IntoIterator<Item = Post>>(&mut self, iter: T) {
        for post in iter {
            self.push(post);
        }
    }
}

impl FromIterator<Post> for Corpus {
    fn from_iter<T: IntoIterator<Item = Post>>(iter: T) -> Self {
        Self::from_posts(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::post::{Region, TargetApplication};
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
    fn hashtag_index_finds_posts() {
        let c = sample_corpus();
        assert_eq!(c.with_hashtag(&Hashtag::new("dpfdelete")).len(), 2);
        assert_eq!(c.with_hashtag(&Hashtag::new("egrdelete")).len(), 1);
        assert!(c.with_hashtag(&Hashtag::new("unknown")).is_empty());
    }

    #[test]
    fn search_by_keyword() {
        let c = sample_corpus();
        assert_eq!(c.search(&Query::new().with_keyword("dpf")).len(), 2);
        assert_eq!(c.search(&Query::new()).len(), 4);
    }

    #[test]
    fn hashtag_frequencies_sorted_desc() {
        let c = sample_corpus();
        let freqs = c.hashtag_frequencies();
        assert_eq!(freqs[0].0, Hashtag::new("dpfdelete"));
        assert_eq!(freqs[0].1, 2);
    }

    #[test]
    fn aggregate_engagement_sums_matching_posts() {
        let c = sample_corpus();
        let agg = c.aggregate_engagement(&Query::new().with_keyword("dpf"));
        assert_eq!(agg.views, 6_000);
    }

    #[test]
    fn date_range_and_yearly_counts() {
        let c = sample_corpus();
        let (min, max) = c.date_range().unwrap();
        assert_eq!(min.year(), 2019);
        assert_eq!(max.year(), 2022);
        let per_year = c.posts_per_year(&Query::new());
        assert_eq!(per_year.len(), 4);
        assert!(per_year.iter().all(|(_, n)| *n == 1));
    }

    #[test]
    fn merge_combines_corpora() {
        let mut a = sample_corpus();
        let b = Corpus::from_posts(vec![make_post(5, "#dpfdelete in the alps", 2023, 10)]);
        a.merge(b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.with_hashtag(&Hashtag::new("dpfdelete")).len(), 3);
    }

    #[test]
    fn rebuild_index_after_serde() {
        let c = sample_corpus();
        let json = serde_json::to_string(&c).unwrap();
        let mut back: Corpus = serde_json::from_str(&json).unwrap();
        assert!(back.with_hashtag(&Hashtag::new("dpfdelete")).is_empty());
        back.rebuild_index();
        assert_eq!(back.with_hashtag(&Hashtag::new("dpfdelete")).len(), 2);
    }

    #[test]
    fn empty_corpus_has_no_date_range() {
        assert_eq!(Corpus::new().date_range(), None);
    }

    #[test]
    fn save_and_load_json_round_trip() {
        let c = sample_corpus();
        let path = std::env::temp_dir().join("psp_corpus_round_trip_test.json");
        c.save_json(&path).unwrap();
        let back = Corpus::load_json(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, c);
        // The hashtag index is rebuilt, not just deserialised empty.
        assert_eq!(back.with_hashtag(&Hashtag::new("dpfdelete")).len(), 2);
    }

    #[test]
    fn interrupted_save_leaves_the_previous_corpus_file_intact() {
        let dir =
            std::env::temp_dir().join(format!("psp_corpus_atomic_save_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.json");
        let old = sample_corpus();
        old.save_json(&path).unwrap();
        // Block the deterministic temp path so the next save fails before
        // touching the published file — the partial-write simulation.
        std::fs::create_dir(dir.join("corpus.json.tmp")).unwrap();
        let bigger = {
            let mut c = old.clone();
            c.push(make_post(99, "#dpfdelete new", 2023, 77));
            c
        };
        assert!(bigger.save_json(&path).is_err());
        assert_eq!(Corpus::load_json(&path).unwrap(), old);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_json_reports_missing_and_malformed_files() {
        let missing = std::env::temp_dir().join("psp_corpus_does_not_exist.json");
        assert!(Corpus::load_json(&missing).is_err());
        let bad = std::env::temp_dir().join("psp_corpus_malformed_test.json");
        std::fs::write(&bad, "not json").unwrap();
        let result = Corpus::load_json(&bad);
        std::fs::remove_file(&bad).ok();
        assert!(result.is_err());
    }

    #[test]
    fn extend_and_collect() {
        let mut c = Corpus::new();
        c.extend(vec![make_post(9, "x", 2020, 1)]);
        assert_eq!(c.len(), 1);
        let collected: Corpus = vec![make_post(1, "a", 2020, 1)].into_iter().collect();
        assert_eq!(collected.len(), 1);
    }
}
