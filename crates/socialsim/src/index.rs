//! The inverted corpus index.
//!
//! [`Corpus::search`] answers a [`Query`] with a linear scan over every post —
//! fine for one query, ruinous for the PSP hot path, which re-queries the same
//! corpus once per attack keyword (and once per analysis window in monitoring
//! runs).  [`CorpusIndex`] is built once per corpus and answers the same
//! queries from inverted structures:
//!
//! * a *mention vocabulary* — every lowercase whitespace token of each post's
//!   text plus each of its normalised hashtags, mapped to the posts containing
//!   it.  Because a keyword match (`Post::mentions`) is a case-insensitive
//!   substring test and keywords never contain whitespace, a post mentions a
//!   keyword exactly when one of its vocabulary terms contains the keyword as a
//!   substring, so scanning the (small) vocabulary replaces scanning the
//!   (large) corpus;
//! * an exact hashtag posting list for [`Query::hashtags`] constraints;
//! * per-[`Region`] and per-[`TargetApplication`] bitsets and a per-post date
//!   array for the conjunctive metadata filters.
//!
//! Results are always produced in ascending post order (= insertion order), so
//! indexed queries return exactly what the naive scan returns, in the same
//! order — a property the `psp-suite` property tests pin down.
//!
//! The index is built once per corpus ([`CorpusIndex::build`]) and then kept
//! live under streaming ingestion: [`CorpusIndex::append`] extends every
//! inverted structure in place as posts are appended to the corpus, in
//! amortised O(new posts), without rescanning or re-answering anything already
//! indexed.

use crate::corpus::Corpus;
use crate::hashtag::Hashtag;
use crate::post::{Region, TargetApplication};
use crate::query::Query;
use crate::time::{DateWindow, SimDate};
use std::collections::HashMap;

/// A fixed-capacity bitset over post ids.
#[derive(Debug, Clone, Default)]
struct IdBitSet {
    bits: Vec<u64>,
}

impl IdBitSet {
    fn with_capacity(posts: usize) -> Self {
        Self {
            bits: vec![0; posts.div_ceil(64)],
        }
    }

    /// Sets a bit, growing the backing storage when the id lies beyond the
    /// capacity the set was created with (append-path inserts do this).
    fn insert(&mut self, id: u32) {
        let word = id as usize / 64;
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        self.bits[word] |= 1 << (id % 64);
    }

    fn contains(&self, id: u32) -> bool {
        self.bits
            .get(id as usize / 64)
            .is_some_and(|word| word & (1 << (id % 64)) != 0)
    }
}

/// An inverted index over a [`Corpus`] snapshot.
///
/// The index holds post *ids* (positions in [`Corpus::posts`]), not post data,
/// so it stays valid as long as the corpus it was built from is only ever
/// *appended to*.  Build it once, answer any number of queries against it, and
/// extend it in place with [`CorpusIndex::append`] as new posts stream in —
/// appending is amortised O(new posts) and never rescans the existing corpus.
#[derive(Debug, Clone, Default)]
pub struct CorpusIndex {
    /// Mention term → ascending ids of posts whose text/hashtags contain it.
    vocab: HashMap<String, Vec<u32>>,
    /// Exact hashtag → ascending ids of posts carrying it.
    by_hashtag: HashMap<Hashtag, Vec<u32>>,
    /// One membership bitset per region present in the corpus.
    by_region: HashMap<Region, IdBitSet>,
    /// One membership bitset per target application present in the corpus.
    by_application: HashMap<TargetApplication, IdBitSet>,
    /// Posting date per post id, for window filtering.
    dates: Vec<SimDate>,
}

impl CorpusIndex {
    /// Builds the index in one pass over the corpus.
    #[must_use]
    pub fn build(corpus: &Corpus) -> Self {
        let mut index = Self {
            vocab: HashMap::new(),
            by_hashtag: HashMap::new(),
            by_region: HashMap::new(),
            by_application: HashMap::new(),
            dates: Vec::with_capacity(corpus.posts().len()),
        };
        index.index_from(corpus, 0);
        index
    }

    /// Extends the index in place with the posts appended to `corpus` since the
    /// index last covered it.
    ///
    /// `new_posts` is the number of trailing posts that are new; the corpus must
    /// be exactly the snapshot this index covers plus those posts (posts are
    /// append-only and immutable, so every previously indexed structure stays
    /// valid as-is).
    ///
    /// # Contract
    ///
    /// * **Bit-exactness** — after `append`, every query answer is identical to
    ///   what a from-scratch [`CorpusIndex::build`] over the grown corpus would
    ///   produce: new post ids are larger than every indexed id, so posting
    ///   lists stay strictly ascending and both paths run the exact same
    ///   per-post indexing code (`index_from`).  The `psp-suite` property tests
    ///   pin this down.
    /// * **Complexity** — amortised `O(new_posts)` (times per-post text length);
    ///   the previously indexed posts are never rescanned.
    ///
    /// # Panics
    ///
    /// Panics when `corpus.posts().len() != self.post_count() + new_posts` —
    /// the corpus diverged from the indexed snapshot (posts were removed,
    /// reordered, or the count is simply wrong).
    pub fn append(&mut self, corpus: &Corpus, new_posts: usize) {
        let indexed = self.post_count();
        assert_eq!(
            corpus.posts().len(),
            indexed + new_posts,
            "CorpusIndex::append: index covers {indexed} posts and {new_posts} are claimed new, \
             but the corpus holds {} posts",
            corpus.posts().len()
        );
        self.index_from(corpus, indexed);
    }

    /// Indexes `corpus.posts()[from..]`, the shared core of [`build`](Self::build)
    /// and [`append`](Self::append).  Ids are assigned by corpus position, so
    /// indexing a suffix later is indistinguishable from having indexed it in
    /// the original pass.
    fn index_from(&mut self, corpus: &Corpus, from: usize) {
        let posts = corpus.posts();
        let capacity = posts.len();
        self.dates.reserve(capacity - from);
        for (id, post) in posts.iter().enumerate().skip(from) {
            let id = id as u32;
            self.dates.push(post.date());
            self.by_region
                .entry(post.region())
                .or_insert_with(|| IdBitSet::with_capacity(capacity))
                .insert(id);
            self.by_application
                .entry(post.application())
                .or_insert_with(|| IdBitSet::with_capacity(capacity))
                .insert(id);
            for tag in post.hashtags() {
                // Allocate the owned key only when the tag is new to the index.
                match self.by_hashtag.get_mut(tag) {
                    Some(ids) => ids.push(id),
                    None => {
                        self.by_hashtag.insert(tag.clone(), vec![id]);
                    }
                }
            }
            // The mention vocabulary: lowercase text tokens plus hashtag strings,
            // deduplicated per post so each posting list stays strictly ascending.
            let lowered = post.text().to_lowercase();
            let mut terms: Vec<&str> = Vec::with_capacity(16);
            for token in lowered.split_whitespace() {
                if !terms.contains(&token) {
                    terms.push(token);
                }
            }
            for tag in post.hashtags() {
                if !terms.contains(&tag.as_str()) {
                    terms.push(tag.as_str());
                }
            }
            for term in &terms {
                match self.vocab.get_mut(*term) {
                    Some(ids) => ids.push(id),
                    None => {
                        self.vocab.insert((*term).to_string(), vec![id]);
                    }
                }
            }
        }
    }

    /// Number of posts covered by the index.
    #[must_use]
    pub fn post_count(&self) -> usize {
        self.dates.len()
    }

    /// Ids `>= from` of posts mentioning `keyword`, in posting-list order.
    fn collect_mentions(&self, corpus: &Corpus, keyword: &str, from: u32, out: &mut Vec<u32>) {
        let needle = keyword.to_lowercase();
        if needle.is_empty() {
            return;
        }
        if needle.chars().any(char::is_whitespace) {
            // A whitespace-bearing keyword can span token boundaries; the
            // vocabulary cannot answer it, so fall back to the exact scan.
            for (id, post) in corpus.posts().iter().enumerate().skip(from as usize) {
                if post.mentions(keyword) {
                    out.push(id as u32);
                }
            }
            return;
        }
        for (term, ids) in &self.vocab {
            if term.contains(&needle) {
                out.extend_from_slice(tail_from(ids, from));
            }
        }
    }

    /// Ids of posts carrying the exact hashtag, ascending.
    #[must_use]
    pub fn with_hashtag(&self, tag: &Hashtag) -> &[u32] {
        self.by_hashtag.get(tag).map_or(&[], Vec::as_slice)
    }

    /// Whether post `id` satisfies the query's region / application / window
    /// constraints (the content condition is not checked).
    #[must_use]
    pub fn matches_metadata(&self, id: u32, query: &Query) -> bool {
        self.matches_scene(id, query) && self.in_window(id, query.window())
    }

    /// Whether post `id` satisfies the query's *scene* constraints — region
    /// and target application, the metadata that does not depend on the
    /// analysis window.  A window sweep checks the scene once per candidate
    /// when it builds its plan and resolves each window from the dates.
    #[must_use]
    pub fn matches_scene(&self, id: u32, query: &Query) -> bool {
        if let Some(region) = query.region() {
            if !self
                .by_region
                .get(&region)
                .is_some_and(|set| set.contains(id))
            {
                return false;
            }
        }
        if let Some(application) = query.application() {
            if !self
                .by_application
                .get(&application)
                .is_some_and(|set| set.contains(id))
            {
                return false;
            }
        }
        true
    }

    /// Whether post `id`'s date falls inside the window (`None` = full
    /// history) — the only per-window half of the metadata predicate.
    #[must_use]
    pub fn in_window(&self, id: u32, window: Option<DateWindow>) -> bool {
        window.is_none_or(|w| w.contains(self.dates[id as usize]))
    }

    /// The posting date of post `id`, from the index's own date column.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not covered by the index.
    #[must_use]
    pub fn date_of(&self, id: u32) -> SimDate {
        self.dates[id as usize]
    }

    /// Ids `>= from` of posts satisfying the query's *content* condition
    /// (keywords OR hashtags), ascending; every such post when the query has
    /// no content constraints.  Content candidates are independent of the
    /// region / application / window constraints, so a window sweep resolves
    /// them once per keyword set and filters them with
    /// [`matches_scene`](Self::matches_scene).  Whether a post is a candidate
    /// depends on that post alone, so the candidates from `from` on are
    /// exactly what a sweep plan covering the first `from` posts lacks: each
    /// posting list's tail is one binary search away.
    #[must_use]
    pub fn content_candidates(&self, corpus: &Corpus, query: &Query, from: u32) -> Vec<u32> {
        if query.keywords().is_empty() && query.hashtags().is_empty() {
            return (from..self.dates.len() as u32).collect();
        }
        // Keyword and hashtag constraints are disjunctive with each other
        // (see `Query::matches`), so the candidate set is the union.
        let mut ids = Vec::new();
        for keyword in query.keywords() {
            self.collect_mentions(corpus, keyword, from, &mut ids);
        }
        for tag in query.hashtags() {
            ids.extend_from_slice(tail_from(self.with_hashtag(tag), from));
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Ids of posts matching the query, ascending.  Produces exactly the posts
    /// the naive [`Corpus::search`] scan returns, in the same order.
    #[must_use]
    pub fn query(&self, corpus: &Corpus, query: &Query) -> Vec<u32> {
        self.content_candidates(corpus, query, 0)
            .into_iter()
            .filter(|id| self.matches_metadata(*id, query))
            .collect()
    }
}

/// The ids `>= from` of an ascending posting list.
fn tail_from(ids: &[u32], from: u32) -> &[u32] {
    &ids[ids.partition_point(|id| *id < from)..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engagement::Engagement;
    use crate::post::Post;
    use crate::scenario;
    use crate::time::DateWindow;
    use crate::user::User;

    fn post(id: u64, text: &str, year: i32, region: Region, app: TargetApplication) -> Post {
        Post::new(
            id,
            User::new("u", 50, 12),
            text,
            vec![],
            SimDate::new(year, 6, 15),
            region,
            app,
            Engagement::new(100, 5, 1, 1),
        )
    }

    fn sample() -> Corpus {
        Corpus::from_posts(vec![
            post(
                1,
                "got my #dpfdelete done",
                2019,
                Region::Europe,
                TargetApplication::Excavator,
            ),
            post(
                2,
                "#dpfdelete kit 360 EUR",
                2021,
                Region::Europe,
                TargetApplication::Excavator,
            ),
            post(
                3,
                "#egrdelete how-to",
                2020,
                Region::NorthAmerica,
                TargetApplication::Excavator,
            ),
            post(
                4,
                "stock machine is fine",
                2022,
                Region::Europe,
                TargetApplication::PassengerCar,
            ),
        ])
    }

    fn ids(posts: &[&Post]) -> Vec<u64> {
        posts.iter().map(|p| p.id()).collect()
    }

    /// The post ids the index answers `query` with, in answer order.
    fn indexed_ids(index: &CorpusIndex, corpus: &Corpus, query: &Query) -> Vec<u64> {
        index
            .query(corpus, query)
            .into_iter()
            .map(|id| corpus.posts()[id as usize].id())
            .collect()
    }

    /// The ids of posts mentioning `keyword`: the content candidates of a
    /// keyword-only query.
    fn mentioning(index: &CorpusIndex, corpus: &Corpus, keyword: &str) -> Vec<u32> {
        index.content_candidates(corpus, &Query::new().with_keyword(keyword), 0)
    }

    #[test]
    fn indexed_query_matches_naive_scan() {
        let corpus = sample();
        let index = CorpusIndex::build(&corpus);
        let queries = [
            Query::new(),
            Query::new().with_keyword("dpf"),
            Query::new()
                .with_keyword("dpfdelete")
                .with_hashtag("#egrdelete"),
            Query::new().in_region(Region::Europe),
            Query::new()
                .with_keyword("kit")
                .about(TargetApplication::Excavator),
            Query::new().within(DateWindow::years(2020, 2021)),
            Query::new().with_keyword("zzz-no-such"),
        ];
        for query in &queries {
            let naive = ids(&corpus.search(query));
            let indexed = indexed_ids(&index, &corpus, query);
            assert_eq!(naive, indexed, "query {query:?}");
        }
    }

    #[test]
    fn substring_keywords_hit_tokens_and_hashtags() {
        let corpus = sample();
        let index = CorpusIndex::build(&corpus);
        // "dpf" is a substring of the token/hashtag "dpfdelete".
        assert_eq!(mentioning(&index, &corpus, "dpf"), vec![0, 1]);
        // Case-insensitive like Post::mentions.
        assert_eq!(mentioning(&index, &corpus, "DPF"), vec![0, 1]);
        assert!(mentioning(&index, &corpus, "").is_empty());
    }

    #[test]
    fn whitespace_keywords_fall_back_to_the_scan() {
        let corpus = sample();
        let index = CorpusIndex::build(&corpus);
        let naive: Vec<u32> = corpus
            .posts()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.mentions("machine is"))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(mentioning(&index, &corpus, "machine is"), naive);
        assert_eq!(naive, vec![3]);
    }

    #[test]
    fn metadata_bitsets_filter_correctly() {
        let corpus = sample();
        let index = CorpusIndex::build(&corpus);
        let europe = index.query(&corpus, &Query::new().in_region(Region::Europe));
        assert_eq!(europe, vec![0, 1, 3]);
        let excavator = index.query(
            &corpus,
            &Query::new()
                .about(TargetApplication::Excavator)
                .in_region(Region::Europe),
        );
        assert_eq!(excavator, vec![0, 1]);
        let windowed = index.query(&corpus, &Query::new().within(DateWindow::years(2021, 2022)));
        assert_eq!(windowed, vec![1, 3]);
    }

    #[test]
    fn metadata_split_agrees_with_the_combined_predicate() {
        let corpus = sample();
        let index = CorpusIndex::build(&corpus);
        let queries = [
            Query::new(),
            Query::new().in_region(Region::Europe),
            Query::new().about(TargetApplication::Excavator),
            Query::new().within(DateWindow::years(2020, 2021)),
            Query::new()
                .in_region(Region::Europe)
                .about(TargetApplication::Excavator)
                .within(DateWindow::years(2019, 2021)),
        ];
        for query in &queries {
            for id in 0..corpus.len() as u32 {
                assert_eq!(
                    index.matches_metadata(id, query),
                    index.matches_scene(id, query) && index.in_window(id, query.window()),
                    "post {id}, query {query:?}"
                );
            }
        }
    }

    #[test]
    fn date_column_mirrors_the_posts() {
        let corpus = sample();
        let index = CorpusIndex::build(&corpus);
        for (id, post) in corpus.posts().iter().enumerate() {
            assert_eq!(index.date_of(id as u32), post.date());
        }
        // A missing window constraint admits every date.
        assert!(index.in_window(0, None));
    }

    #[test]
    fn agrees_with_naive_scan_on_a_generated_scene() {
        let corpus = scenario::passenger_car_europe(42);
        let index = CorpusIndex::build(&corpus);
        for keyword in ["chiptuning", "benchflash", "dpf", "relay", "nope"] {
            let query = Query::new()
                .with_keyword(keyword)
                .with_hashtag(keyword)
                .in_region(Region::Europe)
                .about(TargetApplication::PassengerCar);
            assert_eq!(
                ids(&corpus.search(&query)),
                indexed_ids(&index, &corpus, &query),
                "keyword {keyword}"
            );
        }
    }

    #[test]
    fn empty_corpus_index_is_empty() {
        let corpus = Corpus::new();
        let index = CorpusIndex::build(&corpus);
        assert_eq!(index.post_count(), 0);
        assert!(index.query(&corpus, &Query::new()).is_empty());
    }

    /// The query set used to compare an appended index against a rebuilt one.
    fn probe_queries() -> Vec<Query> {
        vec![
            Query::new(),
            Query::new().with_keyword("dpf"),
            Query::new().with_keyword("immo").with_hashtag("#immooff"),
            Query::new().in_region(Region::Europe),
            Query::new().in_region(Region::SouthAmerica),
            Query::new().about(TargetApplication::Agriculture),
            Query::new().within(DateWindow::years(2018, 2021)),
            Query::new()
                .with_keyword("delete")
                .in_region(Region::Europe)
                .within(DateWindow::years(2020, 2023)),
        ]
    }

    fn assert_answers_like_rebuild(index: &CorpusIndex, corpus: &Corpus) {
        let rebuilt = CorpusIndex::build(corpus);
        for query in probe_queries() {
            assert_eq!(
                index.query(corpus, &query),
                rebuilt.query(corpus, &query),
                "query {query:?}"
            );
        }
    }

    #[test]
    fn append_empty_batch_is_a_noop() {
        let corpus = sample();
        let mut index = CorpusIndex::build(&corpus);
        index.append(&corpus, 0);
        assert_eq!(index.post_count(), 4);
        assert_answers_like_rebuild(&index, &corpus);
    }

    #[test]
    fn append_extends_existing_posting_lists() {
        let mut corpus = sample();
        let mut index = CorpusIndex::build(&corpus);
        corpus.push(post(
            5,
            "another #dpfdelete story",
            2023,
            Region::Europe,
            TargetApplication::Excavator,
        ));
        index.append(&corpus, 1);
        assert_eq!(index.post_count(), 5);
        // The existing hashtag/mention lists picked up the new id.
        assert_eq!(index.with_hashtag(&Hashtag::new("dpfdelete")), &[0, 1, 4]);
        assert_eq!(mentioning(&index, &corpus, "dpf"), vec![0, 1, 4]);
        assert_answers_like_rebuild(&index, &corpus);
    }

    #[test]
    fn append_introduces_new_terms_regions_and_applications() {
        let mut corpus = sample();
        let mut index = CorpusIndex::build(&corpus);
        // Brand-new mention term, hashtag, region and application, all in one batch.
        corpus.push(post(
            6,
            "fresh #immooff bypass",
            2023,
            Region::SouthAmerica,
            TargetApplication::Agriculture,
        ));
        corpus.push(post(
            7,
            "quarry gossip only",
            2016,
            Region::SouthAmerica,
            TargetApplication::Agriculture,
        ));
        index.append(&corpus, 2);
        assert_eq!(mentioning(&index, &corpus, "immooff"), vec![4]);
        assert_eq!(index.with_hashtag(&Hashtag::new("immooff")), &[4]);
        assert_eq!(
            index.query(&corpus, &Query::new().in_region(Region::SouthAmerica)),
            vec![4, 5]
        );
        assert_eq!(
            index.query(&corpus, &Query::new().about(TargetApplication::Agriculture)),
            vec![4, 5]
        );
        assert_answers_like_rebuild(&index, &corpus);
    }

    #[test]
    fn append_handles_dates_out_of_order_across_the_boundary() {
        let mut corpus = sample();
        let mut index = CorpusIndex::build(&corpus);
        // The appended posts pre-date the indexed ones: window filtering must
        // still answer from the per-post date array, not any assumed ordering.
        corpus.push(post(
            8,
            "ancient #dpfdelete thread",
            2016,
            Region::Europe,
            TargetApplication::Excavator,
        ));
        index.append(&corpus, 1);
        assert_eq!(
            index.query(&corpus, &Query::new().within(DateWindow::years(2015, 2017))),
            vec![4]
        );
        assert_eq!(
            index.query(&corpus, &Query::new().within(DateWindow::years(2019, 2023))),
            vec![0, 1, 2, 3]
        );
        assert_answers_like_rebuild(&index, &corpus);
    }

    #[test]
    fn repeated_small_appends_equal_one_build() {
        let full = scenario::excavator_europe(11);
        let posts: Vec<Post> = full.posts().to_vec();
        let mut corpus = Corpus::new();
        let mut index = CorpusIndex::build(&corpus);
        for chunk in posts.chunks(7) {
            for post in chunk {
                corpus.push(post.clone());
            }
            index.append(&corpus, chunk.len());
        }
        assert_eq!(index.post_count(), full.posts().len());
        assert_answers_like_rebuild(&index, &corpus);
    }

    #[test]
    fn candidates_from_an_id_are_the_tail_of_the_full_answer() {
        let corpus = scenario::excavator_europe(11);
        let index = CorpusIndex::build(&corpus);
        let mut queries = probe_queries();
        // A whitespace-bearing keyword takes the scan instead of the lists.
        queries.push(Query::new().with_keyword("the").with_keyword("dpf delete"));
        let posts = corpus.len() as u32;
        for query in &queries {
            let all = index.content_candidates(&corpus, query, 0);
            for from in [1, posts / 3, posts - 1, posts, posts + 5] {
                let tail: Vec<u32> = all.iter().copied().filter(|id| *id >= from).collect();
                assert_eq!(
                    index.content_candidates(&corpus, query, from),
                    tail,
                    "query {query:?} from {from}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "CorpusIndex::append")]
    fn append_panics_when_the_claimed_count_is_wrong() {
        let mut corpus = sample();
        let mut index = CorpusIndex::build(&corpus);
        corpus.push(post(
            9,
            "one more",
            2022,
            Region::Europe,
            TargetApplication::Excavator,
        ));
        index.append(&corpus, 2); // one post was appended, not two
    }
}
