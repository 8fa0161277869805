//! The post corpus and its search API.

use crate::post::Post;
use crate::query::Query;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::sync::Arc;

/// Elements per sealed chunk of a [`Chunks`] sequence.
const CHUNK: usize = 1024;

/// An append-only sequence whose clones share all but its last chunk: the
/// storage of a [`Corpus`], and of any per-post column that grows with one
/// (the engines' signal caches).
///
/// Every full run of `CHUNK` (1,024) elements is sealed into an `Arc<[T]>`
/// that clones share; only the tail after the last sealed chunk is owned.
/// Cloning `n` elements copies `n / 1024` pointers and fewer than 1,024
/// elements, and dropping a clone frees only its own tail.  Element `i` sits
/// at the same place whatever the history of pushes, so equal sequences have
/// equal layouts.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunks<T> {
    /// Full chunks of exactly `CHUNK` elements, in insertion order.
    sealed: Vec<Arc<[T]>>,
    /// The elements after the last sealed chunk: fewer than `CHUNK`.
    tail: Vec<T>,
}

impl<T> Default for Chunks<T> {
    fn default() -> Self {
        Self {
            sealed: Vec::new(),
            tail: Vec::new(),
        }
    }
}

impl<T> Chunks<T> {
    /// Appends an element, sealing the tail once it is a full chunk.
    pub fn push(&mut self, item: T) {
        self.tail.push(item);
        if self.tail.len() == CHUNK {
            // `Drain` knows its length, so the chunk is one allocation and
            // the tail keeps its buffer for the next chunk.
            self.sealed.push(self.tail.drain(..).collect());
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK + self.tail.len()
    }

    /// Whether the sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.iter_from(0)
    }

    /// Iterates from position `from` on, in insertion order.  Skipping to
    /// `from` costs one chunk lookup, not a walk over the elements before it.
    pub fn iter_from(&self, from: usize) -> impl Iterator<Item = &T> {
        let first = (from / CHUNK).min(self.sealed.len());
        self.sealed[first..]
            .iter()
            .flat_map(|chunk| chunk.iter())
            .chain(&self.tail)
            .skip(from - first * CHUNK)
    }
}

impl<T> std::ops::Index<usize> for Chunks<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        match self.sealed.get(i / CHUNK) {
            Some(chunk) => &chunk[i % CHUNK],
            None => &self.tail[i - self.sealed.len() * CHUNK],
        }
    }
}

impl<T> Extend<T> for Chunks<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

/// A sequence, exactly like a `Vec<T>`: the layout never reaches the bytes.
impl<T: Serialize> Serialize for Chunks<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_seq();
        for item in self.iter() {
            s.serialize_element(item);
        }
        s.end_seq();
    }
}

impl<T: Deserialize> Deserialize for Chunks<T> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, serde::Error> {
        d.deserialize_seq()?;
        let mut chunks = Self::default();
        while d.next_element()? {
            chunks.push(T::deserialize(d)?);
        }
        Ok(chunks)
    }
}

/// An append-only collection of posts with a search API shaped like a
/// social-media search endpoint.  It holds the posts and nothing derived from
/// them: [`crate::index::CorpusIndex`] is the one index over a corpus, so a
/// deserialised corpus is complete as it stands.
///
/// Posts never change once appended, so the corpus is persistent: it keeps
/// them in [`Chunks`], and a clone shares every sealed chunk.  That is what
/// makes a copy-on-publish of a served engine cost a chunk table and a tail,
/// not a copy of every post.  It serialises as `{"posts":[...]}`, the form of
/// a plain `Vec<Post>` field.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Corpus {
    posts: Chunks<Post>,
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
        corpus.extend(posts);
        corpus
    }

    /// Appends a post.
    pub fn push(&mut self, post: Post) {
        self.posts.push(post);
    }

    /// Merges another corpus into this one.
    pub fn merge(&mut self, other: Corpus) {
        self.extend(other.into_posts());
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

    /// The post at position `id` (insertion order).
    ///
    /// # Panics
    ///
    /// Panics when `id >= self.len()`.
    #[must_use]
    pub fn post(&self, id: usize) -> &Post {
        &self.posts[id]
    }

    /// Consumes the corpus, returning its posts in insertion order.  They are
    /// cloned out of the chunks, which other corpora may share.
    #[must_use]
    pub fn into_posts(self) -> Vec<Post> {
        self.iter().cloned().collect()
    }

    /// Iterates over the posts in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Post> {
        self.posts.iter()
    }

    /// Iterates over the posts from position `from` on: the posts appended
    /// after the first `from`.
    pub fn iter_from(&self, from: usize) -> impl Iterator<Item = &Post> {
        self.posts.iter_from(from)
    }

    /// Posts matching a query, in insertion order.
    #[must_use]
    pub fn search(&self, query: &Query) -> Vec<&Post> {
        self.iter().filter(|p| query.matches(p)).collect()
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

    /// `n` distinct posts, enough to fill chunks.
    fn numbered_posts(n: usize) -> Vec<Post> {
        (0..n)
            .map(|i| {
                make_post(
                    i as u64,
                    &format!("post {i} #tag{}", i % 7),
                    2018 + (i % 6) as i32,
                    i as u64,
                )
            })
            .collect()
    }

    /// The derived form the hand-written impls must match byte for byte.
    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct PlainCorpus {
        posts: Vec<Post>,
    }

    const SIZES: [usize; 5] = [0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3];

    #[test]
    fn chunked_corpora_serialize_like_a_plain_post_vector() {
        for n in SIZES {
            let posts = numbered_posts(n);
            let json = serde_json::to_string(&Corpus::from_posts(posts.clone())).unwrap();
            assert_eq!(
                json,
                serde_json::to_string(&PlainCorpus { posts }).unwrap(),
                "{n} posts"
            );
        }
    }

    #[test]
    fn chunked_corpora_round_trip_through_json() {
        for n in SIZES {
            let corpus = Corpus::from_posts(numbered_posts(n));
            let back: Corpus =
                serde_json::from_str(&serde_json::to_string(&corpus).unwrap()).unwrap();
            assert_eq!(back, corpus, "{n} posts");
            assert_eq!(back.len(), n);
        }
    }

    #[test]
    fn deserialization_accepts_what_the_derived_form_accepts() {
        let posts = serde_json::to_string(&numbered_posts(3)).unwrap();
        let one = serde_json::to_string(&numbered_posts(1)).unwrap();
        // Unknown fields are skipped and the first `posts` wins.
        let json = format!(r#"{{"x":[1,{{"y":2}}],"posts":{posts},"posts":{one}}}"#);
        let plain: PlainCorpus = serde_json::from_str(&json).unwrap();
        let corpus: Corpus = serde_json::from_str(&json).unwrap();
        assert_eq!(corpus.into_posts(), plain.posts);
        for bad in [r#"{"x":1}"#, r#"[]"#, r#"{"posts":{}}"#] {
            assert!(serde_json::from_str::<PlainCorpus>(bad).is_err(), "{bad}");
            assert!(serde_json::from_str::<Corpus>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn indexed_access_and_iteration_agree() {
        for n in SIZES {
            let posts = numbered_posts(n);
            let corpus = Corpus::from_posts(posts.clone());
            let iterated: Vec<&Post> = corpus.iter().collect();
            assert_eq!(iterated, posts.iter().collect::<Vec<_>>(), "{n} posts");
            for (i, post) in corpus.iter().enumerate() {
                assert_eq!(corpus.post(i), post);
            }
            for from in [0, 1, CHUNK - 1, CHUNK, CHUNK + 2, n, n + 5] {
                assert!(
                    corpus.iter_from(from).eq(corpus.iter().skip(from)),
                    "{n} from {from}"
                );
            }
            assert_eq!(corpus.into_posts(), posts);
        }
    }

    #[test]
    fn a_clone_shares_its_sealed_chunks_and_pushes_stay_private() {
        let original = Corpus::from_posts(numbered_posts(2 * CHUNK + 3));
        let mut copy = original.clone();
        assert_eq!(original.posts.sealed.len(), 2);
        for (a, b) in original.posts.sealed.iter().zip(&copy.posts.sealed) {
            assert!(Arc::ptr_eq(a, b));
        }
        // Fill the clone's tail past a chunk boundary: it seals a chunk of
        // its own, and the original does not change.
        let before = original.clone().into_posts();
        for post in numbered_posts(CHUNK) {
            copy.push(post);
        }
        assert_eq!(copy.posts.sealed.len(), 3);
        assert_eq!(copy.len(), 3 * CHUNK + 3);
        assert_eq!(original.len(), 2 * CHUNK + 3);
        assert_eq!(original.clone().into_posts(), before);
        assert!(Arc::ptr_eq(
            &original.posts.sealed[1],
            &copy.posts.sealed[1]
        ));
    }

    #[test]
    fn extend_appends_posts() {
        let mut c = Corpus::new();
        c.extend(vec![make_post(9, "x", 2020, 1)]);
        assert_eq!(c.len(), 1);
    }
}
