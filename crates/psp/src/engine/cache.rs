//! Persistable per-post text signals — the serialised form of the engines'
//! memoised signal cache.
//!
//! A warm engine has paid the text-mining pipeline once per post (intent
//! score, mined prices).  [`SignalCacheFile`] makes that investment survive a
//! process restart: export it from the engine
//! ([`LiveEngine::export_signal_cache`](super::LiveEngine::export_signal_cache)),
//! save it as JSON next to the serialised corpus
//! ([`socialsim::corpus::Corpus::save_json`]), and load it into a freshly
//! built engine on the next cold start — the pipeline then never runs,
//! because every post's signals arrive pre-computed (bit-identical: the JSON
//! float encoding round-trips exactly).
//!
//! The file is **versioned and validated** before a single signal is
//! installed: the layout version, the intent lexicon the signals were scored
//! with, the corpus length, and every post id (in global corpus order) must
//! match, so a cache from a different, grown, or re-generated corpus is
//! rejected as a whole rather than silently corrupting scores.
//!
//! The layout is columnar (ids / intents / per-post price counts / flattened
//! prices) — compact to serialise and cheap to walk when installing.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;
use textmine::sentiment::IntentLexicon;

/// The on-disk layout version; bumped whenever the signal semantics or the
/// file shape change so stale caches are rejected instead of misread.
pub const SIGNAL_CACHE_VERSION: u32 = 1;

/// The serialised signal cache: one row per post, in global corpus order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignalCacheFile {
    /// Layout version ([`SIGNAL_CACHE_VERSION`]).
    pub version: u32,
    /// The intent lexicon the signals were scored with — a cache scored under
    /// different weights must not warm an engine.
    pub lexicon: IntentLexicon,
    /// Post ids in corpus order; validated id-by-id on load.
    pub post_ids: Vec<u64>,
    /// Text-mined intent score per post, aligned with `post_ids`.
    pub intents: Vec<f64>,
    /// Number of mined prices per post, aligned with `post_ids`.
    pub price_counts: Vec<u32>,
    /// Mined prices, flattened in post order.
    pub prices: Vec<f64>,
}

/// Why a cache was rejected (or could not be read/written).
#[derive(Debug, Clone, PartialEq)]
pub enum SignalCacheError {
    /// The layout version does not match [`SIGNAL_CACHE_VERSION`].
    Version {
        /// The version found in the file.
        found: u32,
    },
    /// The cache was scored with a different intent lexicon.
    LexiconMismatch,
    /// The cache covers a different number of posts than the corpus.
    LengthMismatch {
        /// Posts covered by the cache.
        cached: usize,
        /// Posts in the corpus being warmed.
        corpus: usize,
    },
    /// A post id in the cache does not match the corpus at the same position.
    PostIdMismatch {
        /// Global post index at which the mismatch was found.
        index: usize,
        /// The id recorded in the cache.
        cached: u64,
        /// The id found in the corpus.
        found: u64,
    },
    /// The columns disagree with each other (truncated or tampered file).
    Corrupt(String),
    /// A filesystem or serialisation failure.
    Io(String),
}

impl fmt::Display for SignalCacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Version { found } => write!(
                f,
                "signal cache layout version {found} != supported {SIGNAL_CACHE_VERSION}"
            ),
            Self::LexiconMismatch => {
                write!(f, "signal cache was scored with a different intent lexicon")
            }
            Self::LengthMismatch { cached, corpus } => write!(
                f,
                "signal cache covers {cached} posts but the corpus has {corpus}"
            ),
            Self::PostIdMismatch {
                index,
                cached,
                found,
            } => write!(
                f,
                "signal cache post id {cached} != corpus post id {found} at index {index}"
            ),
            Self::Corrupt(why) => write!(f, "signal cache is corrupt: {why}"),
            Self::Io(why) => write!(f, "signal cache i/o failed: {why}"),
        }
    }
}

impl std::error::Error for SignalCacheError {}

impl SignalCacheFile {
    /// An empty cache shell at the current version, ready to be filled in
    /// global post order.
    pub(crate) fn empty(lexicon: IntentLexicon, posts: usize) -> Self {
        Self {
            version: SIGNAL_CACHE_VERSION,
            lexicon,
            post_ids: Vec::with_capacity(posts),
            intents: Vec::with_capacity(posts),
            price_counts: Vec::with_capacity(posts),
            prices: Vec::new(),
        }
    }

    /// Appends one post's row.  Rows must arrive in global corpus order.
    pub(crate) fn push_row(&mut self, post_id: u64, intent: f64, prices: &[f64]) {
        self.post_ids.push(post_id);
        self.intents.push(intent);
        self.price_counts.push(prices.len() as u32);
        self.prices.extend_from_slice(prices);
    }

    /// Number of posts the cache covers.
    #[must_use]
    pub fn post_count(&self) -> usize {
        self.post_ids.len()
    }

    /// Validates version, lexicon and column shapes against a corpus of
    /// `corpus_len` posts scored with `lexicon`; post ids are checked
    /// separately by the engine, against its corpus.
    pub(crate) fn check_shape(
        &self,
        corpus_len: usize,
        lexicon: &IntentLexicon,
    ) -> Result<(), SignalCacheError> {
        if self.version != SIGNAL_CACHE_VERSION {
            return Err(SignalCacheError::Version {
                found: self.version,
            });
        }
        if self.lexicon != *lexicon {
            return Err(SignalCacheError::LexiconMismatch);
        }
        if self.post_ids.len() != corpus_len {
            return Err(SignalCacheError::LengthMismatch {
                cached: self.post_ids.len(),
                corpus: corpus_len,
            });
        }
        if self.intents.len() != self.post_ids.len()
            || self.price_counts.len() != self.post_ids.len()
        {
            return Err(SignalCacheError::Corrupt(format!(
                "column lengths disagree: {} ids, {} intents, {} price counts",
                self.post_ids.len(),
                self.intents.len(),
                self.price_counts.len()
            )));
        }
        let expected_prices: usize = self.price_counts.iter().map(|c| *c as usize).sum();
        if self.prices.len() != expected_prices {
            return Err(SignalCacheError::Corrupt(format!(
                "price column has {} values but the counts sum to {expected_prices}",
                self.prices.len()
            )));
        }
        Ok(())
    }

    /// Prefix sums of `price_counts`: `offsets[i]..offsets[i + 1]` slices the
    /// flattened price column for post index `i`.  Call after
    /// [`check_shape`](Self::check_shape) (the sums are trusted to line up).
    pub(crate) fn price_offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.price_counts.len() + 1);
        let mut total = 0_usize;
        offsets.push(0);
        for count in &self.price_counts {
            total += *count as usize;
            offsets.push(total);
        }
        offsets
    }

    /// Serialises the cache as JSON to `path`, creating parent directories as
    /// needed.  The write is atomic ([`socialsim::persist::atomic_write`]):
    /// a crash mid-save leaves the previous file at `path` intact.
    ///
    /// # Errors
    ///
    /// Returns [`SignalCacheError::Io`] when serialisation or a filesystem
    /// step fails.
    pub fn save(&self, path: &Path) -> Result<(), SignalCacheError> {
        let json = serde_json::to_string(self)
            .map_err(|err| SignalCacheError::Io(format!("serialise signal cache: {err:?}")))?;
        socialsim::persist::atomic_write(path, json.as_bytes()).map_err(SignalCacheError::Io)
    }

    /// Loads a cache from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`SignalCacheError::Io`] when the file is unreadable or
    /// malformed.  Shape and corpus validation happen at install time
    /// (`load_signal_cache` on the engines).
    pub fn load(path: &Path) -> Result<Self, SignalCacheError> {
        let text = std::fs::read_to_string(path)
            .map_err(|err| SignalCacheError::Io(format!("read {}: {err}", path.display())))?;
        serde_json::from_str(&text)
            .map_err(|err| SignalCacheError::Io(format!("parse {}: {err:?}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SignalCacheFile {
        let mut cache = SignalCacheFile::empty(IntentLexicon::default(), 3);
        cache.push_row(10, 1.5, &[360.0]);
        cache.push_row(11, 0.0, &[]);
        cache.push_row(12, 2.0, &[420.0, 399.99]);
        cache
    }

    #[test]
    fn shape_check_accepts_a_consistent_file() {
        assert_eq!(sample().check_shape(3, &IntentLexicon::default()), Ok(()));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut cache = sample();
        cache.version = SIGNAL_CACHE_VERSION + 1;
        assert!(matches!(
            cache.check_shape(3, &IntentLexicon::default()),
            Err(SignalCacheError::Version { .. })
        ));
    }

    #[test]
    fn wrong_lexicon_is_rejected() {
        let other = IntentLexicon {
            engagement_weight: 2.0,
            ..IntentLexicon::default()
        };
        assert!(matches!(
            sample().check_shape(3, &other),
            Err(SignalCacheError::LexiconMismatch)
        ));
    }

    #[test]
    fn wrong_length_is_rejected() {
        assert_eq!(
            sample().check_shape(4, &IntentLexicon::default()),
            Err(SignalCacheError::LengthMismatch {
                cached: 3,
                corpus: 4
            })
        );
    }

    #[test]
    fn truncated_columns_are_rejected() {
        let mut cache = sample();
        cache.intents.pop();
        assert!(matches!(
            cache.check_shape(3, &IntentLexicon::default()),
            Err(SignalCacheError::Corrupt(_))
        ));
        let mut cache = sample();
        cache.prices.pop();
        assert!(matches!(
            cache.check_shape(3, &IntentLexicon::default()),
            Err(SignalCacheError::Corrupt(_))
        ));
    }

    #[test]
    fn price_offsets_slice_the_flat_column() {
        let cache = sample();
        let offsets = cache.price_offsets();
        assert_eq!(offsets, vec![0, 1, 1, 3]);
        assert_eq!(&cache.prices[offsets[2]..offsets[3]], &[420.0, 399.99]);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let cache = sample();
        let json = serde_json::to_string(&cache).unwrap();
        assert_eq!(
            serde_json::from_str::<SignalCacheFile>(&json).unwrap(),
            cache
        );
    }

    #[test]
    fn interrupted_save_leaves_the_previous_cache_file_intact() {
        let dir =
            std::env::temp_dir().join(format!("psp_cache_atomic_save_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("signals.json");
        let old = sample();
        old.save(&path).unwrap();
        // A directory squatting on the deterministic temp path makes the
        // next save fail before the published file could be touched — the
        // partial-write simulation.
        std::fs::create_dir(dir.join("signals.json.tmp")).unwrap();
        let mut newer = sample();
        newer.push_row(13, 0.5, &[100.0]);
        assert!(matches!(newer.save(&path), Err(SignalCacheError::Io(_))));
        assert_eq!(SignalCacheFile::load(&path).unwrap(), old);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_display_their_cause() {
        let text = SignalCacheError::LengthMismatch {
            cached: 2,
            corpus: 5,
        }
        .to_string();
        assert!(text.contains('2') && text.contains('5'));
        assert!(SignalCacheError::Version { found: 9 }
            .to_string()
            .contains('9'));
    }
}
