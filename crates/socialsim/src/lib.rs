//! Deterministic social-media corpus simulator — the Twitter substitute of this
//! reproduction.
//!
//! The PSP paper's proof of concept queries the Twitter API for posts matching
//! attack hashtags (#dpfdelete, #egrremoval, #chiptuning, …) and scores each threat
//! topic by views, interactions and popularity.  Live Twitter data is neither
//! available offline nor reproducible, so this crate provides a synthetic corpus
//! with the same observable surface:
//!
//! * [`post`] — posts with text, hashtags, author, timestamp, region and
//!   [`engagement`] metrics,
//! * [`user`] — authors with follower counts, credibility and bot flags,
//! * [`trend`] — per-topic intensity profiles over years (this is where the
//!   Figure 9-B/9-C trend inversion is encoded),
//! * [`generator`] — a seedable corpus generator driven by trend profiles,
//! * [`corpus`] + [`query`] — an append-only post list with a linear-scan
//!   search API shaped like a social-media search endpoint (keywords,
//!   hashtags, region, time window),
//! * [`index`] — the inverted [`CorpusIndex`] (mention vocabulary, hashtag
//!   posting lists, region/application bitsets, per-post dates), the one index
//!   over a corpus: it answers the same queries without rescanning, and
//!   [`CorpusIndex::append`] keeps it live as posts stream in,
//! * [`poisoning`] — bot-campaign injection used by the poisoning-defence
//!   experiments,
//! * [`scenario`] — ready-made corpora: the passenger-car tuning scene and the
//!   European excavator scene of the paper's worked example.
//!
//! # Example
//!
//! ```
//! use socialsim::scenario;
//! use socialsim::query::Query;
//!
//! let corpus = scenario::excavator_europe(42);
//! let hits = corpus.search(&Query::new().with_keyword("dpf"));
//! assert!(!hits.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod engagement;
pub mod generator;
pub mod hashtag;
pub mod index;
pub mod poisoning;
pub mod post;
pub mod query;
pub mod scenario;
pub mod time;
pub mod trend;
pub mod user;

pub use corpus::Corpus;
pub use engagement::Engagement;
pub use hashtag::Hashtag;
pub use index::CorpusIndex;
pub use post::{Post, Region, TargetApplication};
pub use query::Query;
pub use time::SimDate;
pub use trend::{TopicTrend, TrendModel};
pub use user::User;
