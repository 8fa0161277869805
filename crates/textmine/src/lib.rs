//! Offline NLP / text-mining substrate for the PSP framework.
//!
//! The paper uses NLP for three concrete jobs, and this crate implements exactly
//! those from scratch, without external model downloads:
//!
//! 1. **Scoring posts** — tokenisation ([`token`], [`normalize`], [`stopwords`]) and
//!    lexicon-based intent/sentiment scoring ([`sentiment`]) to decide how strongly a
//!    post signals a real tampering intent rather than news reporting.
//! 2. **Learning new attack keywords** — hashtag co-occurrence mining
//!    ([`cooccurrence`]) so the keyword-attack database grows between runs
//!    (paper Figure 7, block 5).
//! 3. **Price mining** — extracting advertised prices from post text ([`price`]) and
//!    clustering them ([`cluster`]) to estimate the purchase price per insider
//!    attack (PPIA) used by the financial model (paper Figure 10, block 2).
//!
//! [`pipeline`] wires the pieces into a single document-processing call.
//!
//! # Example
//!
//! ```
//! use textmine::price::extract_prices;
//! let prices = extract_prices("DPF delete kit 360 EUR shipped, was €420 last month");
//! assert_eq!(prices, vec![360.0, 420.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod cooccurrence;
pub mod normalize;
pub mod pipeline;
pub mod price;
pub mod reference;
pub mod sentiment;
pub mod stopwords;
pub mod token;

pub use cluster::{kmeans_1d, Cluster};
pub use cooccurrence::CooccurrenceMatrix;
pub use pipeline::{DocumentAnalysis, TextPipeline, TextSignals};
pub use sentiment::{IntentLexicon, IntentScore};
pub use token::tokenize;
