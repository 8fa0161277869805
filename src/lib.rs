//! Umbrella crate for the PSP framework reproduction.
//!
//! `psp-suite` re-exports the workspace crates under one roof so the runnable
//! examples (`examples/`) and cross-crate integration tests (`tests/`) have a single
//! dependency, and so downstream users can depend on one crate and pick the pieces
//! they need:
//!
//! * [`vehicle`] — E/E architectures, attack surfaces, reachability, standards
//!   graph, development life cycle;
//! * [`iso21434`] — the ISO/SAE-21434 TARA engine and two of its attack-feasibility
//!   models;
//! * [`socialsim`] — the deterministic social-media corpus simulator;
//! * [`textmine`] — tokenisation, intent scoring, price mining, keyword
//!   co-occurrence;
//! * [`market`] — sales, market share, annual reports, pricing, break-even
//!   analysis;
//! * [`psp`] — the PSP dynamic TARA framework itself (SAI, weight generation,
//!   financial feasibility, dynamic TARA integration).
//!
//! # Quickstart
//!
//! ```
//! use psp_suite::psp::config::PspConfig;
//! use psp_suite::psp::keyword_db::KeywordDatabase;
//! use psp_suite::psp::workflow::PspWorkflow;
//! use psp_suite::socialsim::scenario;
//!
//! let corpus = scenario::excavator_europe(7);
//! let outcome = PspWorkflow::new(PspConfig::excavator_europe(), KeywordDatabase::excavator_seed())
//!     .run(&corpus);
//! assert_eq!(outcome.sai.top().unwrap().scenario, "dpf-tampering");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use iso21434;
pub use market;
pub use psp;
pub use socialsim;
pub use textmine;
pub use vehicle;
