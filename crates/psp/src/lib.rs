//! The PSP (PUNCH Softronix / Politecnico di Torino) dynamic TARA framework.
//!
//! This crate is the paper's primary contribution: a non-intrusive, dynamic layer on
//! top of the static ISO/SAE-21434 attack-feasibility models.  It works in two
//! distinct ways (paper Section III):
//!
//! 1. **Social-evidence-driven weight tuning** — the workflow of paper Figure 7:
//!    query a social corpus for attack keywords ([`keyword_db`]), compute the
//!    Social Attraction Index per threat topic ([`sai`]), split the entries into
//!    insider and outsider attacks ([`classify`]), learn new keywords for the next
//!    run ([`learning`]), and regenerate the G.9 attack-vector feasibility table
//!    with socially derived weights for insider threats ([`weights`],
//!    [`workflow`]).  [`timewindow`] adds the "since-2021" analysis of Figure 9-C.
//! 2. **Financial attack-feasibility model** — the workflow of paper Figure 10:
//!    estimate the number of potential attackers (`PAE`), mine the purchase price
//!    per insider attack (`PPIA`), compute the market value (`MV`, Equation 1), the
//!    break-even point (`BEP`, Equation 3) and the investment bound (`FC`,
//!    Equations 4–5), then map the result onto a feasibility rating
//!    ([`financial`]).
//!
//! [`dynamic_tara`] plugs the tuned weight tables back into the `iso21434` TARA
//! engine so a whole item analysis can be re-run "statically vs dynamically", and
//! [`report`] bundles everything into one serialisable artefact.
//!
//! All corpus scoring flows through [`engine::LiveEngine`], which indexes the
//! corpus once, memoises per-post text signals, and answers every
//! keyword/window query from the index instead of rescanning posts.  For
//! corpora that keep growing while being served, its streaming ingestion path
//! extends the index and signal cache in place, and
//! [`monitoring::LiveMonitor`] interleaves ingestion with
//! sliding-window re-evaluation on that one warm engine.  Many analysis
//! windows over one corpus are answered from a prefix-summed sweep plan, so a
//! monitoring sweep costs about one window's filter rather than one per
//! window.  [`service::TaraService`] puts the engine behind a
//! protocol-agnostic request/response surface with snapshot isolation —
//! concurrent score/sweep/matrix requests each run against one immutable,
//! generation-stamped engine snapshot while ingest publishes the next
//! generation — served either synchronously or on a built-in worker pool
//! (see `examples/tara_daemon.rs` for the stdin line-JSON daemon).
//!
//! # Example
//!
//! ```
//! use psp::config::PspConfig;
//! use psp::keyword_db::KeywordDatabase;
//! use psp::workflow::PspWorkflow;
//! use socialsim::scenario;
//!
//! let corpus = scenario::passenger_car_europe(42);
//! let config = PspConfig::passenger_car_europe();
//! let db = KeywordDatabase::passenger_car_seed();
//! let outcome = PspWorkflow::new(config, db).run(&corpus);
//! let table = outcome.insider_table("ecm-reprogramming").expect("scenario present");
//! // With the full history the physical vector dominates ECM reprogramming.
//! assert_eq!(table.ranking()[0], vehicle::attack_surface::AttackVector::Physical);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod config;
pub mod dynamic_tara;
pub mod engine;
pub mod error;
pub mod financial;
pub mod keyword_db;
pub mod learning;
pub mod monitoring;
pub mod report;
pub mod sai;
pub mod service;
pub mod timewindow;
pub mod weights;
pub mod workflow;

pub use classify::AttackOrigin;
pub use config::{PspConfig, SaiWeights};
pub use engine::{
    CellId, IngestReceipt, LiveEngine, MatrixResults, MatrixSpec, SaiScorer, StreamingScorer,
    WindowAxis,
};
pub use error::PspError;
pub use financial::{FinancialAssessment, FinancialInputs};
pub use keyword_db::{KeywordDatabase, KeywordProfile};
pub use report::PspReport;
pub use sai::{SaiEntry, SaiList};
pub use service::{ServiceRegistry, ServiceRequest, ServiceResponse, TaraService};
pub use weights::{WeightGenerator, WeightMapping};
pub use workflow::{PspOutcome, PspWorkflow};
