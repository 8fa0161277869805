//! Shared helpers for the experiment-regeneration harness.
//!
//! Every table and figure of the paper's evaluation is regenerated by two entry
//! points built on these helpers:
//!
//! * the `repro` binary (`cargo run -p psp-bench --bin repro -- <experiment|all>`)
//!   prints the rows / series a figure or table reports, and
//! * one Criterion bench per experiment measures the cost of producing it.
//!
//! The helpers pin the corpus seed so that every run of the harness reproduces the
//! numbers recorded in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;

use psp::config::PspConfig;
use psp::engine::LiveEngine;
use psp::keyword_db::KeywordDatabase;
use psp::sai::SaiList;
use psp::workflow::{PspOutcome, PspWorkflow};
use socialsim::corpus::Corpus;
use socialsim::post::{Region, TargetApplication};
use socialsim::scenario;
use socialsim::time::DateWindow;
use socialsim::trend::{TopicTrend, TrendModel};

/// The corpus seed every experiment uses.
pub const EXPERIMENT_SEED: u64 = 42;

/// The recent analysis window of paper Figure 9-C.
#[must_use]
pub fn recent_window() -> DateWindow {
    DateWindow::years(2021, 2023)
}

/// The passenger-car / Europe corpus at the experiment seed.
#[must_use]
pub fn passenger_corpus() -> Corpus {
    scenario::passenger_car_europe(EXPERIMENT_SEED)
}

/// The excavator / Europe corpus at the experiment seed.
#[must_use]
pub fn excavator_corpus() -> Corpus {
    scenario::excavator_europe(EXPERIMENT_SEED)
}

/// The SAI list of the passenger-car scene (optionally windowed).
#[must_use]
pub fn passenger_sai(window: Option<DateWindow>) -> SaiList {
    let mut config = PspConfig::passenger_car_europe();
    if let Some(w) = window {
        config = config.with_window(w);
    }
    SaiList::compute(
        &passenger_corpus(),
        &KeywordDatabase::passenger_car_seed(),
        &config,
    )
}

/// The SAI list of the excavator scene.
#[must_use]
pub fn excavator_sai() -> SaiList {
    SaiList::compute(
        &excavator_corpus(),
        &KeywordDatabase::excavator_seed(),
        &PspConfig::excavator_europe(),
    )
}

/// A full PSP workflow run on the passenger-car scene (optionally windowed).
#[must_use]
pub fn passenger_outcome(window: Option<DateWindow>) -> PspOutcome {
    let mut config = PspConfig::passenger_car_europe();
    if let Some(w) = window {
        config = config.with_window(w);
    }
    PspWorkflow::new(config, KeywordDatabase::passenger_car_seed()).run(&passenger_corpus())
}

/// The excavator scene scaled to roughly `total_posts` posts, shared by the
/// `engine_scaling` and `engine_ingest` benches: one topic per seeded attack
/// keyword plus an equal volume of benign machine chatter (posts no attack
/// query matches — the realistic shape of a social corpus), spread uniformly
/// over six years (2018–2023).  Different seeds produce disjoint post streams
/// of the same shape, which is how `engine_ingest` synthesises its arriving
/// batches.
#[must_use]
pub fn scaled_excavator_corpus(total_posts: usize, seed: u64) -> Corpus {
    let attack_topics: [(&str, &str, f64); 10] = [
        ("dpf-delete", "dpfdelete", 360.0),
        ("dpf-off", "dpfoff", 340.0),
        ("egr-delete", "egrdelete", 250.0),
        ("egr-removal", "egrremoval", 260.0),
        ("adblue-emulator", "adblueemulator", 180.0),
        ("scr-off", "scroff", 190.0),
        ("chip-tuning", "chiptuning", 500.0),
        ("power-boost", "powerboost", 480.0),
        ("speed-limiter", "speedlimiteroff", 150.0),
        ("hour-meter", "hourmeterrollback", 120.0),
    ];
    let noise_topics: [&str; 10] = [
        "jobsite",
        "quarrylife",
        "sunsetdig",
        "bigiron",
        "trenchday",
        "steeltracks",
        "mudseason",
        "operatorview",
        "liftplan",
        "siteprep",
    ];
    let years = 6; // 2018..=2023
    let per_cell =
        (total_posts / ((attack_topics.len() + noise_topics.len()) * years)).max(1) as u32;
    let mut model = TrendModel::new(TargetApplication::Excavator, Region::Europe);
    for (name, tag, price) in attack_topics {
        model = model.topic(
            TopicTrend::new(name)
                .with_hashtag(tag)
                .volume_range(2018, 2023, per_cell)
                .engagement(2_000, 60)
                .advertised_price(price),
        );
    }
    for tag in noise_topics {
        model = model.topic(
            TopicTrend::new(tag)
                .with_hashtag(tag)
                .volume_range(2018, 2023, per_cell)
                .engagement(1_500, 40),
        );
    }
    socialsim::generator::CorpusGenerator::new(seed).generate(&model)
}

/// A cold build-and-score that moves the corpus instead of copying it:
/// `build` takes `corpus` by value, `score` runs on the fresh engine, and
/// [`LiveEngine::into_corpus`] hands the corpus back.  Benches that rebuild an
/// engine inside a timed closure use it, so the timing pays for the index and
/// the scoring but never for a corpus copy.
pub fn score_cold<R>(
    corpus: &mut Corpus,
    build: impl FnOnce(Corpus) -> LiveEngine,
    score: impl FnOnce(&LiveEngine) -> R,
) -> R {
    let engine = build(std::mem::take(corpus));
    let result = score(&engine);
    *corpus = engine.into_corpus();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_are_pinned_to_the_experiment_seed() {
        assert_eq!(passenger_corpus(), scenario::passenger_car_europe(42));
        assert_eq!(excavator_corpus(), scenario::excavator_europe(42));
    }

    #[test]
    fn a_cold_score_hands_the_corpus_back_unchanged() {
        let mut corpus = excavator_corpus();
        let db = KeywordDatabase::excavator_seed();
        let config = PspConfig::excavator_europe();
        let sai = score_cold(&mut corpus, LiveEngine::new, |e| e.sai_list(&db, &config));
        assert_eq!(corpus, excavator_corpus());
        assert_eq!(sai, SaiList::compute(&corpus, &db, &config));
    }

    #[test]
    fn helpers_produce_nonempty_artifacts() {
        assert!(!passenger_sai(None).is_empty());
        assert!(!excavator_sai().is_empty());
        assert!(!passenger_outcome(Some(recent_window()))
            .insider_scenarios()
            .is_empty());
    }
}
