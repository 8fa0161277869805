//! The persistable signal cache end to end: export → serialise → load into a
//! cold engine → score, bit-identical to a fresh compute, also across ingest
//! cycles and through a durable checkpoint and recovery — and hard rejection
//! of every stale/mismatched cache.

use proptest::prelude::*;
use psp_suite::psp::config::PspConfig;
use psp_suite::psp::engine::{LiveEngine, SignalCacheError, SignalCacheFile, SIGNAL_CACHE_VERSION};
use psp_suite::psp::keyword_db::KeywordDatabase;
use psp_suite::psp::sai::SaiList;
use psp_suite::psp::service::durability::DurableStore;
use psp_suite::psp::service::journal::FaultFs;
use psp_suite::socialsim::corpus::Corpus;
use psp_suite::socialsim::engagement::Engagement;
use psp_suite::socialsim::post::{Post, Region, TargetApplication};
use psp_suite::socialsim::scenario;
use psp_suite::socialsim::time::SimDate;
use psp_suite::socialsim::user::User;
use psp_suite::textmine::pipeline::TextPipeline;
use psp_suite::textmine::sentiment::IntentLexicon;
use std::path::PathBuf;

fn db_and_config() -> (KeywordDatabase, PspConfig) {
    (
        KeywordDatabase::excavator_seed(),
        PspConfig::excavator_europe(),
    )
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("psp_signal_cache_{name}_{}", std::process::id()))
}

#[test]
fn cache_round_trip_through_json_restores_warm_scoring() {
    let corpus = scenario::excavator_europe(7);
    let (db, config) = db_and_config();
    let warm = LiveEngine::new(corpus.clone());
    let fresh_scores = warm.sai_list(&db, &config);

    // Export after scoring: every signal the queries touched is memoised, the
    // rest are materialised by the export itself.
    let cache = warm.export_signal_cache();
    assert_eq!(cache.post_count(), corpus.len());

    // Serialise through JSON — the round trip must be bit-exact, floats
    // included.
    let json = serde_json::to_string(&cache).unwrap();
    let reloaded: SignalCacheFile = serde_json::from_str(&json).unwrap();
    assert_eq!(reloaded, cache);

    // A cold engine warmed from the cache scores identically and reports
    // every post as installed — i.e. the text pipeline never needs to run.
    let cold = LiveEngine::new(corpus.clone());
    assert_eq!(cold.load_signal_cache(&reloaded).unwrap(), corpus.len());
    assert_eq!(cold.sai_list(&db, &config), fresh_scores);
    assert_eq!(
        cold.sai_list(&db, &config),
        SaiList::compute_naive(&corpus, &db, &config)
    );
}

#[test]
fn cold_restart_from_disk_skips_text_mining() {
    let corpus = scenario::excavator_europe(9);
    let (db, config) = db_and_config();
    let dir = temp_path("cold_restart");
    let _ = std::fs::remove_dir_all(&dir);

    // A durable engine ingests the corpus, scores it warm and checkpoints:
    // the corpus and its signal cache land in one checkpoint directory.
    let (store, mut engine, _) = DurableStore::recover(
        &dir,
        FaultFs::none(),
        || LiveEngine::new(Corpus::new()),
        |corpus, _| LiveEngine::new(corpus),
    )
    .unwrap();
    engine.ingest(corpus.clone().into_posts());
    let expected = engine.sai_list(&db, &config);
    let (generation, posts, _) = store.checkpoint(&engine).unwrap();
    assert_eq!((generation, posts), (1, corpus.len()));
    drop((store, engine));

    // "Restart": recovery hands the checkpointed cache to the engine build,
    // which installs a row for every post, so text mining never runs.
    let mut installed = None;
    let (_, recovered, report) = DurableStore::recover(
        &dir,
        FaultFs::none(),
        || panic!("a checkpointed directory needs no seed"),
        |corpus, signals| {
            let cache = signals.expect("the checkpoint carries the signal cache");
            let engine = LiveEngine::new(corpus);
            installed = Some(engine.load_signal_cache(&cache).unwrap());
            engine
        },
    )
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(report.checkpoint_generation, Some(1));
    assert_eq!(installed, Some(corpus.len()));
    assert_eq!(recovered.corpus(), &corpus);
    assert_eq!(recovered.sai_list(&db, &config), expected);
    assert_eq!(
        recovered.sai_list(&db, &config),
        SaiList::compute_naive(&corpus, &db, &config)
    );
}

#[test]
fn live_engine_cache_survives_ingest_cycles() {
    let seed = scenario::excavator_europe(7);
    let extra = scenario::excavator_europe(8).into_posts();
    let (db, config) = db_and_config();

    let mut live = LiveEngine::new(seed);
    live.ingest(extra);
    let expected = live.sai_list(&db, &config);
    let cache = live.export_signal_cache();

    // A cold live engine over the same grown corpus accepts the cache.
    let cold = LiveEngine::new(live.corpus().clone());
    assert_eq!(cold.load_signal_cache(&cache).unwrap(), cold.post_count());
    assert_eq!(cold.sai_list(&db, &config), expected);
    assert_eq!(
        expected,
        SaiList::compute_naive(cold.corpus(), &db, &config)
    );

    // After further ingestion the old cache no longer matches.
    let mut grown = cold;
    grown.ingest(scenario::excavator_europe(10).into_posts());
    assert!(matches!(
        grown.load_signal_cache(&cache),
        Err(SignalCacheError::LengthMismatch { .. })
    ));
}

#[test]
fn stale_and_mismatched_caches_are_rejected() {
    let corpus = scenario::excavator_europe(7);
    let engine = LiveEngine::new(corpus.clone());
    let cache = engine.export_signal_cache();

    // Wrong layout version.
    let mut stale = cache.clone();
    stale.version = SIGNAL_CACHE_VERSION + 1;
    assert!(matches!(
        engine.load_signal_cache(&stale),
        Err(SignalCacheError::Version { .. })
    ));

    // Wrong lexicon: an engine scoring under different weights must refuse a
    // default-lexicon cache.
    let harsh = TextPipeline::with_lexicon(IntentLexicon {
        deterrent_weight: 10.0,
        ..IntentLexicon::default()
    });
    let strict_engine = LiveEngine::with_pipeline(corpus.clone(), harsh);
    assert!(matches!(
        strict_engine.load_signal_cache(&cache),
        Err(SignalCacheError::LexiconMismatch)
    ));

    // Wrong corpus length (a truncated copy of the same corpus).
    let truncated_corpus = Corpus::from_posts(corpus.iter().take(corpus.len() - 1).cloned());
    let truncated_engine = LiveEngine::new(truncated_corpus.clone());
    assert!(matches!(
        truncated_engine.load_signal_cache(&cache),
        Err(SignalCacheError::LengthMismatch { .. })
    ));

    // Right length, wrong post ids.
    let mut forged = cache.clone();
    forged.post_ids[3] += 1_000_000;
    let result = engine.load_signal_cache(&forged);
    assert_eq!(
        result,
        Err(SignalCacheError::PostIdMismatch {
            index: 3,
            cached: forged.post_ids[3],
            found: corpus.post(3).id(),
        })
    );

    // Truncated columns.
    let mut truncated = cache.clone();
    truncated.intents.pop();
    assert!(matches!(
        engine.load_signal_cache(&truncated),
        Err(SignalCacheError::Corrupt(_))
    ));

    // None of the rejected loads may have warmed anything partially: a cold
    // engine still installs every post from the intact cache (already-warm
    // engines install 0 — their memoised signals are identical and kept).
    let cold = LiveEngine::new(corpus.clone());
    assert_eq!(cold.load_signal_cache(&cache).unwrap(), corpus.len());
    assert_eq!(engine.load_signal_cache(&cache).unwrap(), 0);
}

#[test]
fn a_checkpoint_missing_its_signal_cache_recovers_cold() {
    let corpus = scenario::excavator_europe(7);
    let (db, config) = db_and_config();
    let dir = temp_path("missing_signals");
    let _ = std::fs::remove_dir_all(&dir);
    // A fresh start checkpoints the seed as generation 0.
    DurableStore::recover(
        &dir,
        FaultFs::none(),
        || LiveEngine::new(corpus.clone()),
        |corpus, _| LiveEngine::new(corpus),
    )
    .unwrap();
    std::fs::remove_file(dir.join("checkpoints/ckpt-0/signals.json")).unwrap();

    // The cache is an optimisation, not state: the corpus still recovers,
    // the build gets no cache, and scores are mined afresh.
    let (_, recovered, report) = DurableStore::recover(
        &dir,
        FaultFs::none(),
        || panic!("a checkpointed directory needs no seed"),
        |corpus, signals| {
            assert!(signals.is_none());
            LiveEngine::new(corpus)
        },
    )
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(report.checkpoint_generation, Some(0));
    assert_eq!(
        recovered.sai_list(&db, &config),
        SaiList::compute_naive(&corpus, &db, &config)
    );
}

/// A compact random-corpus generator for the round-trip property below.
fn arb_corpus() -> impl Strategy<Value = Corpus> {
    const TEXTS: [&str; 8] = [
        "#dpfdelete kit for sale 360 EUR",
        "#egrdelete how-to guide",
        "stock machine is fine",
        "was €420, now 359,99 EUR",
        "authorities warn this is illegal",
        "ÖLWECHSEL am #jobsite",
        "",
        "#chiptuning stage 1 adds 40 hp",
    ];
    prop::collection::vec(
        (
            0usize..TEXTS.len(),
            2015i32..2024,
            0u64..50_000,
            prop_oneof![Just(Region::Europe), Just(Region::AsiaPacific)],
        ),
        0..25,
    )
    .prop_map(|rows| {
        Corpus::from_posts(
            rows.into_iter()
                .enumerate()
                .map(|(id, (text, year, views, region))| {
                    Post::new(
                        id as u64 + 1,
                        User::new("cache_prop_user", views / 100, 24),
                        TEXTS[text],
                        vec![],
                        SimDate::new(year, 6, 15),
                        region,
                        TargetApplication::Excavator,
                        Engagement::new(views, views / 50, views / 200, views / 400),
                    )
                }),
        )
    })
}

proptest! {
    /// Export → JSON → load → score is bit-identical to a fresh compute on
    /// random corpora (floats round-trip exactly through the serialised form).
    #[test]
    fn cache_round_trip_is_bit_exact_on_random_corpora(corpus in arb_corpus()) {
        let (db, config) = db_and_config();
        let cache = LiveEngine::new(corpus.clone()).export_signal_cache();
        let json = serde_json::to_string(&cache).unwrap();
        let reloaded: SignalCacheFile = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&reloaded, &cache);

        let cold = LiveEngine::new(corpus.clone());
        prop_assert_eq!(cold.load_signal_cache(&reloaded).unwrap(), corpus.len());
        prop_assert_eq!(
            cold.sai_list(&db, &config),
            SaiList::compute_naive(&corpus, &db, &config)
        );
    }
}
