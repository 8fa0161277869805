//! Integration tests for streaming corpus ingestion: the live engine and the
//! live monitor absorb posts batch by batch and stay bit-identical to their
//! cold, full-rebuild counterparts across every deterministic scene.

use psp_suite::psp::config::PspConfig;
use psp_suite::psp::engine::{LiveEngine, SaiScorer, WindowAxis};
use psp_suite::psp::keyword_db::KeywordDatabase;
use psp_suite::psp::monitoring::{LiveMonitor, MonitoringSeries};
use psp_suite::psp::sai::SaiList;
use psp_suite::psp::timewindow::compare_windows;
use psp_suite::psp::weights::WeightGenerator;
use psp_suite::socialsim::corpus::Corpus;
use psp_suite::socialsim::engagement::Engagement;
use psp_suite::socialsim::post::{Post, Region, TargetApplication};
use psp_suite::socialsim::scenario;
use psp_suite::socialsim::time::{DateWindow, SimDate};
use psp_suite::socialsim::user::User;
use std::collections::BTreeMap;

fn post(id: u64, text: &str, year: i32, region: Region, app: TargetApplication) -> Post {
    Post::new(
        id,
        User::new("ingest_user", 120, 24),
        text,
        vec![],
        SimDate::new(year, 7, 4),
        region,
        app,
        Engagement::new(2_500, 80, 10, 5),
    )
}

#[test]
fn year_by_year_ingestion_reproduces_the_cold_monitoring_series() {
    let full = scenario::passenger_car_europe(42);
    let mut by_year: BTreeMap<i32, Vec<Post>> = BTreeMap::new();
    for post in full.iter() {
        by_year
            .entry(post.date().year())
            .or_default()
            .push(post.clone());
    }
    let db = KeywordDatabase::passenger_car_seed();
    let config = PspConfig::passenger_car_europe();
    let mut monitor = LiveMonitor::new(
        Corpus::new(),
        db.clone(),
        config.clone(),
        "ecm-reprogramming",
        2,
    );
    for (_, batch) in by_year {
        monitor.ingest(batch);
    }
    // The live corpus is year-grouped, so compare against a cold run over the
    // corpus *as ingested* — same posts, same order, bit-exact.
    let cold = MonitoringSeries::run(
        monitor.engine().corpus(),
        &db,
        &config,
        "ecm-reprogramming",
        2015,
        2023,
        2,
    );
    let warm = monitor.series(2015, 2023);
    assert_eq!(warm, cold);
    assert!(warm.inversion_year().is_some());
}

#[test]
fn ingestion_only_pays_for_the_batch() {
    // Generation counts non-empty batches; an empty one is free and changes
    // nothing observable.
    let seed = scenario::excavator_europe(42);
    let db = KeywordDatabase::excavator_seed();
    let config = PspConfig::excavator_europe();
    let mut live = LiveEngine::new(seed);
    let before = live.sai_list(&db, &config);
    let receipt = live.ingest(Vec::new());
    assert_eq!(receipt.appended, 0);
    assert_eq!(receipt.generation, 0);
    assert_eq!(live.generation(), 0);
    assert_eq!(live.sai_list(&db, &config), before);
}

#[test]
fn a_batch_with_unseen_vocabulary_reaches_the_scores() {
    // The passenger scene generates no "egrremoval" chatter even though the
    // keyword is seeded; ingest posts that introduce that brand-new
    // mention/hashtag vocabulary and check the affected entry picks up the
    // evidence exactly as a cold rebuild would.
    let db = KeywordDatabase::passenger_car_seed();
    let config = PspConfig::passenger_car_europe();
    let mut live = LiveEngine::new(scenario::passenger_car_europe(42));
    let before = live.sai_list(&db, &config);
    let egr_before = before.entry("egrremoval").expect("seeded keyword").posts;
    assert_eq!(egr_before, 0, "scene has no egrremoval chatter");

    live.ingest(vec![
        post(
            900_001,
            "full #egrremoval service, passed inspection anyway",
            2023,
            Region::Europe,
            TargetApplication::PassengerCar,
        ),
        post(
            900_002,
            "egrremoval kit arrived, 220 EUR well spent",
            2023,
            Region::Europe,
            TargetApplication::PassengerCar,
        ),
    ]);
    let after = live.sai_list(&db, &config);
    let egr_after = after.entry("egrremoval").expect("seeded keyword").posts;
    assert_eq!(egr_after, 2);
    assert_eq!(
        after,
        LiveEngine::new(live.corpus().clone()).sai_list(&db, &config)
    );
    assert_eq!(after, SaiList::compute_naive(live.corpus(), &db, &config));
}

#[test]
fn a_batch_from_a_new_region_is_filtered_like_a_rebuild() {
    // The appended posts introduce a region absent from the seed corpus; the
    // regional filter must exclude them while a region-free query sees them.
    let base = scenario::excavator_europe(7);
    let db = KeywordDatabase::excavator_seed();
    let europe = PspConfig::excavator_europe();
    let mut live = LiveEngine::new(base);
    let before = live.sai_list(&db, &europe);
    live.ingest(vec![post(
        900_010,
        "#dpfdelete kit fits every machine",
        2022,
        Region::SouthAmerica,
        TargetApplication::Excavator,
    )]);
    // Europe-filtered scores are unchanged by South-American evidence...
    assert_eq!(live.sai_list(&db, &europe), before);
    // ...and both filtered and unfiltered paths equal a cold rebuild.
    let mut anywhere = europe.clone();
    anywhere.region = Region::SouthAmerica;
    let cold = LiveEngine::new(live.corpus().clone());
    for config in [&europe, &anywhere] {
        assert_eq!(live.sai_list(&db, config), cold.sai_list(&db, config));
        assert_eq!(
            live.sai_list(&db, config),
            SaiList::compute_naive(live.corpus(), &db, config)
        );
    }
}

#[test]
fn out_of_order_dates_across_the_append_boundary_window_correctly() {
    // Ingest recent posts first, then a batch that pre-dates everything: the
    // window filter must keep answering from per-post dates.
    let db = KeywordDatabase::excavator_seed();
    let mut live = LiveEngine::new(Corpus::new());
    live.ingest(vec![post(
        1,
        "fresh #egrdelete results",
        2023,
        Region::Europe,
        TargetApplication::Excavator,
    )]);
    live.ingest(vec![post(
        2,
        "ancient #egrdelete forum thread",
        2015,
        Region::Europe,
        TargetApplication::Excavator,
    )]);
    let early = PspConfig::excavator_europe().with_window(DateWindow::years(2014, 2016));
    let late = PspConfig::excavator_europe().with_window(DateWindow::years(2022, 2023));
    let egr_posts = |config: &PspConfig| {
        live.sai_list(&db, config)
            .entry("egrdelete")
            .expect("seeded keyword")
            .posts
    };
    assert_eq!(egr_posts(&early), 1);
    assert_eq!(egr_posts(&late), 1);
    let cold = LiveEngine::new(live.corpus().clone());
    for config in [&early, &late] {
        assert_eq!(live.sai_list(&db, config), cold.sai_list(&db, config));
        assert_eq!(
            live.sai_list(&db, config),
            SaiList::compute_naive(live.corpus(), &db, config)
        );
    }
}

#[test]
fn live_window_comparison_equals_the_snapshot_comparison() {
    let corpus = scenario::passenger_car_europe(42);
    let db = KeywordDatabase::passenger_car_seed();
    let config = PspConfig::passenger_car_europe();
    let recent = DateWindow::years(2021, 2023);

    let mut live = LiveEngine::new(Corpus::new());
    for chunk in corpus.clone().into_posts().chunks(250) {
        live.ingest(chunk.to_vec());
    }
    // The ingested engine's two windows fold into exactly the comparison a
    // cold engine over the grown corpus produces.
    let lists = live.sai_windows(
        &db,
        &config,
        &WindowAxis::spans(&[config.window, Some(recent)]),
    );
    let snapshot = compare_windows(&corpus, &db, &config, "ecm-reprogramming", recent);
    let shares: Vec<_> = lists
        .iter()
        .map(|sai| sai.vector_shares("ecm-reprogramming"))
        .collect();
    assert_eq!(
        shares,
        [
            snapshot.baseline_shares.clone(),
            snapshot.recent_shares.clone()
        ]
    );
    let generator = WeightGenerator::new();
    assert_eq!(
        generator.insider_table(&lists[0], "ecm-reprogramming"),
        snapshot.baseline_table
    );
    assert_eq!(
        generator.insider_table(&lists[1], "ecm-reprogramming"),
        snapshot.recent_table
    );
    assert!(snapshot.trend_inverted());
}
