//! Integration and property suite for the sweep plane (`sai_windows`): the
//! prefix-summed columnar window sweep must be **bit-identical** to one
//! `sai_list` call per window and to the naive `SaiList::compute_naive`
//! oracle — on built and
//! incrementally ingested engines, over the reference scenes, random corpora,
//! window grids and (behind the `shim-rayon` feature) forced thread counts.
//! The hand-built edge corpora run through the same checks in
//! `tests/sharding.rs`.
//!
//! The sweep answers the integer evidence by prefix-sum subtraction and
//! re-folds the order-sensitive float evidence per window; these tests are
//! what keeps that decomposition honest to the last bit.

use proptest::prelude::*;
use psp_suite::psp::config::PspConfig;
use psp_suite::psp::engine::{LiveEngine, SaiScorer, WindowAxis};
use psp_suite::psp::keyword_db::KeywordDatabase;
use psp_suite::psp::sai::SaiList;
use psp_suite::socialsim::corpus::Corpus;
use psp_suite::socialsim::engagement::Engagement;
use psp_suite::socialsim::post::{Post, Region, TargetApplication};
use psp_suite::socialsim::scenario;
use psp_suite::socialsim::time::{DateWindow, SimDate};
use psp_suite::socialsim::user::User;

fn excavator_setup() -> (KeywordDatabase, PspConfig) {
    (
        KeywordDatabase::excavator_seed(),
        PspConfig::excavator_europe(),
    )
}

/// One config per window — the unswept reference shape.
fn windowed_configs(base: &PspConfig, windows: &[DateWindow]) -> Vec<PspConfig> {
    windows
        .iter()
        .map(|w| base.clone().with_window(*w))
        .collect()
}

/// Asserts a sweep over `windows` matches, per window, the one-at-a-time
/// path and the naive oracle — bit for bit.
fn assert_sweep_exact<E: SaiScorer>(
    engine: &E,
    corpus: &Corpus,
    db: &KeywordDatabase,
    base: &PspConfig,
    windows: &[DateWindow],
) {
    let swept = engine.sai_windows(db, base, &WindowAxis::each(windows));
    assert_eq!(swept.len(), windows.len());
    for (config, list) in windowed_configs(base, windows).iter().zip(&swept) {
        assert_eq!(list, &engine.sai_list(db, config), "sweep vs single list");
        assert_eq!(
            list,
            &SaiList::compute_naive(corpus, db, config),
            "sweep vs naive oracle"
        );
    }
}

#[test]
fn sweep_is_exact_on_the_reference_scenes_built_and_ingested() {
    let corpus = scenario::passenger_car_europe(42);
    let db = KeywordDatabase::passenger_car_seed();
    let base = PspConfig::passenger_car_europe();
    // Overlapping two-year windows plus one duplicate and one empty-range
    // year, deliberately unordered: the sweep must not assume sorted,
    // disjoint or distinct windows.
    let windows: Vec<DateWindow> = vec![
        DateWindow::years(2019, 2020),
        DateWindow::years(2015, 2016),
        DateWindow::years(2020, 2021),
        DateWindow::years(2019, 2020),
        DateWindow::years(1999, 2000),
        DateWindow::years(2015, 2023),
    ];
    let single = LiveEngine::new(corpus.clone());
    assert_sweep_exact(&single, &corpus, &db, &base, &windows);

    let mut live = LiveEngine::new(Corpus::new());
    for chunk in corpus.posts().to_vec().chunks(97) {
        live.ingest(chunk.to_vec());
    }
    assert_sweep_exact(&live, &corpus, &db, &base, &windows);
}

#[test]
fn weight_presets_share_one_plan_without_changing_results() {
    // SAI weights are applied at sweep time, not baked into the cached plan:
    // sweeping the same windows under different weight presets must stay
    // exact for each preset.
    let corpus = scenario::passenger_car_europe(42);
    let db = KeywordDatabase::passenger_car_seed();
    let windows: Vec<DateWindow> = (2016..2023).map(|y| DateWindow::years(y, y)).collect();
    let engine = LiveEngine::new(corpus.clone());
    for weights in [
        psp_suite::psp::config::SaiWeights::default(),
        psp_suite::psp::config::SaiWeights::views_only(),
        psp_suite::psp::config::SaiWeights::interactions_only(),
    ] {
        let base = PspConfig::passenger_car_europe().with_weights(weights);
        assert_sweep_exact(&engine, &corpus, &db, &base, &windows);
    }
}

#[test]
fn sweep_honours_the_poisoning_filter() {
    let corpus = scenario::excavator_europe(7);
    let (db, base) = excavator_setup();
    let filtered = base.with_poisoning_filter(0.25);
    let windows: Vec<DateWindow> = (2017..2023).map(|y| DateWindow::years(y, y + 1)).collect();
    let engine = LiveEngine::new(corpus.clone());
    assert_sweep_exact(&engine, &corpus, &db, &filtered, &windows);
}

/// A Europe/excavator post at an explicit date, with a mined price so the
/// order-sensitive price stream is exercised.
fn dated_post(id: u64, date: SimDate, price: u32) -> Post {
    Post::new(
        id,
        User::new("sweep_user", 90, 20),
        format!("#dpfdelete kit {price} EUR"),
        vec![],
        date,
        Region::Europe,
        TargetApplication::Excavator,
        Engagement::new(1_200, 30, 6, 3),
    )
}

#[test]
fn backdated_posts_keep_the_fold_in_post_id_order() {
    // Ids and dates run in *opposite* directions, so inside any window the
    // date-sorted columns disagree with post-id order: the per-window re-sort
    // is what keeps the intent fold and the price stream bit-identical.
    let posts: Vec<Post> = (0..8_u64)
        .map(|i| {
            dated_post(
                i + 1,
                SimDate::new(2022 - i as i32 / 2, 1 + i as u8, 5),
                300 + i as u32,
            )
        })
        .collect();
    let corpus = Corpus::from_posts(posts);
    let (db, base) = excavator_setup();
    let windows: Vec<DateWindow> = (2018..2023).map(|y| DateWindow::years(y, y + 1)).collect();
    let engine = LiveEngine::new(corpus.clone());
    assert_sweep_exact(&engine, &corpus, &db, &base, &windows);

    // The full-history window returns the prices in ascending post-id order,
    // not date order.
    let all = &engine.sai_windows(
        &db,
        &base,
        &WindowAxis::each(&[DateWindow::years(2015, 2025)]),
    )[0];
    let dpf = all.entry("dpfdelete").expect("scored");
    assert_eq!(
        dpf.prices,
        (0..8).map(|i| 300.0 + f64::from(i)).collect::<Vec<_>>()
    );
}

#[test]
fn posts_sharing_one_date_stay_in_id_order_across_window_bounds() {
    // Many posts on the exact window boundary day: the stable date sort must
    // keep them in ascending id order, and a window ending on that day must
    // include them all.
    let boundary = SimDate::new(2020, 12, 28);
    let posts: Vec<Post> = (0..5_u64)
        .map(|i| dated_post(i + 1, boundary, 400 + i as u32))
        .chain((5..8_u64).map(|i| dated_post(i + 1, SimDate::new(2021, 1, 1), 500 + i as u32)))
        .collect();
    let corpus = Corpus::from_posts(posts);
    let (db, base) = excavator_setup();
    let engine = LiveEngine::new(corpus.clone());
    let windows = [
        DateWindow::years(2020, 2020),
        DateWindow::years(2021, 2021),
        DateWindow::years(2020, 2021),
    ];
    assert_sweep_exact(&engine, &corpus, &db, &base, &windows);
    let swept = engine.sai_windows(&db, &base, &WindowAxis::each(&windows));
    let dpf = swept[0].entry("dpfdelete").expect("scored");
    assert_eq!(dpf.posts, 5);
    assert_eq!(dpf.prices, vec![400.0, 401.0, 402.0, 403.0, 404.0]);
}

#[test]
fn inverted_windows_report_zero_evidence_like_the_batch_path() {
    // DateWindow's fields are pub (and it deserialises), so an inverted
    // window can bypass DateWindow::new's bound swap.  It contains no date;
    // the sweep must degrade to zero evidence exactly like per-window
    // scoring and the naive oracle, not panic or wrap.
    let corpus = scenario::excavator_europe(7);
    let (db, base) = excavator_setup();
    let inverted = DateWindow {
        from: SimDate::new(2022, 1, 1),
        to: SimDate::new(2019, 1, 1),
    };
    let windows = [inverted, DateWindow::years(2020, 2021)];
    let engine = LiveEngine::new(corpus.clone());
    assert_sweep_exact(&engine, &corpus, &db, &base, &windows);
    let swept = engine.sai_windows(&db, &base, &WindowAxis::each(&windows));
    assert!(swept[0]
        .entries()
        .iter()
        .all(|e| e.posts == 0 && e.sai == 0.0));
}

#[test]
fn full_history_entries_ride_the_same_plan_as_windows() {
    let corpus = scenario::passenger_car_europe(42);
    let db = KeywordDatabase::passenger_car_seed();
    let base = PspConfig::passenger_car_europe();
    let recent = DateWindow::years(2021, 2023);
    let engine = LiveEngine::new(corpus.clone());
    let swept = engine.sai_windows(&db, &base, &WindowAxis::spans(&[None, Some(recent), None]));
    assert_eq!(swept[0], engine.sai_list(&db, &base));
    assert_eq!(swept[0], SaiList::compute_naive(&corpus, &db, &base));
    assert_eq!(swept[2], swept[0]);
    let windowed = base.clone().with_window(recent);
    assert_eq!(swept[1], engine.sai_list(&db, &windowed));
    assert_eq!(swept[1], SaiList::compute_naive(&corpus, &db, &windowed));
}

proptest! {
    /// On random corpora and window grids, the sweep is bit-identical to
    /// per-window scoring and the naive oracle.
    #[test]
    fn sweep_equals_per_window_scoring_on_random_corpora(
        corpus in arb_corpus(),
        from in 2014i32..2021,
        span in 1i32..4,
    ) {
        let (db, base) = excavator_setup();
        let windows: Vec<DateWindow> = (from..from + 4)
            .map(|y| DateWindow::years(y, y + span - 1))
            .collect();
        let configs = windowed_configs(&base, &windows);

        let single = LiveEngine::new(corpus.clone());
        let swept = single.sai_windows(&db, &base, &WindowAxis::each(&windows));
        for (config, list) in configs.iter().zip(&swept) {
            prop_assert_eq!(list, &single.sai_list(&db, config));
            prop_assert_eq!(list, &SaiList::compute_naive(&corpus, &db, config));
        }
    }

    /// A live engine fed in arbitrary chunks — sweeping between ingests so
    /// a plan is genuinely built and then extended by each batch — sweeps
    /// exactly like a cold engine over the finished corpus and the naive
    /// oracle.
    #[test]
    fn live_sweep_survives_ingest_invalidation(
        corpus in arb_corpus(),
        chunk in 1usize..9,
    ) {
        let (db, base) = excavator_setup();
        let windows: Vec<DateWindow> = (2016..2023)
            .map(|y| DateWindow::years(y, y))
            .collect();
        let posts = corpus.posts().to_vec();
        let mut live = LiveEngine::new(Corpus::new());
        for batch in posts.chunks(chunk) {
            // Sweep *before* ingesting the next batch: caches a plan that the
            // next sweep must extend with the batch.
            let _ = live.sai_windows(&db, &base, &WindowAxis::each(&windows));
            live.ingest(batch.to_vec());
        }
        let swept = live.sai_windows(&db, &base, &WindowAxis::each(&windows));
        prop_assert_eq!(
            &swept,
            &LiveEngine::new(corpus.clone()).sai_windows(&db, &base, &WindowAxis::each(&windows))
        );
        for (window, list) in windows.iter().zip(&swept) {
            let config = base.clone().with_window(*window);
            prop_assert_eq!(list, &SaiList::compute_naive(&corpus, &db, &config));
        }
    }

    /// Sweeping with the poisoning filter on random corpora stays exact (the
    /// credibility rule is baked into the plan, not re-checked per window).
    #[test]
    fn filtered_sweep_equals_naive_on_random_corpora(corpus in arb_corpus()) {
        let (db, base) = excavator_setup();
        let filtered = base.with_poisoning_filter(0.25);
        let windows = [DateWindow::years(2016, 2018), DateWindow::years(2019, 2023)];
        let engine = LiveEngine::new(corpus.clone());
        let swept = engine.sai_windows(&db, &filtered, &WindowAxis::each(&windows));
        for (config, list) in windowed_configs(&filtered, &windows).iter().zip(&swept) {
            prop_assert_eq!(list, &SaiList::compute_naive(&corpus, &db, config));
        }
    }
}

/// Word pool for synthetic post text: attack tags, their fragments, noise.
const WORDS: [&str; 12] = [
    "#dpfdelete",
    "dpfdelete",
    "#egrdelete",
    "egr",
    "kit",
    "sale",
    "360",
    "EUR",
    "excavator",
    "quarry",
    "#jobsite",
    "install",
];

fn arb_region() -> impl Strategy<Value = Region> {
    prop_oneof![
        Just(Region::Europe),
        Just(Region::NorthAmerica),
        Just(Region::AsiaPacific),
    ]
}

fn arb_application() -> impl Strategy<Value = TargetApplication> {
    prop_oneof![
        Just(TargetApplication::Excavator),
        Just(TargetApplication::PassengerCar),
    ]
}

fn arb_post() -> impl Strategy<Value = Post> {
    (
        prop::collection::vec(0usize..WORDS.len(), 0..7),
        2015i32..2024,
        1u8..=12,
        1u8..=28,
        arb_region(),
        arb_application(),
        0u64..50_000,
        0u64..500,
    )
        .prop_map(
            |(word_ids, year, month, day, region, application, views, likes)| {
                let text: Vec<&str> = word_ids.iter().map(|i| WORDS[*i]).collect();
                Post::new(
                    0,
                    User::new("sweep_prop_user", views / 100, 24),
                    text.join(" "),
                    vec![],
                    SimDate::new(year, month, day),
                    region,
                    application,
                    Engagement::new(views, likes, likes / 4, likes / 8),
                )
            },
        )
}

fn arb_corpus() -> impl Strategy<Value = Corpus> {
    prop::collection::vec(arb_post(), 0..40).prop_map(|posts| {
        Corpus::from_posts(
            posts
                .into_iter()
                .enumerate()
                .map(|(id, post)| {
                    Post::new(
                        id as u64 + 1,
                        post.author().clone(),
                        post.text(),
                        vec![],
                        post.date(),
                        post.region(),
                        post.application(),
                        *post.engagement(),
                    )
                })
                .collect::<Vec<_>>(),
        )
    })
}

/// Thread-count independence of the scoring fan-out (guards against
/// order-dependent folds).  Uses the rayon shim's scoped `with_thread_count`
/// override, which real rayon does not expose — hence the `shim-rayon`
/// feature gate (see the workspace `Cargo.toml`); with real rayon, size the
/// global pool via `RAYON_NUM_THREADS` instead.
#[cfg(feature = "shim-rayon")]
mod thread_count_independence {
    use super::*;

    #[test]
    fn sweeps_are_identical_at_every_thread_count() {
        let corpus = scenario::excavator_europe(42);
        let (db, base) = excavator_setup();
        let windows: Vec<DateWindow> = (2016..2024).map(|y| DateWindow::years(y, y)).collect();
        let sweep =
            || LiveEngine::new(corpus.clone()).sai_windows(&db, &base, &WindowAxis::each(&windows));

        let reference = rayon::with_thread_count(1, sweep);
        for threads in [2, 3, 8] {
            assert_eq!(
                rayon::with_thread_count(threads, sweep),
                reference,
                "sweep at {threads} threads"
            );
        }
    }
}
