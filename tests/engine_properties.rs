//! Property-based tests for the indexed scoring path: on randomized corpora,
//! the `CorpusIndex` answers every query exactly like the naive
//! `Query::matches` scan, and the `LiveEngine` produces SAI lists identical
//! to the naive reference — probabilities summing to 1 whenever any evidence
//! exists.  The streaming path is pinned the same way: appending posts to an
//! index (or ingesting them into a `LiveEngine`) in arbitrary chunks is
//! bit-identical to rebuilding from scratch and to the naive oracle.
//! Sweep plans carried across ingest are pinned too: an engine that extends
//! its plans with random batches answers like a cold engine and the oracle.
//! Cancellation is pinned the same way: a sweep or matrix under a stop
//! predicate that never fires is the plain computation, and one that fires
//! answers `None` after a deterministic number of checks.

use proptest::prelude::*;
use psp_suite::psp::config::{PspConfig, SaiWeights};
use psp_suite::psp::engine::{CellId, LiveEngine, MatrixSpec, SaiScorer, WindowAxis};
use psp_suite::psp::keyword_db::KeywordDatabase;
use psp_suite::psp::sai::SaiList;
use psp_suite::socialsim::corpus::Corpus;
use psp_suite::socialsim::engagement::Engagement;
use psp_suite::socialsim::index::CorpusIndex;
use psp_suite::socialsim::post::{Post, Region, TargetApplication};
use psp_suite::socialsim::query::Query;
use psp_suite::socialsim::scenario;
use psp_suite::socialsim::time::{DateWindow, SimDate};
use psp_suite::socialsim::user::User;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Word pool for synthetic post text: attack tags, their fragments, and noise.
const WORDS: [&str; 14] = [
    "#dpfdelete",
    "dpfdelete",
    "#egrdelete",
    "egr",
    "#chiptuning",
    "chiptuning",
    "kit",
    "sale",
    "360",
    "EUR",
    "excavator",
    "quarry",
    "#jobsite",
    "install",
];

/// Keywords to query with: exact tags, substrings and misses.
const QUERY_TERMS: [&str; 8] = [
    "dpfdelete",
    "dpf",
    "egrdelete",
    "egr",
    "chiptuning",
    "chip",
    "kit",
    "zzz-none",
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
        Just(TargetApplication::Agriculture),
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
                    User::new("prop_user", views / 100, 24),
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

/// `post` with id `id` and date `date` — how an ingest batch gets ids after
/// the corpus's and dates older or newer than any in it.
fn renumbered(post: &Post, id: u64, date: SimDate) -> Post {
    Post::new(
        id,
        post.author().clone(),
        post.text(),
        vec![],
        date,
        post.region(),
        post.application(),
        *post.engagement(),
    )
}

/// Random ingest batches: each holds 0–5 posts dated 2008–2031 (the corpus
/// spans 2015–2023, so some land before or after every corpus date), and
/// says whether the engine is read right after it (1) or not (0).
fn arb_batches() -> impl Strategy<Value = Vec<(Vec<(Post, SimDate)>, u8)>> {
    let dated = (arb_post(), 2008i32..2032, 1u8..=12)
        .prop_map(|(post, year, month)| (post, SimDate::new(year, month, 15)));
    prop::collection::vec((prop::collection::vec(dated, 0..6), 0u8..2), 1..5)
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

fn arb_query() -> impl Strategy<Value = Query> {
    (
        prop::collection::vec(0usize..QUERY_TERMS.len(), 0..3),
        prop::collection::vec(0usize..QUERY_TERMS.len(), 0..2),
        prop_oneof![
            Just(None),
            Just(Some(Region::Europe)),
            Just(Some(Region::AsiaPacific))
        ],
        prop_oneof![
            Just(None),
            Just(Some(TargetApplication::Excavator)),
            Just(Some(TargetApplication::PassengerCar)),
        ],
        prop_oneof![
            Just(None),
            Just(Some((2016i32, 2019i32))),
            Just(Some((2020i32, 2023i32)))
        ],
    )
        .prop_map(|(keywords, hashtags, region, application, window)| {
            let mut query = Query::new();
            for k in keywords {
                query = query.with_keyword(QUERY_TERMS[k]);
            }
            for h in hashtags {
                query = query.with_hashtag(QUERY_TERMS[h]);
            }
            if let Some(region) = region {
                query = query.in_region(region);
            }
            if let Some(application) = application {
                query = query.about(application);
            }
            if let Some((from, to)) = window {
                query = query.within(DateWindow::years(from, to));
            }
            query
        })
}

/// A stop predicate that answers `false` to its first `after` checks and
/// `true` from then on, counting every check — deterministic, no clock.
struct Trip {
    after: usize,
    checks: AtomicUsize,
}

impl Trip {
    fn after(after: usize) -> Self {
        Self {
            after,
            checks: AtomicUsize::new(0),
        }
    }

    fn check(&self) -> bool {
        self.checks.fetch_add(1, Ordering::SeqCst) >= self.after
    }

    fn checks(&self) -> usize {
        self.checks.load(Ordering::SeqCst)
    }
}

/// A three-entry window axis starting at `from`, with a full-history entry.
fn stop_axis(from: i32) -> WindowAxis {
    WindowAxis::new()
        .window(DateWindow::years(from, from + 1))
        .full_history()
        .window(DateWindow::years(from + 1, from + 3))
}

/// Two scenarios × three configurations (two sharing a scene), with the
/// given window grid; an empty grid leaves each configuration its own
/// window.
fn stop_matrix(windows: &WindowAxis, from: i32) -> MatrixSpec {
    MatrixSpec::new()
        .scenario("excavator", KeywordDatabase::excavator_seed())
        .scenario("passenger-car", KeywordDatabase::passenger_car_seed())
        .config(
            "excavator",
            PspConfig::excavator_europe().with_window(DateWindow::years(from, from + 2)),
        )
        .config(
            "views-only",
            PspConfig::excavator_europe().with_weights(SaiWeights::views_only()),
        )
        .config("passenger-car", PspConfig::passenger_car_europe())
        .window_axis(windows)
}

/// The cells a stop-aware matrix run streams, or `None` when it stopped.
fn matrix_until(
    engine: &LiveEngine,
    spec: &MatrixSpec,
    stop: &(dyn Fn() -> bool + Sync),
) -> Option<Vec<(CellId, SaiList)>> {
    let mut cells = Vec::new();
    engine.sai_matrix_stream_until(spec, stop, &mut |id, sai| cells.push((id, sai)))?;
    Some(cells)
}

fn naive_ids(corpus: &Corpus, query: &Query) -> Vec<u64> {
    corpus
        .posts()
        .iter()
        .filter(|p| query.matches(p))
        .map(Post::id)
        .collect()
}

fn indexed_ids(corpus: &Corpus, query: &Query) -> Vec<u64> {
    CorpusIndex::build(corpus)
        .query(corpus, query)
        .into_iter()
        .map(|id| corpus.posts()[id as usize].id())
        .collect()
}

proptest! {
    /// The inverted index answers every query with exactly the posts the naive
    /// `Query::matches` scan returns, in the same order.
    #[test]
    fn indexed_query_equals_naive_scan(corpus in arb_corpus(), query in arb_query()) {
        prop_assert_eq!(naive_ids(&corpus, &query), indexed_ids(&corpus, &query));
    }

    /// The engine's SAI list is identical to the naive reference computation —
    /// same entries, same order, bit-identical scores and probabilities.
    #[test]
    fn engine_sai_equals_naive_reference(corpus in arb_corpus()) {
        let db = KeywordDatabase::excavator_seed();
        let config = PspConfig::excavator_europe();
        let engine = LiveEngine::new(corpus.clone());
        prop_assert_eq!(
            engine.sai_list(&db, &config),
            SaiList::compute_naive(&corpus, &db, &config)
        );
    }

    /// SAI attack probabilities computed through the engine always sum to 1
    /// when any evidence exists, and are all zero otherwise.
    #[test]
    fn engine_probabilities_sum_to_one(corpus in arb_corpus()) {
        let db = KeywordDatabase::excavator_seed();
        let config = PspConfig::excavator_europe();
        let sai = LiveEngine::new(corpus.clone()).sai_list(&db, &config);
        let mass: f64 = sai.entries().iter().map(|e| e.sai).sum();
        let total: f64 = sai.entries().iter().map(|e| e.probability).sum();
        if mass > 0.0 {
            prop_assert!((total - 1.0).abs() < 1e-9, "probabilities sum to {total}");
        } else {
            prop_assert_eq!(total, 0.0);
        }
    }

    /// Batched multi-window scoring (one sweep) matches per-window scoring
    /// and the naive oracle on random corpora (the monitoring hot path).
    #[test]
    fn batched_windows_equal_individual_windows(corpus in arb_corpus(), from in 2015i32..2022) {
        let db = KeywordDatabase::excavator_seed();
        let base = PspConfig::excavator_europe();
        let windows: Vec<DateWindow> =
            (from..from + 3).map(|y| DateWindow::years(y, y + 1)).collect();
        let engine = LiveEngine::new(corpus.clone());
        let batch = engine.sai_windows(&db, &base, &WindowAxis::each(&windows));
        prop_assert_eq!(batch.len(), windows.len());
        for (window, list) in windows.iter().zip(&batch) {
            let config = base.clone().with_window(*window);
            prop_assert_eq!(list, &engine.sai_list(&db, &config));
            prop_assert_eq!(list, &SaiList::compute_naive(&corpus, &db, &config));
        }
    }

    /// Building an index over a prefix and appending the rest answers every
    /// query exactly like an index built over the whole corpus in one pass —
    /// regardless of where the corpus is split.
    #[test]
    fn appended_index_equals_rebuilt_index(
        corpus in arb_corpus(),
        split_percent in 0usize..=100,
        query in arb_query(),
    ) {
        let posts = corpus.posts().to_vec();
        let split = posts.len() * split_percent / 100;
        let mut grown = Corpus::from_posts(posts[..split].to_vec());
        let mut index = CorpusIndex::build(&grown);
        for post in &posts[split..] {
            grown.push(post.clone());
        }
        index.append(&grown, posts.len() - split);
        prop_assert_eq!(index.post_count(), corpus.posts().len());
        prop_assert_eq!(
            index.query(&grown, &query),
            CorpusIndex::build(&corpus).query(&corpus, &query)
        );
    }

    /// Append-then-score is bit-identical to rebuild-then-score *and* to the
    /// naive oracle: a `LiveEngine` fed the corpus in arbitrary chunk sizes —
    /// scoring between ingests so the signal cache is genuinely warm — ends up
    /// exactly where a cold engine over the full corpus starts.
    #[test]
    fn ingest_then_score_equals_rebuild_then_score(
        corpus in arb_corpus(),
        chunk in 1usize..9,
    ) {
        let db = KeywordDatabase::excavator_seed();
        let config = PspConfig::excavator_europe();
        let posts = corpus.posts().to_vec();
        let mut live = LiveEngine::new(Corpus::new());
        for batch in posts.chunks(chunk) {
            live.ingest(batch.to_vec());
            // Score mid-stream: memoises signals that the final comparison
            // must not be perturbed by.
            let _ = live.sai_list(&db, &config);
        }
        prop_assert_eq!(live.post_count(), posts.len());
        let warm = live.sai_list(&db, &config);
        prop_assert_eq!(&warm, &LiveEngine::new(corpus.clone()).sai_list(&db, &config));
        prop_assert_eq!(&warm, &SaiList::compute_naive(&corpus, &db, &config));
    }

    /// The plan path cuts the index into time shards — one per window of a
    /// sweep — and folds each shard's evidence on its own.  For any shard
    /// width, with and without the poisoning filter, every shard's list is
    /// bit-identical to the unsharded `sai_list` over the same window and to
    /// the naive oracle, and so is the full-history list: counts come from
    /// prefix sums, while the order-sensitive float evidence is re-folded in
    /// global post order, so not a single bit may drift.
    #[test]
    fn sharded_sai_equals_unsharded_and_naive(corpus in arb_corpus(), years in 1i32..5) {
        let db = KeywordDatabase::excavator_seed();
        let engine = LiveEngine::new(corpus.clone());
        let shards: Vec<DateWindow> = (2014..2025)
            .step_by(years as usize)
            .map(|y| DateWindow::years(y, y + years - 1))
            .collect();
        for config in [
            PspConfig::excavator_europe(),
            PspConfig::excavator_europe().with_poisoning_filter(0.25),
        ] {
            prop_assert_eq!(
                engine.sai_list(&db, &config),
                SaiList::compute_naive(&corpus, &db, &config)
            );
            let sharded = engine.sai_windows(&db, &config, &WindowAxis::each(&shards));
            prop_assert_eq!(sharded.len(), shards.len());
            for (window, list) in shards.iter().zip(&sharded) {
                let unsharded = config.clone().with_window(*window);
                prop_assert_eq!(list, &engine.sai_list(&db, &unsharded));
                prop_assert_eq!(list, &SaiList::compute_naive(&corpus, &db, &unsharded));
            }
        }
    }

    /// A sweep and a matrix under a stop predicate that never fires are
    /// bit-identical to the plain planes and to the naive oracle per window —
    /// including a matrix with an empty window grid.
    #[test]
    fn never_stopped_runs_equal_the_plain_planes(corpus in arb_corpus(), from in 2015i32..2022) {
        let db = KeywordDatabase::excavator_seed();
        let config = PspConfig::excavator_europe();
        let axis = stop_axis(from);
        let engine = LiveEngine::new(corpus.clone());
        let reference: Vec<SaiList> = axis
            .as_options()
            .iter()
            .map(|window| {
                let mut windowed = config.clone();
                windowed.window = *window;
                SaiList::compute_naive(&corpus, &db, &windowed)
            })
            .collect();
        let swept = engine.sai_windows_until(&db, &config, &axis, &|| false);
        prop_assert_eq!(swept.as_ref(), Some(&reference));
        prop_assert_eq!(swept, Some(engine.sai_windows(&db, &config, &axis)));
        for grid in [axis.clone(), WindowAxis::new()] {
            let spec = stop_matrix(&grid, from);
            let cells = matrix_until(&engine, &spec, &|| false);
            prop_assert_eq!(cells.as_ref().map(Vec::len), Some(spec.cell_count()));
            prop_assert_eq!(cells, Some(engine.sai_matrix(&spec).into_cells()));
        }
    }

    /// Plans carried across ingest: an engine that has scored, swept and run
    /// a matrix ingests random batches (empty ones included, dates older and
    /// newer than the corpus), reading after some of them, and every `Score`,
    /// sweep and matrix it answers is bit-identical to a cold engine over the
    /// grown corpus and to the naive oracle — while no plan is built again:
    /// each read extends the plans with the posts ingested since.
    #[test]
    fn plans_carried_across_ingest_equal_cold_plans_and_naive(
        corpus in arb_corpus(),
        batches in arb_batches(),
        from in 2010i32..2028,
    ) {
        let db = KeywordDatabase::excavator_seed();
        let configs = [
            PspConfig::excavator_europe(),
            PspConfig::excavator_europe().with_poisoning_filter(0.25),
        ];
        let axis = stop_axis(from);
        let spec = MatrixSpec::new()
            .scenario("excavator", db.clone())
            .config("base", configs[0].clone())
            .config("filtered", configs[1].clone())
            .window_axis(&axis);
        let mut live = LiveEngine::new(corpus.clone());
        let _ = live.sai_list(&db, &configs[0]);
        let _ = live.sai_matrix(&spec);
        let builds = live.plan_builds();
        let mut posts = corpus.posts().to_vec();
        let last = batches.len() - 1;
        for (i, (batch, read)) in batches.into_iter().enumerate() {
            let batch: Vec<Post> = batch
                .iter()
                .enumerate()
                .map(|(k, (post, date))| renumbered(post, (posts.len() + k + 1) as u64, *date))
                .collect();
            posts.extend(batch.iter().cloned());
            live.ingest(batch);
            if read == 0 && i != last {
                continue;
            }
            let grown = Corpus::from_posts(posts.clone());
            let cold = LiveEngine::new(grown.clone());
            for config in &configs {
                let sai = live.sai_list(&db, config);
                prop_assert_eq!(&sai, &cold.sai_list(&db, config));
                prop_assert_eq!(&sai, &SaiList::compute_naive(&grown, &db, config));
            }
            let swept = live.sai_windows(&db, &configs[0], &axis);
            prop_assert_eq!(&swept, &cold.sai_windows(&db, &configs[0], &axis));
            for (window, list) in axis.as_options().iter().zip(&swept) {
                let mut config = configs[0].clone();
                config.window = *window;
                prop_assert_eq!(list, &SaiList::compute_naive(&grown, &db, &config));
            }
            let cells = live.sai_matrix(&spec);
            prop_assert_eq!(&cells, &cold.sai_matrix(&spec));
            for (id, list) in cells.iter() {
                let mut config = configs[id.config].clone();
                config.window = axis.as_options()[id.window];
                prop_assert_eq!(list, &SaiList::compute_naive(&grown, &db, &config));
            }
            prop_assert_eq!(live.plan_builds(), builds);
        }
    }

    /// Windowed scoring through a live, incrementally fed engine matches a
    /// cold engine built over the whole corpus and the naive oracle — the
    /// monitoring re-evaluation path stays bit-exact under streaming
    /// ingestion with out-of-order dates.
    #[test]
    fn live_windows_equal_snapshot_windows(corpus in arb_corpus(), from in 2015i32..2022) {
        let db = KeywordDatabase::excavator_seed();
        let base = PspConfig::excavator_europe();
        let windows: Vec<DateWindow> =
            (from..from + 3).map(|y| DateWindow::years(y, y + 1)).collect();
        let axis = WindowAxis::each(&windows);
        let posts = corpus.posts().to_vec();
        let mut live = LiveEngine::new(Corpus::new());
        for batch in posts.chunks(5) {
            live.ingest(batch.to_vec());
        }
        let swept = live.sai_windows(&db, &base, &axis);
        prop_assert_eq!(&swept, &LiveEngine::new(corpus.clone()).sai_windows(&db, &base, &axis));
        for (window, list) in windows.iter().zip(&swept) {
            let config = base.clone().with_window(*window);
            prop_assert_eq!(list, &live.sai_list(&db, &config));
            prop_assert_eq!(list, &SaiList::compute_naive(&corpus, &db, &config));
        }
    }
}

/// A counting predicate stops deterministically: a run allowed fewer checks
/// than a full run makes answers `None`, one allowed all of them answers the
/// plain result — for the sweep and the matrix alike.
#[test]
fn a_counting_stop_predicate_stops_sweeps_and_matrices_without_a_clock() {
    let corpus = scenario::excavator_europe(7);
    let db = KeywordDatabase::excavator_seed();
    let config = PspConfig::excavator_europe();
    let axis = stop_axis(2019);
    let spec = stop_matrix(&axis, 2019);
    let engine = LiveEngine::new(corpus);

    let counter = Trip::after(usize::MAX);
    let plain = engine.sai_windows_until(&db, &config, &axis, &|| counter.check());
    let total = counter.checks();
    assert!(total >= 2, "a sweep checks before planning and per job");
    for k in [0, 1, total / 2, total - 1] {
        let trip = Trip::after(k);
        let stopped = engine.sai_windows_until(&db, &config, &axis, &|| trip.check());
        assert_eq!(stopped, None, "sweep allowed {k} of {total} checks");
    }
    let trip = Trip::after(total);
    let finished = engine.sai_windows_until(&db, &config, &axis, &|| trip.check());
    assert_eq!(finished, plain, "sweep allowed every check");
    assert_eq!(finished, Some(engine.sai_windows(&db, &config, &axis)));

    let counter = Trip::after(usize::MAX);
    let plain = matrix_until(&engine, &spec, &|| counter.check());
    let total = counter.checks();
    assert!(
        total >= spec.scenario_count() * spec.config_count(),
        "one per row"
    );
    for k in [0, 1, total / 2, total - 1] {
        let trip = Trip::after(k);
        let stopped = matrix_until(&engine, &spec, &|| trip.check());
        assert_eq!(stopped, None, "matrix allowed {k} of {total} checks");
    }
    let trip = Trip::after(total);
    let finished = matrix_until(&engine, &spec, &|| trip.check());
    assert_eq!(finished, plain, "matrix allowed every check");
    assert_eq!(finished, Some(engine.sai_matrix(&spec).into_cells()));
}

/// A predicate that is true from the start stops before any plan is looked
/// up: the plan-build counter does not move and no matrix cell streams.
#[test]
fn a_stop_predicate_true_from_the_start_touches_no_plan() {
    let corpus = scenario::excavator_europe(7);
    let db = KeywordDatabase::excavator_seed();
    let config = PspConfig::excavator_europe();
    let axis = stop_axis(2019);
    let spec = stop_matrix(&axis, 2019);
    let engine = LiveEngine::new(corpus);
    assert_eq!(engine.plan_builds(), 0, "a fresh engine has no plan");
    assert_eq!(
        engine.sai_windows_until(&db, &config, &axis, &|| true),
        None
    );
    assert_eq!(matrix_until(&engine, &spec, &|| true), None);
    assert_eq!(engine.plan_builds(), 0, "a stopped run built a plan");
    // The counter is live: the same sweep, unstopped, plans.
    let _ = engine.sai_windows(&db, &config, &axis);
    assert!(engine.plan_builds() > 0, "an unstopped sweep plans");
}
