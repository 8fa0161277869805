//! Integration and property suite for the batch plane (`sai_matrix`): a
//! (scenario × configuration × window) cross-product resolved through the
//! matrix scheduler must be **bit-identical** to hand-nested loops of
//! one `sai_list` call per cell and to the naive `SaiList::compute_naive`
//! oracle — on built and incrementally ingested
//! engines, over random corpora, weight sets and window grids, and (behind
//! the `shim-rayon` feature) forced thread counts.
//!
//! The scheduler's whole point is to amortise shared work (one sweep plan per
//! (database, scene), one engine for everything)
//! without changing a single bit of any cell; these tests keep that honest.

use proptest::prelude::*;
use psp_suite::psp::config::{PspConfig, SaiWeights};
use psp_suite::psp::engine::{LiveEngine, MatrixSpec, SaiScorer, WindowAxis};
use psp_suite::psp::keyword_db::KeywordDatabase;
use psp_suite::psp::sai::SaiList;
use psp_suite::socialsim::corpus::Corpus;
use psp_suite::socialsim::engagement::Engagement;
use psp_suite::socialsim::post::{Post, Region, TargetApplication};
use psp_suite::socialsim::scenario;
use psp_suite::socialsim::time::{DateWindow, SimDate};
use psp_suite::socialsim::user::User;

/// Builds a [`MatrixSpec`] from plain axes (labels are synthesised).
fn spec_of(
    dbs: &[KeywordDatabase],
    configs: &[PspConfig],
    grid: &[Option<DateWindow>],
) -> MatrixSpec {
    let mut spec = MatrixSpec::new();
    for (i, db) in dbs.iter().enumerate() {
        spec = spec.scenario(format!("scenario-{i}"), db.clone());
    }
    for (i, config) in configs.iter().enumerate() {
        spec = spec.config(format!("config-{i}"), config.clone());
    }
    spec.window_axis(&WindowAxis::spans(grid))
}

/// The hand-nested cell configurations: one (database, windowed
/// configuration) pair per cell, in cell order.  An empty grid means each
/// configuration's own window applies.
fn nested_configs<'a>(
    dbs: &'a [KeywordDatabase],
    configs: &[PspConfig],
    grid: &[Option<DateWindow>],
) -> Vec<(&'a KeywordDatabase, PspConfig)> {
    let mut cells = Vec::new();
    for db in dbs {
        for config in configs {
            let effective: Vec<Option<DateWindow>> = if grid.is_empty() {
                vec![config.window]
            } else {
                grid.to_vec()
            };
            for window in effective {
                let mut cell_config = config.clone();
                cell_config.window = window;
                cells.push((db, cell_config));
            }
        }
    }
    cells
}

/// Asserts the matrix over these axes matches the hand-nested `sai_list`
/// loops and the naive oracle over `corpus` bit for bit, cell by cell, and
/// streams in the spec's deterministic cell order.
fn assert_matrix_exact<E: SaiScorer>(
    engine: &E,
    corpus: &Corpus,
    dbs: &[KeywordDatabase],
    configs: &[PspConfig],
    grid: &[Option<DateWindow>],
) {
    let spec = spec_of(dbs, configs, grid);
    let results = engine.sai_matrix(&spec);
    assert_eq!(results.len(), spec.cell_count());
    let cells = results.into_cells();
    let ids: Vec<_> = cells.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, spec.cell_ids(), "cells must stream in CellId order");
    for ((id, sai), (db, config)) in cells.iter().zip(nested_configs(dbs, configs, grid)) {
        assert_eq!(
            *sai,
            engine.sai_list(db, &config),
            "cell {id:?} vs sai_list"
        );
        assert_eq!(
            *sai,
            SaiList::compute_naive(corpus, db, &config),
            "cell {id:?} vs naive oracle"
        );
    }
}

#[test]
fn matrix_is_exact_on_the_reference_scenes_built_and_ingested() {
    let corpus = scenario::passenger_car_europe(42);
    let dbs = [
        KeywordDatabase::passenger_car_seed(),
        KeywordDatabase::excavator_seed(),
    ];
    let base = PspConfig::passenger_car_europe();
    let configs = [
        base.clone(),
        base.clone().with_weights(SaiWeights::views_only()),
        base.clone().with_poisoning_filter(0.25),
    ];
    // Unordered, overlapping, duplicated and full-history entries in one
    // grid: the scheduler must not assume sorted, disjoint or distinct
    // windows.
    let grid = [
        Some(DateWindow::years(2019, 2020)),
        None,
        Some(DateWindow::years(2015, 2016)),
        Some(DateWindow::years(2019, 2020)),
        Some(DateWindow::years(2015, 2023)),
    ];

    let single = LiveEngine::new(corpus.clone());
    assert_matrix_exact(&single, &corpus, &dbs, &configs, &grid);

    let mut live = LiveEngine::new(Corpus::new());
    for chunk in corpus.posts().to_vec().chunks(97) {
        live.ingest(chunk.to_vec());
    }
    assert_matrix_exact(&live, &corpus, &dbs, &configs, &grid);
}

#[test]
fn single_cell_matrix_equals_a_direct_sai_list_call() {
    let corpus = scenario::excavator_europe(7);
    let db = KeywordDatabase::excavator_seed();
    let base = PspConfig::excavator_europe();
    let engine = LiveEngine::new(corpus.clone());
    // Empty grid: the one cell is scored under the configuration's own
    // window.
    let windowed = base.clone().with_window(DateWindow::years(2020, 2022));
    for config in [&base, &windowed] {
        let spec = MatrixSpec::new()
            .scenario("excavator", db.clone())
            .config("only", config.clone());
        let results = engine.sai_matrix(&spec);
        assert_eq!(results.len(), 1);
        assert_eq!(results.get(0, 0, 0), Some(&engine.sai_list(&db, config)));
        assert_eq!(
            results.get(0, 0, 0),
            Some(&SaiList::compute_naive(&corpus, &db, config))
        );
    }
    // One-entry grid: the grid window replaces the configuration's own.
    let spec = MatrixSpec::new()
        .scenario("excavator", db.clone())
        .config("only", windowed)
        .window_axis(&WindowAxis::each(&[DateWindow::years(2018, 2019)]));
    let windowed = base.with_window(DateWindow::years(2018, 2019));
    assert_eq!(
        engine.sai_matrix(&spec).get(0, 0, 0),
        Some(&engine.sai_list(&db, &windowed))
    );
    assert_eq!(
        engine.sai_matrix(&spec).get(0, 0, 0),
        Some(&SaiList::compute_naive(&corpus, &db, &windowed))
    );
}

#[test]
fn empty_window_grid_uses_each_configs_own_window() {
    let corpus = scenario::passenger_car_europe(42);
    let db = KeywordDatabase::passenger_car_seed();
    let base = PspConfig::passenger_car_europe();
    let configs = [
        base.clone(),
        base.clone().with_window(DateWindow::years(2021, 2023)),
        base.clone().with_window(DateWindow::years(2015, 2019)),
    ];
    assert_matrix_exact(
        &LiveEngine::new(corpus.clone()),
        &corpus,
        &[db],
        &configs,
        &[],
    );
}

#[test]
fn duplicate_windows_in_one_grid_yield_identical_cells() {
    let corpus = scenario::excavator_europe(7);
    let db = KeywordDatabase::excavator_seed();
    let base = PspConfig::excavator_europe();
    let window = DateWindow::years(2019, 2021);
    let spec = MatrixSpec::new()
        .scenario("excavator", db.clone())
        .config("base", base.clone())
        .window_axis(&WindowAxis::spans(&[
            Some(window),
            Some(window),
            None,
            None,
        ]));
    let engine = LiveEngine::new(corpus.clone());
    let results = engine.sai_matrix(&spec);
    assert_eq!(results.len(), 4);
    assert_eq!(results.get(0, 0, 0), results.get(0, 0, 1));
    assert_eq!(results.get(0, 0, 2), results.get(0, 0, 3));
    let windowed = base.clone().with_window(window);
    assert_eq!(results.get(0, 0, 0), Some(&engine.sai_list(&db, &windowed)));
    assert_eq!(
        results.get(0, 0, 0),
        Some(&SaiList::compute_naive(&corpus, &db, &windowed))
    );
    assert_eq!(results.get(0, 0, 2), Some(&engine.sai_list(&db, &base)));
    assert_eq!(
        results.get(0, 0, 2),
        Some(&SaiList::compute_naive(&corpus, &db, &base))
    );
}

#[test]
fn empty_matrices_return_no_cells_on_every_shape() {
    let corpus = scenario::excavator_europe(7);
    let grid = WindowAxis::each(&[DateWindow::years(2019, 2021)]);
    let no_scenarios = MatrixSpec::new()
        .config("base", PspConfig::excavator_europe())
        .window_axis(&grid);
    let no_configs = MatrixSpec::new()
        .scenario("excavator", KeywordDatabase::excavator_seed())
        .window_axis(&grid);
    let engine = LiveEngine::new(corpus);
    for spec in [&no_scenarios, &no_configs, &MatrixSpec::new()] {
        assert_eq!(spec.cell_count(), 0);
        assert!(spec.cell_ids().is_empty());
        let results = engine.sai_matrix(spec);
        assert!(results.is_empty());
        assert_eq!(results.len(), 0);
    }
}

#[test]
fn matrix_works_through_trait_objects() {
    // The batch plane rides default trait methods: it must stay object-safe
    // and exact through `dyn SaiScorer`, the shape a serving daemon holds.
    let corpus = scenario::excavator_europe(7);
    let db = KeywordDatabase::excavator_seed();
    let base = PspConfig::excavator_europe();
    let spec = MatrixSpec::new()
        .scenario("excavator", db.clone())
        .config("base", base.clone())
        .window_axis(
            &WindowAxis::new()
                .full_history()
                .window(DateWindow::years(2020, 2022)),
        );
    let reference = LiveEngine::new(corpus.clone()).sai_matrix(&spec);
    let dynamic: Box<dyn SaiScorer + '_> = Box::new(LiveEngine::new(corpus.clone()));
    assert_eq!(dynamic.sai_matrix(&spec), reference);
}

proptest! {
    /// On random corpora, weight sets, scene filters and window grids, the
    /// matrix over the single-index engine is bit-identical to the
    /// hand-nested per-cell loops.
    #[test]
    fn matrix_equals_nested_loops_on_random_corpora(
        corpus in arb_corpus(),
        weights in prop::collection::vec(arb_weights(), 1..3),
        grid in prop::collection::vec(arb_window(), 0..5),
    ) {
        let dbs = [KeywordDatabase::excavator_seed()];
        let base = PspConfig::excavator_europe();
        // Alternate the poisoning filter so the matrix carries at least two
        // distinct plan keys whenever there are two configurations.
        let configs: Vec<PspConfig> = weights
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let config = base.clone().with_weights(*w);
                if i % 2 == 1 {
                    config.with_poisoning_filter(0.25)
                } else {
                    config
                }
            })
            .collect();
        let single = LiveEngine::new(corpus.clone());
        assert_matrix_exact(&single, &corpus, &dbs, &configs, &grid);
    }

    /// A live engine fed in arbitrary chunks — evaluating the matrix between
    /// ingests so plans are genuinely built and then extended by each batch —
    /// resolves exactly like a cold engine over the finished corpus and the
    /// naive oracle.
    #[test]
    fn live_matrix_survives_ingest_invalidation(
        corpus in arb_corpus(),
        chunk in 1usize..9,
    ) {
        let dbs = [KeywordDatabase::excavator_seed()];
        let base = PspConfig::excavator_europe();
        let configs = [base.clone(), base.clone().with_poisoning_filter(0.25)];
        let grid: Vec<Option<DateWindow>> = (2016..2020)
            .map(|y| Some(DateWindow::years(y, y + 1)))
            .collect();
        let spec = spec_of(&dbs, &configs, &grid);
        let posts = corpus.posts().to_vec();
        let mut live = LiveEngine::new(Corpus::new());
        for batch in posts.chunks(chunk) {
            // Evaluate *before* ingesting the next batch: caches plans the
            // next read must extend with the batch.
            let _ = live.sai_matrix(&spec);
            live.ingest(batch.to_vec());
        }
        let cells = live.sai_matrix(&spec);
        prop_assert_eq!(&cells, &LiveEngine::new(corpus.clone()).sai_matrix(&spec));
        for (id, sai) in cells.iter() {
            let mut config = configs[id.config].clone();
            config.window = grid[id.window];
            prop_assert_eq!(sai, &SaiList::compute_naive(&corpus, &dbs[0], &config));
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
                    User::new("matrix_prop_user", views / 100, 24),
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

fn arb_weights() -> impl Strategy<Value = SaiWeights> {
    prop_oneof![
        Just(SaiWeights::default()),
        Just(SaiWeights::views_only()),
        Just(SaiWeights::interactions_only()),
    ]
}

/// Random grid entries: full-history or a 1-3-year window.
fn arb_window() -> impl Strategy<Value = Option<DateWindow>> {
    prop_oneof![
        Just(None),
        (2014i32..2023, 1i32..4)
            .prop_map(|(year, span)| Some(DateWindow::years(year, year + span - 1))),
    ]
}

/// Thread-count independence of the matrix fan-out — shim-only determinism
/// hook, see `thread_count_independence` in `tests/sweep.rs`.
#[cfg(feature = "shim-rayon")]
mod thread_count_independence {
    use super::*;

    #[test]
    fn matrices_are_identical_at_every_thread_count() {
        let corpus = scenario::excavator_europe(42);
        let base = PspConfig::excavator_europe();
        // Full history, then five yearly windows.
        let windows: Vec<Option<DateWindow>> = std::iter::once(None)
            .chain((2018..2023).map(|y| Some(DateWindow::years(y, y))))
            .collect();
        let spec = MatrixSpec::new()
            .scenario("excavator", KeywordDatabase::excavator_seed())
            .scenario("car", KeywordDatabase::passenger_car_seed())
            .config("balanced", base.clone())
            .config(
                "views-only",
                base.clone().with_weights(SaiWeights::views_only()),
            )
            .window_axis(&WindowAxis::spans(&windows));

        let reference =
            rayon::with_thread_count(1, || LiveEngine::new(corpus.clone()).sai_matrix(&spec));
        for threads in [2, 3, 8] {
            let single = rayon::with_thread_count(threads, || {
                LiveEngine::new(corpus.clone()).sai_matrix(&spec)
            });
            assert_eq!(single, reference, "matrix at {threads} threads");
        }
    }
}
