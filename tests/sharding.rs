//! Edge cases of the plan path's time sharding: a sweep cuts the one index
//! into time shards — one per window — and folds each shard's evidence on
//! its own.  Hand-built corpora pin the edges of that cut (no posts at all,
//! posts on the day a shard ends, a region no shard holds, disjoint
//! vocabularies per shard, interleaved dates), and — behind the `shim-rayon`
//! feature — the fan-out is pinned to be thread-count independent.
//!
//! The bar everywhere is bit-exactness: every shard of `sai_windows` must
//! agree with the unsharded `sai_list` over the same window *and* the naive
//! `SaiList::compute_naive` oracle to the last bit, never merely
//! approximately.

use psp_suite::psp::config::PspConfig;
use psp_suite::psp::engine::{LiveEngine, SaiScorer, WindowAxis};
use psp_suite::psp::keyword_db::KeywordDatabase;
use psp_suite::psp::sai::SaiList;
use psp_suite::socialsim::corpus::Corpus;
use psp_suite::socialsim::engagement::Engagement;
use psp_suite::socialsim::post::{Post, Region, TargetApplication};
use psp_suite::socialsim::time::{DateWindow, SimDate};
use psp_suite::socialsim::user::User;

fn post_on(id: u64, text: &str, date: SimDate, region: Region) -> Post {
    Post::new(
        id,
        User::new("shard_user", 80, 18),
        text,
        vec![],
        date,
        region,
        TargetApplication::Excavator,
        Engagement::new(1_500, 40, 8, 4),
    )
}

/// One single-year shard per year of `from..=to`.
fn yearly(from: i32, to: i32) -> Vec<DateWindow> {
    (from..=to).map(|y| DateWindow::years(y, y)).collect()
}

/// Asserts the full-history list and every shard of the plan agree
/// bit-for-bit with the unsharded path and the naive oracle; returns the
/// full-history list followed by one list per shard.
fn assert_bit_identical(corpus: &Corpus, shards: &[DateWindow]) -> (SaiList, Vec<SaiList>) {
    let db = KeywordDatabase::excavator_seed();
    let config = PspConfig::excavator_europe();
    let engine = LiveEngine::new(corpus.clone());
    let full = engine.sai_list(&db, &config);
    assert_eq!(full, SaiList::compute_naive(corpus, &db, &config));
    let swept = engine.sai_windows(&db, &config, &WindowAxis::each(shards));
    assert_eq!(swept.len(), shards.len());
    for (window, list) in shards.iter().zip(&swept) {
        let windowed = config.clone().with_window(*window);
        assert_eq!(list, &engine.sai_list(&db, &windowed), "shard {window:?}");
        assert_eq!(
            list,
            &SaiList::compute_naive(corpus, &db, &windowed),
            "shard {window:?} vs naive oracle"
        );
    }
    (full, swept)
}

/// Posts scored into `list`, summed over every keyword.
fn evidence(list: &SaiList) -> usize {
    list.entries().iter().map(|e| e.posts).sum()
}

#[test]
fn empty_corpus_yields_zero_shards_and_zero_evidence() {
    let db = KeywordDatabase::excavator_seed();
    let engine = LiveEngine::new(Corpus::new());
    assert_eq!(engine.post_count(), 0);
    let (full, shards) = assert_bit_identical(&Corpus::new(), &yearly(2019, 2022));
    for list in std::iter::once(&full).chain(&shards) {
        assert_eq!(list.len(), db.len());
        assert!(list
            .entries()
            .iter()
            .all(|e| e.posts == 0 && e.sai == 0.0 && e.probability == 0.0));
    }
}

#[test]
fn posts_exactly_on_shard_boundaries_land_in_exactly_one_shard() {
    // Dec 28 is the last representable day of a simulated year and Jan 1 the
    // first of the next: these two posts straddle the yearly shard boundary.
    let corpus = Corpus::from_posts(vec![
        post_on(
            1,
            "#dpfdelete late",
            SimDate::new(2020, 12, 28),
            Region::Europe,
        ),
        post_on(
            2,
            "#dpfdelete early",
            SimDate::new(2021, 1, 1),
            Region::Europe,
        ),
        post_on(
            3,
            "#dpfdelete mid",
            SimDate::new(2021, 6, 15),
            Region::Europe,
        ),
    ]);
    // A shard ending exactly on the boundary day only sees the 2020 post;
    // a two-year shard holds all three.
    let mut shards = yearly(2020, 2021);
    shards.push(DateWindow::years(2020, 2021));
    let (full, swept) = assert_bit_identical(&corpus, &shards);
    assert_eq!(evidence(&full), 3);
    assert_eq!(
        swept.iter().map(evidence).collect::<Vec<_>>(),
        vec![1, 2, 3]
    );
}

#[test]
fn a_region_absent_from_every_shard_scores_zero_everywhere() {
    // All posts are NorthAmerica; the excavator config filters on Europe, a
    // region no shard holds: every shard scans and finds nothing, exactly
    // like the naive scan.
    let corpus = Corpus::from_posts(vec![
        post_on(
            1,
            "#dpfdelete done",
            SimDate::new(2020, 3, 3),
            Region::NorthAmerica,
        ),
        post_on(
            2,
            "#egrdelete next",
            SimDate::new(2021, 4, 4),
            Region::NorthAmerica,
        ),
    ]);
    let (full, shards) = assert_bit_identical(&corpus, &yearly(2020, 2021));
    for list in std::iter::once(&full).chain(&shards) {
        assert!(list.entries().iter().all(|e| e.posts == 0 && e.sai == 0.0));
    }
}

#[test]
fn merging_shards_with_disjoint_vocabularies_is_exact() {
    // Two year-shards whose posts share no single token: every keyword's
    // evidence lives entirely in one shard, so each shard must score the
    // other shard's keyword as absent, and the full history must hold both
    // (with prices in global post order).
    let corpus = Corpus::from_posts(vec![
        post_on(
            1,
            "#dpfdelete kit 360 EUR",
            SimDate::new(2019, 5, 5),
            Region::Europe,
        ),
        post_on(
            2,
            "#dpfdelete story",
            SimDate::new(2019, 7, 7),
            Region::Europe,
        ),
        post_on(
            3,
            "#egrdelete howto 250 EUR",
            SimDate::new(2022, 5, 5),
            Region::Europe,
        ),
        post_on(
            4,
            "#egrdelete replies",
            SimDate::new(2022, 7, 7),
            Region::Europe,
        ),
    ]);
    let (full, shards) = assert_bit_identical(
        &corpus,
        &[DateWindow::years(2019, 2019), DateWindow::years(2022, 2022)],
    );
    let dpf = full.entry("dpfdelete").expect("dpf keyword scored");
    let egr = full.entry("egrdelete").expect("egr keyword scored");
    assert_eq!(dpf.posts, 2);
    assert_eq!(egr.posts, 2);
    assert_eq!(dpf.prices, vec![360.0]);
    assert_eq!(egr.prices, vec![250.0]);
    let posts = |list: &SaiList, keyword: &str| list.entry(keyword).map_or(0, |e| e.posts);
    assert_eq!(
        (
            posts(&shards[0], "dpfdelete"),
            posts(&shards[0], "egrdelete")
        ),
        (2, 0)
    );
    assert_eq!(
        (
            posts(&shards[1], "dpfdelete"),
            posts(&shards[1], "egrdelete")
        ),
        (0, 2)
    );
}

#[test]
fn interleaved_time_shards_merge_back_into_global_post_order() {
    // Alternating years put interleaved global ids in the two year-shards
    // (0,2,4 vs 1,3,5): each shard must keep its own posts in global order,
    // and the full history must interleave them again — concatenating shard
    // results would scramble the price order and the intent fold.
    let mut posts = Vec::new();
    for i in 0..6_u64 {
        let year = if i % 2 == 0 { 2019 } else { 2022 };
        let price = 300.0 + i as f64;
        posts.push(post_on(
            i + 1,
            &format!("#dpfdelete kit {price} EUR"),
            SimDate::new(year, 1 + i as u8, 10),
            Region::Europe,
        ));
    }
    let corpus = Corpus::from_posts(posts);
    let (full, shards) = assert_bit_identical(
        &corpus,
        &[DateWindow::years(2019, 2019), DateWindow::years(2022, 2022)],
    );
    let prices = |list: &SaiList| list.entry("dpfdelete").expect("scored").prices.clone();
    assert_eq!(
        prices(&full),
        vec![300.0, 301.0, 302.0, 303.0, 304.0, 305.0]
    );
    assert_eq!(prices(&shards[0]), vec![300.0, 302.0, 304.0]);
    assert_eq!(prices(&shards[1]), vec![301.0, 303.0, 305.0]);
}

/// Thread-count independence of the shard fan-out and fold (guards against
/// order-dependent folds).  Uses the rayon shim's scoped `with_thread_count`
/// override, which real rayon does not expose — hence the `shim-rayon`
/// feature gate (see the workspace `Cargo.toml`); with real rayon, size the
/// global pool via `RAYON_NUM_THREADS` instead.
#[cfg(feature = "shim-rayon")]
mod thread_count_independence {
    use super::*;
    use psp_suite::socialsim::scenario;

    #[test]
    fn sharded_and_fanout_results_are_identical_at_every_thread_count() {
        let corpus = scenario::excavator_europe(42);
        let db = KeywordDatabase::excavator_seed();
        let config = PspConfig::excavator_europe();
        let windowed = config.clone().with_window(DateWindow::years(2019, 2022));
        let shards = WindowAxis::each(&yearly(2019, 2022));
        let score = || {
            let engine = LiveEngine::new(corpus.clone());
            (
                engine.sai_list(&db, &config),
                engine.sai_list(&db, &windowed),
                engine.sai_windows(&db, &config, &shards),
            )
        };

        let reference = rayon::with_thread_count(1, score);
        assert_eq!(reference.0, SaiList::compute_naive(&corpus, &db, &config));
        assert_eq!(reference.1, SaiList::compute_naive(&corpus, &db, &windowed));
        for threads in [1, 2, 3, 8] {
            let (full, windowed, sharded) = rayon::with_thread_count(threads, score);
            assert_eq!(full, reference.0, "full pass at {threads} threads");
            assert_eq!(windowed, reference.1, "windowed pass at {threads} threads");
            assert_eq!(sharded, reference.2, "sharded sweep at {threads} threads");
        }
    }

    #[test]
    fn batched_window_sweeps_are_thread_count_independent() {
        let corpus = scenario::excavator_europe(7);
        let db = KeywordDatabase::excavator_seed();
        let base = PspConfig::excavator_europe();
        let windows = yearly(2018, 2023);
        let reference: Vec<SaiList> = windows
            .iter()
            .map(|w| SaiList::compute_naive(&corpus, &db, &base.clone().with_window(*w)))
            .collect();
        for threads in [2, 5, 16] {
            let swept = rayon::with_thread_count(threads, || {
                LiveEngine::new(corpus.clone()).sai_windows(&db, &base, &WindowAxis::each(&windows))
            });
            assert_eq!(swept, reference, "sweep diverged at {threads} threads");
        }
    }
}
