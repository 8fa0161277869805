//! Integration suite for the sharded corpus engine: edge cases of the
//! partition/merge machinery (empty shards, degenerate single-shard layouts,
//! boundary dates, absent regions, disjoint vocabularies) and — behind the
//! `shim-rayon` feature — thread-count independence of the fan-out paths.
//!
//! The bar everywhere is bit-exactness: `ShardedEngine` must agree with the
//! unsharded `LiveEngine` *and* the naive `SaiList::compute_naive` oracle
//! to the last bit, never merely approximately.

use psp_suite::psp::config::PspConfig;
use psp_suite::psp::engine::{LiveEngine, SaiScorer, ShardedEngine};
use psp_suite::psp::keyword_db::KeywordDatabase;
use psp_suite::psp::sai::SaiList;
use psp_suite::socialsim::corpus::Corpus;
use psp_suite::socialsim::engagement::Engagement;
use psp_suite::socialsim::index::{ShardKey, ShardSpec};
use psp_suite::socialsim::post::{Post, Region, TargetApplication};
use psp_suite::socialsim::scenario;
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

fn excavator_setup() -> (KeywordDatabase, PspConfig) {
    (
        KeywordDatabase::excavator_seed(),
        PspConfig::excavator_europe(),
    )
}

/// Asserts the sharded engine agrees bit-for-bit with both unsharded paths.
fn assert_bit_identical(sharded: &ShardedEngine, corpus: &Corpus, config: &PspConfig) {
    let db = KeywordDatabase::excavator_seed();
    let merged = sharded.sai_list(&db, config);
    assert_eq!(
        merged,
        LiveEngine::new(corpus.clone()).sai_list(&db, config)
    );
    assert_eq!(merged, SaiList::compute_naive(corpus, &db, config));
}

#[test]
fn empty_corpus_yields_zero_shards_and_zero_evidence() {
    let (db, config) = excavator_setup();
    for spec in [ShardSpec::yearly(), ShardSpec::ByRegion] {
        let sharded = ShardedEngine::new(Corpus::new(), spec);
        assert_eq!(sharded.shard_count(), 0);
        assert_eq!(sharded.post_count(), 0);
        let list = sharded.sai_list(&db, &config);
        assert_eq!(list.len(), db.len());
        assert!(list
            .entries()
            .iter()
            .all(|e| e.sai == 0.0 && e.probability == 0.0));
        assert_bit_identical(&sharded, &Corpus::new(), &config);
    }
}

#[test]
fn single_shard_degenerate_case_matches_the_unsharded_engine() {
    // A span wider than the whole corpus history puts every post in one
    // shard: the sharded engine degenerates to a single-engine pass through
    // the partial/merge machinery, and must still agree to the bit.
    let corpus = scenario::excavator_europe(42);
    let (_, config) = excavator_setup();
    let sharded = ShardedEngine::new(corpus.clone(), ShardSpec::ByTimeYears(1_000));
    assert_eq!(sharded.shard_count(), 1);
    assert_bit_identical(&sharded, &corpus, &config);

    // Same degeneracy on the region axis: a single-region corpus.
    let regional = ShardedEngine::new(corpus.clone(), ShardSpec::ByRegion);
    assert_eq!(regional.shard_count(), 1);
    assert_bit_identical(&regional, &corpus, &config);
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
    let (db, config) = excavator_setup();
    let sharded = ShardedEngine::new(corpus.clone(), ShardSpec::yearly());
    assert_eq!(
        sharded.shard_sizes(),
        vec![
            (
                ShardKey::Years {
                    from: 2020,
                    to: 2020
                },
                1
            ),
            (
                ShardKey::Years {
                    from: 2021,
                    to: 2021
                },
                2
            ),
        ]
    );
    assert_bit_identical(&sharded, &corpus, &config);

    // A window ending exactly on the boundary day only sees the 2020 post —
    // through the pruned sharded path and the naive scan alike.
    let boundary = config.clone().with_window(DateWindow::years(2020, 2020));
    let list = sharded.sai_list(&db, &boundary);
    assert_eq!(list.entries().iter().map(|e| e.posts).sum::<usize>(), 1);
    assert_bit_identical(&sharded, &corpus, &boundary);

    // Multi-year buckets put both boundary posts in one shard; still exact.
    let wide = ShardedEngine::new(corpus.clone(), ShardSpec::ByTimeYears(2));
    assert_bit_identical(&wide, &corpus, &boundary);
}

#[test]
fn a_region_absent_from_every_shard_scores_zero_everywhere() {
    // All posts are NorthAmerica; the excavator config filters on Europe, a
    // region no shard holds.  Region shards are all pruned, time shards all
    // scan and find nothing — both must equal the naive zero result.
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
    let (db, config) = excavator_setup();
    for spec in [ShardSpec::ByRegion, ShardSpec::yearly()] {
        let sharded = ShardedEngine::new(corpus.clone(), spec);
        let list = sharded.sai_list(&db, &config);
        assert!(list.entries().iter().all(|e| e.posts == 0 && e.sai == 0.0));
        assert_bit_identical(&sharded, &corpus, &config);
    }
}

#[test]
fn merging_shards_with_disjoint_vocabularies_is_exact() {
    // Two year-shards whose posts share no single token: every keyword's
    // evidence lives entirely in one shard, so the merge must interleave
    // "one-sided" partials correctly (and keep prices in global post order).
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
    let (db, config) = excavator_setup();
    let sharded = ShardedEngine::new(corpus.clone(), ShardSpec::yearly());
    assert_eq!(sharded.shard_count(), 2);
    let list = sharded.sai_list(&db, &config);
    let dpf = list.entry("dpfdelete").expect("dpf keyword scored");
    let egr = list.entry("egrdelete").expect("egr keyword scored");
    assert_eq!(dpf.posts, 2);
    assert_eq!(egr.posts, 2);
    assert_eq!(dpf.prices, vec![360.0]);
    assert_eq!(egr.prices, vec![250.0]);
    assert_bit_identical(&sharded, &corpus, &config);
}

#[test]
fn interleaved_time_shards_merge_back_into_global_post_order() {
    // Alternating years put interleaved global ids in the two year-shards
    // (0,2,4 vs 1,3,5), so the merge must genuinely k-way interleave the id
    // streams — concatenating shard results would scramble the price order
    // and the intent fold.
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
    let (db, config) = excavator_setup();
    let sharded = ShardedEngine::new(corpus.clone(), ShardSpec::yearly());
    assert_eq!(sharded.shard_count(), 2);
    assert_bit_identical(&sharded, &corpus, &config);

    // Prices come back in global posting order, not shard-major order.
    let list = sharded.sai_list(&db, &config);
    let dpf = list.entry("dpfdelete").expect("scored");
    assert_eq!(dpf.prices, vec![300.0, 301.0, 302.0, 303.0, 304.0, 305.0]);
}

#[test]
fn windowed_sweeps_prune_shards_without_changing_results() {
    let corpus = scenario::excavator_europe(42);
    let db = KeywordDatabase::excavator_seed();
    let configs: Vec<PspConfig> = (2015..2024)
        .map(|y| PspConfig::excavator_europe().with_window(DateWindow::years(y, y)))
        .collect();
    let sharded = ShardedEngine::new(corpus.clone(), ShardSpec::yearly());
    let single = LiveEngine::new(corpus.clone());
    assert_eq!(
        sharded.sai_lists(&db, &configs),
        single.sai_lists(&db, &configs)
    );
}

/// Thread-count independence of the sharded fan-out and merge (guards against
/// order-dependent merge bugs).  Uses the rayon shim's scoped
/// `with_thread_count` override, which real rayon does not expose — hence the
/// `shim-rayon` feature gate (see the workspace `Cargo.toml`); with real
/// rayon, size the global pool via `RAYON_NUM_THREADS` instead.
#[cfg(feature = "shim-rayon")]
mod thread_count_independence {
    use super::*;

    #[test]
    fn sharded_and_fanout_results_are_identical_at_every_thread_count() {
        let corpus = scenario::excavator_europe(42);
        let (db, config) = excavator_setup();
        let windowed = config.clone().with_window(DateWindow::years(2019, 2022));

        let reference_single =
            rayon::with_thread_count(1, || LiveEngine::new(corpus.clone()).sai_list(&db, &config));
        let reference_sharded = rayon::with_thread_count(1, || {
            ShardedEngine::new(corpus.clone(), ShardSpec::yearly()).sai_list(&db, &windowed)
        });

        for threads in [1, 2, 3, 8] {
            let (single, sharded_full, sharded_windowed) =
                rayon::with_thread_count(threads, || {
                    let single = LiveEngine::new(corpus.clone()).sai_list(&db, &config);
                    let sharded = ShardedEngine::new(corpus.clone(), ShardSpec::yearly());
                    (
                        single,
                        sharded.sai_list(&db, &config),
                        sharded.sai_list(&db, &windowed),
                    )
                });
            assert_eq!(
                single, reference_single,
                "single engine at {threads} threads"
            );
            assert_eq!(
                sharded_full, reference_single,
                "sharded full pass at {threads} threads"
            );
            assert_eq!(
                sharded_windowed, reference_sharded,
                "sharded windowed pass at {threads} threads"
            );
        }
    }

    #[test]
    fn batched_window_sweeps_are_thread_count_independent() {
        let corpus = scenario::excavator_europe(7);
        let db = KeywordDatabase::excavator_seed();
        let configs: Vec<PspConfig> = (2018..2024)
            .map(|y| PspConfig::excavator_europe().with_window(DateWindow::years(y, y)))
            .collect();
        let reference = rayon::with_thread_count(1, || {
            ShardedEngine::new(corpus.clone(), ShardSpec::ByTimeYears(2)).sai_lists(&db, &configs)
        });
        for threads in [2, 5, 16] {
            let swept = rayon::with_thread_count(threads, || {
                ShardedEngine::new(corpus.clone(), ShardSpec::ByTimeYears(2))
                    .sai_lists(&db, &configs)
            });
            assert_eq!(swept, reference, "sweep diverged at {threads} threads");
        }
    }
}
