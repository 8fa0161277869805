//! Sharded vs single-engine scoring — the fleet-scale fan-out.
//!
//! The workload is the monitoring hot path: a warm engine (index built, every
//! text signal memoised) answers a sweep of yearly analysis windows.  The
//! single engine resolves each keyword's content candidates once but must
//! re-filter the *whole corpus'* candidate set for every window; the sharded
//! engine (yearly time shards) prunes every shard whose year span a window
//! cannot touch, so each window only filters the candidates of the one shard
//! it overlaps — the work per sweep drops from `windows x corpus` to
//! `windows x shard`.  That locality win is thread-count independent, and on
//! multi-core machines shard fan-out stacks on top of it.
//!
//! Per corpus size (default 10k and 100k posts; `PSP_BENCH_SIZES` overrides),
//! four paths are measured:
//!
//! * `window_sweep_single/<size>` — one warm `LiveEngine`, batch-scoring
//!   one config per year (6 windows over 2018-2023);
//! * `window_sweep_sharded/<size>` — a warm `ShardedEngine` on yearly shards,
//!   same configs, shard pruning active;
//! * `cold_build_single/<size>` / `cold_build_sharded/<size>` — constructing
//!   the engines from scratch and scoring once (context: sharding must not
//!   make cold starts materially worse).  Both engines take the corpus by
//!   value, so *both* paths clone the corpus inside the timed loop — the
//!   comparison is clone+build+score vs clone+build+score, never penalising
//!   one side with the clone.
//!
//! The headline ratio `speedup_window_sweep/<size>` is single/sharded.  The
//! report lands in `target/perf/engine_sharding.json`; the blessed baseline in
//! `crates/bench/baselines/engine_sharding.json` records the acceptance target
//! (the sharded sweep beats the single-engine sweep at 100k posts).  The CI
//! `perf-smoke` job enforces the ratio rows via `perf_check --ratios-only` at
//! reduced sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use psp::config::PspConfig;
use psp::engine::{LiveEngine, SaiScorer, ShardedEngine};
use psp::keyword_db::KeywordDatabase;
use psp_bench::perf::{fresh_report_path, mean_ns, sizes_from_env, PerfReport};
use psp_bench::scaled_excavator_corpus;
use socialsim::index::ShardSpec;
use socialsim::time::DateWindow;
use std::hint::black_box;
use std::time::Duration;

/// Default corpus sizes; override with `PSP_BENCH_SIZES=10000`.
const DEFAULT_SIZES: [usize; 2] = [10_000, 100_000];

/// The yearly analysis windows of the sweep (the scaled corpus spans
/// 2018-2023).
fn sweep_configs() -> Vec<PspConfig> {
    (2018..=2023)
        .map(|y| PspConfig::excavator_europe().with_window(DateWindow::years(y, y)))
        .collect()
}

fn write_report(c: &Criterion, sizes: &[usize]) {
    let mut report = PerfReport::new("engine_sharding");
    for size in sizes {
        let single = mean_ns(c, &format!("engine_sharding/window_sweep_single/{size}"));
        let sharded = mean_ns(c, &format!("engine_sharding/window_sweep_sharded/{size}"));
        let cold_single = mean_ns(c, &format!("engine_sharding/cold_build_single/{size}"));
        let cold_sharded = mean_ns(c, &format!("engine_sharding/cold_build_sharded/{size}"));
        let speedup = single / sharded;
        println!(
            "{size:>7} posts: sweep single {single:>13.0} ns | sharded {sharded:>12.0} ns \
             ({speedup:.1}x) | cold build single {cold_single:>13.0} ns | sharded {cold_sharded:>13.0} ns"
        );
        report.push_metric(format!("window_sweep_single/{size}"), single);
        report.push_metric(format!("window_sweep_sharded/{size}"), sharded);
        report.push_metric(format!("cold_build_single/{size}"), cold_single);
        report.push_metric(format!("cold_build_sharded/{size}"), cold_sharded);
        report.push_ratio(format!("speedup_window_sweep/{size}"), speedup);
    }
    let path = fresh_report_path("engine_sharding");
    match report.save(&path) {
        Ok(()) => println!("perf report written to {}", path.display()),
        Err(err) => eprintln!("could not write perf report: {err}"),
    }
}

fn bench(c: &mut Criterion) {
    let db = KeywordDatabase::excavator_seed();
    let configs = sweep_configs();
    let sizes = sizes_from_env(&DEFAULT_SIZES);

    for &size in &sizes {
        let corpus = scaled_excavator_corpus(size, 42);

        // The warm serving state for both shapes: indexed, signals memoised.
        let single = LiveEngine::new(corpus.clone());
        single.precompute_signals();
        let sharded = ShardedEngine::new(corpus.clone(), ShardSpec::yearly());
        sharded.precompute_signals();

        // Sanity: the sharded sweep must be bit-identical before being timed.
        assert_eq!(
            sharded.sai_lists(&db, &configs),
            single.sai_lists(&db, &configs),
            "sharded sweep diverged from the single-engine sweep at {size} posts"
        );

        let mut group = c.benchmark_group("engine_sharding");
        group
            .sample_size(3)
            .measurement_time(Duration::from_secs(10));
        group.bench_function(&format!("window_sweep_single/{size}"), |b| {
            b.iter(|| black_box(single.sai_lists(&db, &configs)))
        });
        group.bench_function(&format!("window_sweep_sharded/{size}"), |b| {
            b.iter(|| black_box(sharded.sai_lists(&db, &configs)))
        });
        group.bench_function(&format!("cold_build_single/{size}"), |b| {
            b.iter(|| black_box(LiveEngine::new(corpus.clone()).sai_list(&db, &configs[0])))
        });
        group.bench_function(&format!("cold_build_sharded/{size}"), |b| {
            b.iter(|| {
                black_box(
                    ShardedEngine::new(corpus.clone(), ShardSpec::yearly())
                        .sai_list(&db, &configs[0]),
                )
            })
        });
        group.finish();
    }

    write_report(c, &sizes);
}

criterion_group!(benches, bench);
criterion_main!(benches);
