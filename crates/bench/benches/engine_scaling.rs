//! Engine scaling — naive linear-scan SAI vs the indexed `LiveEngine` at
//! 1k / 10k / 100k posts.
//!
//! Three paths are measured per corpus size:
//!
//! * `naive` — `SaiList::compute_naive`, the O(keywords × posts) reference
//!   (rescans the corpus and re-runs the text pipeline per keyword);
//! * `one_shot_engine` — `SaiList::compute`, which indexes the borrowed
//!   corpus in a throwaway engine core (index + one text-pipeline pass) and
//!   scores through it;
//! * `indexed_pass` — `LiveEngine::sai_list` on a prebuilt engine, the
//!   amortised serving cost once a corpus is indexed.
//!
//! The gated `speedup_one_shot/<size>` and `speedup_indexed_pass/<size>` rows
//! are work ratios, naive over the engine path on one worker thread
//! (`psp_bench::perf::work_speedup`): at 1k posts an indexed pass is a ~55 µs
//! fan-out, and three samples of its thread start-up divided noise.  The
//! metric rows stay the parallel cost.
//!
//! After measuring, the bench writes a `PerfReport` to
//! `target/perf/engine_scaling.json`.  The blessed baseline lives in
//! `crates/bench/baselines/engine_scaling.json`; the CI `perf-smoke` job
//! re-runs this bench at small sizes (`PSP_BENCH_SIZES=1000,10000`) and fails
//! on a > 2x regression via `cargo run -p psp-bench --bin perf_check`.

use criterion::{criterion_group, criterion_main, Criterion};
use psp::config::PspConfig;
use psp::engine::{LiveEngine, SaiScorer};
use psp::keyword_db::KeywordDatabase;
use psp::sai::SaiList;
use psp_bench::perf::{fresh_report_path, mean_ns, sizes_from_env, work_speedup, PerfReport};
use psp_bench::{scaled_excavator_corpus, score_cold};
use std::hint::black_box;
use std::time::Duration;

/// Default corpus sizes; override with `PSP_BENCH_SIZES=1000,10000`.
const DEFAULT_SIZES: [usize; 3] = [1_000, 10_000, 100_000];

/// The corpus size at which the monitoring-style window sweep is measured.
const SWEEP_SIZE: usize = 100_000;

/// Window start years of the monitoring-style sweep (three-year windows).
const SWEEP_YEARS: std::ops::RangeInclusive<i32> = 2018..=2023;

fn sweep_configs() -> Vec<PspConfig> {
    SWEEP_YEARS
        .map(|year| {
            PspConfig::excavator_europe()
                .with_window(socialsim::time::DateWindow::years(year, year + 2))
        })
        .collect()
}

/// Writes the report; `work` holds each size's (`speedup_one_shot`,
/// `speedup_indexed_pass`) work ratios, in `sizes` order.
fn write_report(c: &Criterion, sizes: &[usize], work: &[(f64, f64)]) {
    let mut report = PerfReport::new("engine_scaling");
    for (size, &(speedup_one_shot, speedup_indexed)) in sizes.iter().zip(work) {
        let naive = mean_ns(c, &format!("engine_scaling/naive/{size}"));
        let one_shot = mean_ns(c, &format!("engine_scaling/one_shot_engine/{size}"));
        let indexed = mean_ns(c, &format!("engine_scaling/indexed_pass/{size}"));
        println!(
            "posts {size:>7}: naive {naive:>14.0} ns | one-shot engine {one_shot:>13.0} ns \
             ({speedup_one_shot:.1}x work) | indexed pass {indexed:>11.0} ns \
             ({speedup_indexed:.1}x work)"
        );
        report.push_metric(format!("naive/{size}"), naive);
        report.push_metric(format!("one_shot_engine/{size}"), one_shot);
        report.push_metric(format!("indexed_pass/{size}"), indexed);
        report.push_ratio(format!("speedup_one_shot/{size}"), speedup_one_shot);
        report.push_ratio(format!("speedup_indexed_pass/{size}"), speedup_indexed);
    }
    if sizes.contains(&SWEEP_SIZE) {
        let sweep_naive = mean_ns(
            c,
            &format!("engine_scaling/window_sweep_naive/{SWEEP_SIZE}"),
        );
        let sweep_engine = mean_ns(
            c,
            &format!("engine_scaling/window_sweep_engine/{SWEEP_SIZE}"),
        );
        let sweep_speedup = sweep_naive / sweep_engine;
        println!(
            "window sweep ({SWEEP_SIZE} posts, {} windows incl. engine build): naive \
             {sweep_naive:.0} ns | engine {sweep_engine:.0} ns ({sweep_speedup:.1}x)",
            sweep_configs().len()
        );
        report.push_metric(format!("window_sweep_naive/{SWEEP_SIZE}"), sweep_naive);
        report.push_metric(format!("window_sweep_engine/{SWEEP_SIZE}"), sweep_engine);
        report.push_ratio(format!("window_sweep_speedup/{SWEEP_SIZE}"), sweep_speedup);
    }
    let path = fresh_report_path("engine_scaling");
    match report.save(&path) {
        Ok(()) => println!("perf report written to {}", path.display()),
        Err(err) => eprintln!("could not write perf report: {err}"),
    }
}

fn bench(c: &mut Criterion) {
    let db = KeywordDatabase::excavator_seed();
    let config = PspConfig::excavator_europe();
    let sizes = sizes_from_env(&DEFAULT_SIZES);
    let mut work = Vec::with_capacity(sizes.len());

    for &size in &sizes {
        let mut corpus = scaled_excavator_corpus(size, 42);
        let mut group = c.benchmark_group("engine_scaling");
        group
            .sample_size(3)
            .measurement_time(Duration::from_secs(10));
        group.bench_function(&format!("naive/{size}"), |b| {
            b.iter(|| black_box(SaiList::compute_naive(&corpus, &db, &config)))
        });
        group.bench_function(&format!("one_shot_engine/{size}"), |b| {
            b.iter(|| black_box(SaiList::compute(&corpus, &db, &config)))
        });
        let engine = LiveEngine::new(corpus.clone());
        group.bench_function(&format!("indexed_pass/{size}"), |b| {
            b.iter(|| black_box(engine.sai_list(&db, &config)))
        });
        let naive = || SaiList::compute_naive(&corpus, &db, &config);
        work.push(rayon::with_thread_count(1, || {
            (
                work_speedup(naive, || SaiList::compute(&corpus, &db, &config)),
                work_speedup(naive, || engine.sai_list(&db, &config)),
            )
        }));
        // The monitoring-style sweep at the largest size: many windows over one
        // corpus is where indexing amortises even including engine build.
        if size == SWEEP_SIZE {
            let configs = sweep_configs();
            group.bench_function(&format!("window_sweep_naive/{size}"), |b| {
                b.iter(|| {
                    for cfg in &configs {
                        black_box(SaiList::compute_naive(&corpus, &db, cfg));
                    }
                })
            });
            group.bench_function(&format!("window_sweep_engine/{size}"), |b| {
                b.iter(|| {
                    black_box(score_cold(&mut corpus, LiveEngine::new, |engine| {
                        engine.sai_lists(&db, &configs)
                    }))
                })
            });
        }
        group.finish();
    }

    write_report(c, &sizes, &work);
}

criterion_group!(benches, bench);
criterion_main!(benches);
