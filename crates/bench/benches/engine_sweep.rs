//! The sweep plane vs per-window batch scoring — the N-window monitoring
//! hot path.
//!
//! The workload is a monitoring sweep: one warm engine (index built, signals
//! memoised) answers 20 overlapping one-year analysis windows (quarterly
//! starts over 2018-2022) of the scaled excavator corpus.  The batch
//! `sai_lists` path resolves each keyword's candidates once but still walks
//! the whole candidate set per window (a date filter plus a signal fold);
//! `sai_windows` projects the candidates once into date-sorted, prefix-summed
//! columns and resolves each window with two binary searches plus a fold over
//! only the window's own rows.  The sweep plan is cached on the engine, so
//! the steady-state cost — what a `LiveMonitor` pays per re-evaluation — is
//! pure window resolution; the sanity check before timing warms the plan
//! exactly like the first monitoring pass would.
//!
//! Per corpus size (default 10k and 100k posts; `PSP_BENCH_SIZES` overrides),
//! two paths are measured:
//!
//! * `window_sweep_lists/<size>` — the warm single engine through per-window
//!   batch scoring (`sai_lists`, one config per window) — the pre-sweep hot
//!   path;
//! * `window_sweep_plan/<size>` — the same engine and windows through
//!   `sai_windows`.
//!
//! The headline ratio `speedup_sweep/<size>` is lists/plan (the acceptance
//! target: >= 5x at 100k posts), measured as a work ratio on one worker
//! thread (`psp_bench::perf::work_speedup`): at 10k posts the sweep is a
//! ~165 µs fan-out, and three samples of its thread start-up divided noise.
//! Both paths are asserted bit-identical before anything is timed.  The
//! report lands in `target/perf/engine_sweep.json`; the blessed baseline in
//! `crates/bench/baselines/engine_sweep.json` is enforced by the CI
//! perf-smoke job via `perf_check --ratios-only`.

use criterion::{criterion_group, criterion_main, Criterion};
use psp::config::PspConfig;
use psp::engine::{LiveEngine, SaiScorer, WindowAxis};
use psp::keyword_db::KeywordDatabase;
use psp_bench::perf::{fresh_report_path, mean_ns, sizes_from_env, work_speedup, PerfReport};
use psp_bench::scaled_excavator_corpus;
use socialsim::time::{DateWindow, SimDate};
use std::hint::black_box;
use std::time::Duration;

/// Default corpus sizes; override with `PSP_BENCH_SIZES=10000`.
const DEFAULT_SIZES: [usize; 2] = [10_000, 100_000];

/// Number of analysis windows in the sweep.
const WINDOWS: usize = 20;

/// 20 overlapping one-year windows starting quarterly at 2018-01 (the scaled
/// corpus spans 2018-2023) — the shape of a monthly-cadence monitoring loop.
fn sweep_windows() -> Vec<DateWindow> {
    (0..WINDOWS)
        .map(|i| {
            let start_month = 3 * i; // months since 2018-01
            let end_month = start_month + 11;
            DateWindow::new(
                SimDate::new(
                    2018 + (start_month / 12) as i32,
                    (1 + start_month % 12) as u8,
                    1,
                ),
                SimDate::new(
                    2018 + (end_month / 12) as i32,
                    (1 + end_month % 12) as u8,
                    28,
                ),
            )
        })
        .collect()
}

/// Writes the report; `work` holds each size's `speedup_sweep` work ratio,
/// in `sizes` order.
fn write_report(c: &Criterion, sizes: &[usize], work: &[f64]) {
    let mut report = PerfReport::new("engine_sweep");
    for (size, &speedup) in sizes.iter().zip(work) {
        let lists = mean_ns(c, &format!("engine_sweep/window_sweep_lists/{size}"));
        let plan = mean_ns(c, &format!("engine_sweep/window_sweep_plan/{size}"));
        println!(
            "{size:>7} posts, {WINDOWS} windows: lists {lists:>13.0} ns | sweep {plan:>12.0} ns \
             ({speedup:.1}x work on one worker)"
        );
        report.push_metric(format!("window_sweep_lists/{size}"), lists);
        report.push_metric(format!("window_sweep_plan/{size}"), plan);
        report.push_ratio(format!("speedup_sweep/{size}"), speedup);
    }
    let path = fresh_report_path("engine_sweep");
    match report.save(&path) {
        Ok(()) => println!("perf report written to {}", path.display()),
        Err(err) => eprintln!("could not write perf report: {err}"),
    }
}

fn bench(c: &mut Criterion) {
    let db = KeywordDatabase::excavator_seed();
    let base = PspConfig::excavator_europe();
    let windows = sweep_windows();
    let configs: Vec<PspConfig> = windows
        .iter()
        .map(|w| base.clone().with_window(*w))
        .collect();
    let sizes = sizes_from_env(&DEFAULT_SIZES);
    let mut work = Vec::with_capacity(sizes.len());

    for &size in &sizes {
        let corpus = scaled_excavator_corpus(size, 42);

        // The warm serving state: indexed, every text signal memoised.
        let single = LiveEngine::new(corpus);
        single.precompute_signals();

        // Sanity: the sweep must be bit-identical to per-window batch
        // scoring before being timed.  (This first call also builds and
        // caches the sweep plan — the warm steady state the bench measures.)
        let reference = single.sai_lists(&db, &configs);
        assert_eq!(
            single.sai_windows(&db, &base, &WindowAxis::each(&windows)),
            reference,
            "sweep diverged from per-window lists at {size} posts"
        );

        let mut group = c.benchmark_group("engine_sweep");
        group
            .sample_size(3)
            .measurement_time(Duration::from_secs(10));
        group.bench_function(&format!("window_sweep_lists/{size}"), |b| {
            b.iter(|| black_box(single.sai_lists(&db, &configs)))
        });
        group.bench_function(&format!("window_sweep_plan/{size}"), |b| {
            b.iter(|| black_box(single.sai_windows(&db, &base, &WindowAxis::each(&windows))))
        });
        group.finish();
        work.push(rayon::with_thread_count(1, || {
            work_speedup(
                || single.sai_lists(&db, &configs),
                || single.sai_windows(&db, &base, &WindowAxis::each(&windows)),
            )
        }));
    }

    write_report(c, &sizes, &work);
}

criterion_group!(benches, bench);
criterion_main!(benches);
