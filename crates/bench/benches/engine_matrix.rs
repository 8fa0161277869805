//! The batch plane vs hand-nested loops — the (scenario × weights × windows)
//! cross-product hot path.
//!
//! The workload is a fleet assessment: one warm engine answers a full
//! cross-product of 2 scenario databases × 4 weight/scene configurations ×
//! 20 overlapping one-year analysis windows (quarterly starts over
//! 2018-2022) of the scaled excavator corpus — 160 cells per request.  The
//! nested-loop equivalent runs one `sai_list` per windowed config, per
//! (database, configuration) pair: each of the 8 row pairs walks every
//! keyword's whole candidate set per window.  The matrix
//! (`sai_matrix`) schedules the same cells through per-(database, scene)
//! sweep plans — the three weight presets share one plan, the
//! credibility-filtered scene gets its own — so each row resolves its 20
//! windows against prefix-summed columns instead of 20 candidate walks.
//! Plans are cached on the engine (the bounded keyed `PlanCache`), so the
//! steady-state cost — what a TARA serving loop pays per matrix request —
//! is pure window resolution; the sanity check before timing warms the
//! plans exactly like a first request would.
//!
//! Per corpus size (default 10k and 100k posts; `PSP_BENCH_SIZES` overrides),
//! two paths are measured:
//!
//! * `nested_lists/<size>` — the warm single engine through hand-nested
//!   loops: per (database, configuration), one `sai_list` call per windowed
//!   config — the pre-matrix hot path;
//! * `matrix_cells/<size>` — the same cells through one `sai_matrix` request.
//!
//! The headline ratio `speedup_matrix/<size>` is nested/matrix (the
//! acceptance target: >= 3x at 100k posts), measured as a work ratio on one
//! worker thread (`psp_bench::perf::work_speedup`): three parallel samples
//! of each side spread 30-130% on a shared host.  The metric rows stay the
//! parallel cost.  Both paths are asserted bit-identical cell by cell
//! before anything is timed.  The report lands in
//! `target/perf/engine_matrix.json`; the blessed baseline in
//! `crates/bench/baselines/engine_matrix.json` is enforced by the CI
//! perf-smoke job via `perf_check --ratios-only`.

use criterion::{criterion_group, criterion_main, Criterion};
use psp::config::{PspConfig, SaiWeights};
use psp::engine::{LiveEngine, MatrixSpec, SaiScorer, WindowAxis};
use psp::keyword_db::KeywordDatabase;
use psp::sai::SaiList;
use psp_bench::perf::{fresh_report_path, mean_ns, sizes_from_env, work_speedup, PerfReport};
use psp_bench::scaled_excavator_corpus;
use socialsim::time::{DateWindow, SimDate};
use std::hint::black_box;
use std::time::Duration;

/// Default corpus sizes; override with `PSP_BENCH_SIZES=10000`.
const DEFAULT_SIZES: [usize; 2] = [10_000, 100_000];

/// Number of analysis windows in the grid.
const WINDOWS: usize = 20;

/// 20 overlapping one-year windows starting quarterly at 2018-01 (the scaled
/// corpus spans 2018-2023) — the same grid as the `engine_sweep` bench.
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

/// The scenario axis: two keyword databases.
fn scenario_axis() -> Vec<(&'static str, KeywordDatabase)> {
    vec![
        ("excavator", KeywordDatabase::excavator_seed()),
        ("passenger-car", KeywordDatabase::passenger_car_seed()),
    ]
}

/// The configuration axis: three weight presets sharing one scene plus a
/// credibility-filtered scene of its own — two plan keys per database.
fn config_axis() -> Vec<(&'static str, PspConfig)> {
    let base = PspConfig::excavator_europe();
    vec![
        ("balanced", base.clone()),
        (
            "views-only",
            base.clone().with_weights(SaiWeights::views_only()),
        ),
        (
            "interactions-only",
            base.clone().with_weights(SaiWeights::interactions_only()),
        ),
        ("filtered", base.with_poisoning_filter(0.25)),
    ]
}

/// The full cross-product as a [`MatrixSpec`].
fn matrix_spec(windows: &[DateWindow]) -> MatrixSpec {
    let mut spec = MatrixSpec::new();
    for (label, db) in scenario_axis() {
        spec = spec.scenario(label, db);
    }
    for (label, config) in config_axis() {
        spec = spec.config(label, config);
    }
    spec.window_axis(&WindowAxis::each(windows))
}

/// The hand-nested reference: per (database, configuration), one `sai_list`
/// per window — cells in the same order the matrix streams them.
fn nested_cells(engine: &LiveEngine, windows: &[DateWindow]) -> Vec<SaiList> {
    let mut cells = Vec::new();
    for (_, db) in scenario_axis() {
        for (_, config) in config_axis() {
            cells.extend(
                windows
                    .iter()
                    .map(|w| engine.sai_list(&db, &config.clone().with_window(*w))),
            );
        }
    }
    cells
}

/// Writes the report; `work` holds each size's `speedup_matrix` work ratio,
/// in `sizes` order.
fn write_report(c: &Criterion, sizes: &[usize], work: &[f64]) {
    let mut report = PerfReport::new("engine_matrix");
    for (size, &speedup) in sizes.iter().zip(work) {
        let nested = mean_ns(c, &format!("engine_matrix/nested_lists/{size}"));
        let matrix = mean_ns(c, &format!("engine_matrix/matrix_cells/{size}"));
        println!(
            "{size:>7} posts, 160 cells: nested {nested:>13.0} ns | matrix {matrix:>12.0} ns \
             ({speedup:.1}x work on one worker)"
        );
        report.push_metric(format!("nested_lists/{size}"), nested);
        report.push_metric(format!("matrix_cells/{size}"), matrix);
        report.push_ratio(format!("speedup_matrix/{size}"), speedup);
    }
    let path = fresh_report_path("engine_matrix");
    match report.save(&path) {
        Ok(()) => println!("perf report written to {}", path.display()),
        Err(err) => eprintln!("could not write perf report: {err}"),
    }
}

fn bench(c: &mut Criterion) {
    let windows = sweep_windows();
    let spec = matrix_spec(&windows);
    let sizes = sizes_from_env(&DEFAULT_SIZES);
    let mut work = Vec::with_capacity(sizes.len());

    for &size in &sizes {
        let corpus = scaled_excavator_corpus(size, 42);

        // The warm serving state: indexed, every text signal memoised.
        let single = LiveEngine::new(corpus);
        single.precompute_signals();

        // Sanity: the matrix must be bit-identical to the nested loops before
        // being timed.  (These first calls also build and cache the sweep
        // plans — the warm steady state the bench measures.)
        let reference = nested_cells(&single, &windows);
        let cells: Vec<SaiList> = single
            .sai_matrix(&spec)
            .into_cells()
            .into_iter()
            .map(|(_, sai)| sai)
            .collect();
        assert_eq!(
            cells, reference,
            "matrix diverged from nested loops at {size} posts"
        );

        let mut group = c.benchmark_group("engine_matrix");
        group
            .sample_size(3)
            .measurement_time(Duration::from_secs(10));
        group.bench_function(&format!("nested_lists/{size}"), |b| {
            b.iter(|| black_box(nested_cells(&single, &windows)))
        });
        group.bench_function(&format!("matrix_cells/{size}"), |b| {
            b.iter(|| black_box(single.sai_matrix(&spec)))
        });
        group.finish();
        work.push(rayon::with_thread_count(1, || {
            work_speedup(
                || nested_cells(&single, &windows),
                || single.sai_matrix(&spec),
            )
        }));
    }

    write_report(c, &sizes, &work);
}

criterion_group!(benches, bench);
criterion_main!(benches);
