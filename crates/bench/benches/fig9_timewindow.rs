//! E9 / Figure 9 — the windowed analysis behind the trend-inversion
//! experiment, on the sweep entry point.
//!
//! `compare_windows` measures the full cold-start artefact cost (a corpus
//! copy into the engine, the engine build, and a two-entry sweep: full
//! history vs the recent window);
//! `warm_yearly_sweep` measures the steady-state monitoring shape the sweep
//! plane exists for — one warm engine resolving every yearly window of the
//! scene through `sai_windows` — and `warm_yearly_lists` keeps per-window
//! `sai_list` calls alongside it as the honest reference.

use criterion::{criterion_group, criterion_main, Criterion};
use psp::config::PspConfig;
use psp::engine::{LiveEngine, SaiScorer, WindowAxis};
use psp::keyword_db::KeywordDatabase;
use psp::timewindow::compare_windows;
use psp_bench::{passenger_corpus, recent_window};
use socialsim::time::DateWindow;
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let corpus = passenger_corpus();
    let db = KeywordDatabase::passenger_car_seed();
    let config = PspConfig::passenger_car_europe();
    let windows: Vec<DateWindow> = (2015..=2023).map(|y| DateWindow::years(y, y)).collect();
    let configs: Vec<PspConfig> = windows
        .iter()
        .map(|w| config.clone().with_window(*w))
        .collect();
    let per_window = |engine: &LiveEngine| -> Vec<_> {
        configs.iter().map(|c| engine.sai_list(&db, c)).collect()
    };

    let engine = LiveEngine::new(corpus.clone());
    // Sanity before timing: the sweep must match per-window scoring.
    assert_eq!(
        engine.sai_windows(&db, &config, &WindowAxis::each(&windows)),
        per_window(&engine),
        "fig9 sweep diverged from per-window lists"
    );

    let mut group = c.benchmark_group("fig9");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(20));
    group.bench_function("compare_windows_ecm_reprogramming", |b| {
        b.iter(|| {
            black_box(compare_windows(
                &corpus,
                &db,
                &config,
                "ecm-reprogramming",
                recent_window(),
            ))
        })
    });
    group.bench_function("warm_yearly_sweep", |b| {
        b.iter(|| black_box(engine.sai_windows(&db, &config, &WindowAxis::each(&windows))))
    });
    group.bench_function("warm_yearly_lists", |b| {
        b.iter(|| black_box(per_window(&engine)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
