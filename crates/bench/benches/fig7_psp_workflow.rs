//! E7 / Figure 7 — the full PSP workflow (corpus generation, SAI, learning,
//! weight-table generation) on the passenger-car scene.

use criterion::{criterion_group, criterion_main, Criterion};
use psp::config::PspConfig;
use psp::keyword_db::KeywordDatabase;
use psp::workflow::PspWorkflow;
use psp_bench::passenger_corpus;
use socialsim::scenario;
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(20));

    group.bench_function("corpus_generation_passenger", |b| {
        b.iter(|| black_box(scenario::passenger_car_europe(42)))
    });

    let corpus = passenger_corpus();
    let db = KeywordDatabase::passenger_car_seed();
    group.bench_function("full_workflow_with_learning", |b| {
        b.iter(|| {
            black_box(PspWorkflow::new(PspConfig::passenger_car_europe(), db.clone()).run(&corpus))
        })
    });
    group.bench_function("full_workflow_without_learning", |b| {
        b.iter(|| {
            black_box(
                PspWorkflow::new(
                    PspConfig::passenger_car_europe().with_learning(false),
                    db.clone(),
                )
                .run(&corpus),
            )
        })
    });
    // The amortised serving shape: the corpus is indexed once in a
    // LiveEngine and each workflow run only pays the indexed scoring pass.
    let engine = psp::engine::LiveEngine::new(corpus.clone());
    group.bench_function("full_workflow_prebuilt_engine", |b| {
        b.iter(|| {
            black_box(
                PspWorkflow::new(PspConfig::passenger_car_europe(), db.clone())
                    .run_with_engine(&engine),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
