//! E12 / Figure 12 — SAI computation on the excavator scene.
//!
//! `SaiList::compute` now routes through a throwaway indexed engine core;
//! this bench measures the one-shot path, the engine build, the amortised
//! indexed pass on a prebuilt `LiveEngine`, and the naive linear-scan
//! reference.

use criterion::{criterion_group, criterion_main, Criterion};
use psp::config::PspConfig;
use psp::engine::LiveEngine;
use psp::keyword_db::KeywordDatabase;
use psp::sai::SaiList;
use psp_bench::{excavator_corpus, excavator_sai, score_cold};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut corpus = excavator_corpus();
    let db = KeywordDatabase::excavator_seed();
    let config = PspConfig::excavator_europe();

    let mut group = c.benchmark_group("fig12");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(20));
    group.bench_function("sai_computation_excavator", |b| {
        b.iter(|| black_box(SaiList::compute(&corpus, &db, &config)))
    });
    group.bench_function("sai_naive_reference_excavator", |b| {
        b.iter(|| black_box(SaiList::compute_naive(&corpus, &db, &config)))
    });
    group.bench_function("engine_build_excavator", |b| {
        // The corpus moves into each engine and back: the build, not a copy.
        b.iter(|| score_cold(&mut corpus, LiveEngine::new, |engine| engine.post_count()))
    });
    let engine = LiveEngine::new(corpus);
    group.bench_function("engine_sai_indexed_pass", |b| {
        b.iter(|| black_box(engine.sai_list(&db, &config)))
    });
    group.finish();

    let sai = excavator_sai();
    c.bench_function("fig12/scenario_ranking", |b| {
        b.iter(|| black_box(sai.scenario_ranking()))
    });
    c.bench_function("fig12/vector_shares", |b| {
        b.iter(|| black_box(sai.vector_shares("dpf-tampering")))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
