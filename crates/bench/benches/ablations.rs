//! Ablation benches for the design choices called out in DESIGN.md: SAI weight
//! presets, keyword learning on/off, rank-based vs proportional weight mapping and
//! the poisoning filter.

use criterion::{criterion_group, criterion_main, Criterion};
use psp::config::{PspConfig, SaiWeights};
use psp::engine::{LiveEngine, SaiScorer, WindowAxis};
use psp::keyword_db::KeywordDatabase;
use psp::weights::{WeightGenerator, WeightMapping};
use psp::workflow::PspWorkflow;
use psp_bench::{passenger_corpus, passenger_sai};
use socialsim::poisoning::BotCampaign;
use socialsim::post::{Region, TargetApplication};
use socialsim::time::DateWindow;
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let corpus = passenger_corpus();
    let db = KeywordDatabase::passenger_car_seed();

    let mut group = c.benchmark_group("ablations");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(20));

    // SAI weight presets, each swept over the yearly windows of the scene
    // through the sweep entry point.  Weights are applied at sweep time, so
    // all three presets resolve against one cached plan on the warm engine —
    // the ablation isolates the weight formula, not plan rebuilds.
    let engine = LiveEngine::new(corpus.clone());
    let windows: Vec<DateWindow> = (2015..=2023).map(|y| DateWindow::years(y, y)).collect();
    for (label, weights) in [
        ("sai_sweep_default_weights", SaiWeights::default()),
        ("sai_sweep_views_only", SaiWeights::views_only()),
        (
            "sai_sweep_interactions_only",
            SaiWeights::interactions_only(),
        ),
    ] {
        let config = PspConfig::passenger_car_europe().with_weights(weights);
        // Sanity before timing: the swept preset matches per-window scoring.
        let per_window: Vec<PspConfig> = windows
            .iter()
            .map(|w| config.clone().with_window(*w))
            .collect();
        assert_eq!(
            engine.sai_windows(&db, &config, &WindowAxis::each(&windows)),
            engine.sai_lists(&db, &per_window),
            "{label} sweep diverged from per-window lists"
        );
        group.bench_function(label, |b| {
            b.iter(|| black_box(engine.sai_windows(&db, &config, &WindowAxis::each(&windows))))
        });
    }

    // Weight-mapping variants (pure table generation, cheap).
    let sai = passenger_sai(None);
    for (label, mapping) in [
        ("mapping_rank_based", WeightMapping::RankBased),
        ("mapping_proportional", WeightMapping::Proportional),
    ] {
        group.bench_function(label, |b| {
            let generator = WeightGenerator::with_mapping(mapping);
            b.iter(|| black_box(generator.insider_table(&sai, "ecm-reprogramming")))
        });
    }

    // Poisoning filter on/off against a poisoned corpus.
    let mut poisoned = corpus.clone();
    BotCampaign::new("chiptuning", 1_000, 2023)
        .targeting(Region::Europe, TargetApplication::PassengerCar)
        .inject(&mut poisoned, 7);
    group.bench_function("poisoned_workflow_no_filter", |b| {
        b.iter(|| {
            black_box(
                PspWorkflow::new(PspConfig::passenger_car_europe(), db.clone()).run(&poisoned),
            )
        })
    });
    group.bench_function("poisoned_workflow_with_filter", |b| {
        b.iter(|| {
            black_box(
                PspWorkflow::new(
                    PspConfig::passenger_car_europe().with_poisoning_filter(0.25),
                    db.clone(),
                )
                .run(&poisoned),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
