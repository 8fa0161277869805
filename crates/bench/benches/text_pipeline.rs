//! The text-analysis hot path — single-pass analyzer vs the frozen multi-pass
//! seed, and cold one-shot SAI with and without the persisted signal cache.
//!
//! ROADMAP's "One-shot parity" item: a single cold SAI computation is bounded
//! by `textmine::pipeline::analyze` over the matching posts.  This bench pins
//! the two remedies PR 4 shipped:
//!
//! * **single-pass analyzer** — `analyze/single_pass/<n>` vs
//!   `analyze/reference/<n>` measure per-post document analysis over the
//!   corpus texts (the reference rows run the frozen multi-pass
//!   implementation in `textmine::reference`, i.e. what the seed shipped);
//!   `signals/single_pass/<n>` additionally measures the engine-facing lean
//!   entry point that materialises no token strings.
//! * **cold-start** — `cold_sai/reference|fresh|cached/<n>` measure a full
//!   one-shot SAI computation on a cold engine: with the seed pipeline, with
//!   the single-pass pipeline, and with a [`SignalCacheFile`] installed
//!   instead of running text mining at all (the restart path; the cache is
//!   exported, round-tripped through JSON once, and validated bit-exact
//!   before timing).
//!
//! Enforced ratios: `speedup_analyze/<n>` (reference / single-pass, the
//! per-post pipeline speedup), `speedup_cold/<n>` (cold one-shot SAI,
//! reference pipeline / single-pass — the headline "vs seed" number) and
//! `speedup_cache/<n>` (cold SAI, fresh mining / cache load).  The report
//! lands in `target/perf/text_pipeline.json`; the blessed baseline in
//! `crates/bench/baselines/text_pipeline.json` records the acceptance targets
//! (single-pass analyze >= 3x the seed, cold one-shot SAI >= 2x at 100k
//! posts).  The CI `perf-smoke` job enforces the ratios at reduced sizes via
//! `perf_check --ratios-only`.

use criterion::{criterion_group, criterion_main, Criterion};
use psp::config::PspConfig;
use psp::engine::{LiveEngine, SignalCacheFile};
use psp::keyword_db::KeywordDatabase;
use psp_bench::perf::{fresh_report_path, mean_ns, sizes_from_env, PerfReport};
use psp_bench::{scaled_excavator_corpus, score_cold};
use std::hint::black_box;
use std::time::Duration;
use textmine::pipeline::TextPipeline;
use textmine::reference;

/// Default corpus sizes; override with `PSP_BENCH_SIZES=10000`.
const DEFAULT_SIZES: [usize; 2] = [10_000, 100_000];

fn write_report(c: &Criterion, sizes: &[usize]) {
    let mut report = PerfReport::new("text_pipeline");
    for size in sizes {
        let single = mean_ns(c, &format!("text_pipeline/analyze/single_pass/{size}"));
        let multi = mean_ns(c, &format!("text_pipeline/analyze/reference/{size}"));
        let lean = mean_ns(c, &format!("text_pipeline/signals/single_pass/{size}"));
        let cold_ref = mean_ns(c, &format!("text_pipeline/cold_sai/reference/{size}"));
        let cold_fresh = mean_ns(c, &format!("text_pipeline/cold_sai/fresh/{size}"));
        let cold_cached = mean_ns(c, &format!("text_pipeline/cold_sai/cached/{size}"));
        let speedup_analyze = multi / single;
        let speedup_cold = cold_ref / cold_fresh;
        let speedup_cache = cold_fresh / cold_cached;
        println!(
            "{size:>7} posts: analyze {multi:>12.0} -> {single:>11.0} ns ({speedup_analyze:.1}x, lean {lean:.0} ns) | \
             cold SAI {cold_ref:>12.0} -> {cold_fresh:>11.0} ns ({speedup_cold:.1}x) | \
             cache-loaded {cold_cached:>11.0} ns ({speedup_cache:.1}x vs fresh)"
        );
        report.push_metric(format!("analyze/single_pass/{size}"), single);
        report.push_metric(format!("analyze/reference/{size}"), multi);
        report.push_metric(format!("signals/single_pass/{size}"), lean);
        report.push_metric(format!("cold_sai/reference/{size}"), cold_ref);
        report.push_metric(format!("cold_sai/fresh/{size}"), cold_fresh);
        report.push_metric(format!("cold_sai/cached/{size}"), cold_cached);
        report.push_ratio(format!("speedup_analyze/{size}"), speedup_analyze);
        report.push_ratio(format!("speedup_cold/{size}"), speedup_cold);
        report.push_ratio(format!("speedup_cache/{size}"), speedup_cache);
    }
    let path = fresh_report_path("text_pipeline");
    match report.save(&path) {
        Ok(()) => println!("perf report written to {}", path.display()),
        Err(err) => eprintln!("could not write perf report: {err}"),
    }
}

fn bench(c: &mut Criterion) {
    let db = KeywordDatabase::excavator_seed();
    let config = PspConfig::excavator_europe();
    let sizes = sizes_from_env(&DEFAULT_SIZES);
    let fast = TextPipeline::new();
    let slow = TextPipeline::reference();

    for &size in &sizes {
        let corpus = scaled_excavator_corpus(size, 42);
        let texts: Vec<&str> = corpus.posts().iter().map(|p| p.text()).collect();

        // Sanity: the two pipelines must agree bit-for-bit before being timed,
        // and a JSON-round-tripped signal cache must restore exact scores.
        for text in &texts {
            assert_eq!(
                fast.analyze(text),
                reference::analyze(fast.lexicon(), text),
                "single-pass diverged from reference on {text:?}"
            );
        }
        let fresh_scores = LiveEngine::new(corpus.clone()).sai_list(&db, &config);
        let cache: SignalCacheFile = {
            let exported = LiveEngine::new(corpus.clone()).export_signal_cache();
            let json = serde_json::to_string(&exported).expect("serialise cache");
            let round_tripped = serde_json::from_str(&json).expect("parse cache");
            assert_eq!(exported, round_tripped, "cache JSON round trip drifted");
            round_tripped
        };
        {
            let warmed = LiveEngine::new(corpus.clone());
            assert_eq!(
                warmed.load_signal_cache(&cache).expect("cache validates"),
                corpus.len(),
                "cache load must warm every post"
            );
            assert_eq!(
                warmed.sai_list(&db, &config),
                fresh_scores,
                "cache-loaded scores diverged at {size} posts"
            );
        }

        // The cold rows move this copy into each engine and back, so no timed
        // iteration copies the corpus (`texts` borrows the original).
        let mut cold = corpus.clone();
        let mut group = c.benchmark_group("text_pipeline");
        group
            .sample_size(3)
            .measurement_time(Duration::from_secs(10));
        group.bench_function(&format!("analyze/single_pass/{size}"), |b| {
            b.iter(|| {
                let mut hits = 0_usize;
                for text in &texts {
                    let analysis = fast.analyze(text);
                    hits += analysis.intent.engagement_hits + analysis.prices.len();
                }
                black_box(hits)
            })
        });
        group.bench_function(&format!("analyze/reference/{size}"), |b| {
            b.iter(|| {
                let mut hits = 0_usize;
                for text in &texts {
                    let analysis = slow.analyze(text);
                    hits += analysis.intent.engagement_hits + analysis.prices.len();
                }
                black_box(hits)
            })
        });
        group.bench_function(&format!("signals/single_pass/{size}"), |b| {
            b.iter(|| {
                let mut hits = 0_usize;
                for text in &texts {
                    let signals = fast.signals(text);
                    hits += signals.intent.engagement_hits + signals.prices.len();
                }
                black_box(hits)
            })
        });
        group.bench_function(&format!("cold_sai/reference/{size}"), |b| {
            b.iter(|| {
                score_cold(
                    &mut cold,
                    |corpus| LiveEngine::with_pipeline(corpus, TextPipeline::reference()),
                    |engine| engine.sai_list(&db, &config),
                )
            })
        });
        group.bench_function(&format!("cold_sai/fresh/{size}"), |b| {
            b.iter(|| {
                score_cold(&mut cold, LiveEngine::new, |engine| {
                    engine.sai_list(&db, &config)
                })
            })
        });
        group.bench_function(&format!("cold_sai/cached/{size}"), |b| {
            b.iter(|| {
                score_cold(&mut cold, LiveEngine::new, |engine| {
                    engine
                        .load_signal_cache(&cache)
                        .expect("cache validates against its own corpus");
                    engine.sai_list(&db, &config)
                })
            })
        });
        group.finish();
    }

    write_report(c, &sizes);
}

criterion_group!(benches, bench);
criterion_main!(benches);
