//! Streaming ingestion — append-then-score vs rebuild-then-score.
//!
//! The continuous-monitoring loop ingests a batch of new posts into a corpus
//! that is already being served, then re-evaluates SAI.  Before incremental
//! indexing, that meant rebuilding the whole engine (full index build
//! plus a cold text-pipeline pass over every matching post).  With
//! `LiveEngine::ingest`, only the batch is indexed and only the batch's posts
//! ever pay the text pipeline.
//!
//! Per base-corpus size (default 10k and 100k posts; `PSP_BENCH_SIZES`
//! overrides), a 1k-post batch arrives and three paths are measured:
//!
//! * `rebuild_then_score` — clone the base corpus, append the batch, move it
//!   into a fresh `LiveEngine`, score.  The pre-ingestion state of the art.
//! * `append_then_score` — clone a *warm* `LiveEngine` (signals memoised),
//!   ingest the batch in place, score.  The clone is an artefact of repeatable
//!   measurement (a real serving loop mutates one engine); its cost is
//!   measured separately so the report can also state the net append cost.
//! * `clone_warm_engine` — just the clone, for that correction.
//!
//! The headline ratio `speedup_append/<size>` uses the raw (conservative,
//! clone-included) append timing.  The report lands in
//! `target/perf/engine_ingest.json`; the blessed baseline in
//! `crates/bench/baselines/engine_ingest.json` records the acceptance target
//! (append beats rebuild by >= 5x at 100k posts).  The CI `perf-smoke` job
//! enforces the small-size rows via `perf_check` (it runs with
//! `PSP_BENCH_SIZES=10000`); the 100k row is checked whenever the bench runs
//! at full size — locally and at baseline-blessing time.

use criterion::{criterion_group, criterion_main, Criterion};
use psp::config::PspConfig;
use psp::engine::LiveEngine;
use psp::keyword_db::KeywordDatabase;
use psp_bench::perf::{fresh_report_path, mean_ns, sizes_from_env, PerfReport};
use psp_bench::scaled_excavator_corpus;
use socialsim::post::Post;
use std::hint::black_box;
use std::time::Duration;

/// Default base-corpus sizes; override with `PSP_BENCH_SIZES=10000`.
const DEFAULT_SIZES: [usize; 2] = [10_000, 100_000];

/// Posts per arriving batch.
const BATCH: usize = 1_000;

/// The arriving batch: same topic shape as the base corpus, disjoint seed.
/// Generated oversized because the corpus builder rounds post counts down to
/// whole topic/year cells, then truncated to exactly [`BATCH`] posts.
fn arriving_batch() -> Vec<Post> {
    let stream = scaled_excavator_corpus(BATCH * 6 / 5, 7);
    let batch: Vec<Post> = stream.posts().iter().take(BATCH).cloned().collect();
    assert_eq!(batch.len(), BATCH, "batch generation came up short");
    batch
}

fn write_report(c: &Criterion, sizes: &[usize]) {
    let mut report = PerfReport::new("engine_ingest");
    for size in sizes {
        let rebuild = mean_ns(c, &format!("engine_ingest/rebuild_then_score/{size}"));
        let append = mean_ns(c, &format!("engine_ingest/append_then_score/{size}"));
        let clone = mean_ns(c, &format!("engine_ingest/clone_warm_engine/{size}"));
        let speedup = rebuild / append;
        let speedup_net = rebuild / (append - clone).max(1.0);
        println!(
            "base {size:>7} + {BATCH} posts: rebuild {rebuild:>13.0} ns | append {append:>12.0} ns \
             ({speedup:.1}x) | net of clone {speedup_net:.1}x"
        );
        report.push_metric(format!("rebuild_then_score/{size}"), rebuild);
        report.push_metric(format!("append_then_score/{size}"), append);
        report.push_metric(format!("clone_warm_engine/{size}"), clone);
        report.push_ratio(format!("speedup_append/{size}"), speedup);
        // speedup_net divides by the *difference* of two independently
        // measured noisy means, so it is printed for context but never
        // recorded: a jittery denominator must not poison the enforced
        // baseline.
    }
    let path = fresh_report_path("engine_ingest");
    match report.save(&path) {
        Ok(()) => println!("perf report written to {}", path.display()),
        Err(err) => eprintln!("could not write perf report: {err}"),
    }
}

fn bench(c: &mut Criterion) {
    let db = KeywordDatabase::excavator_seed();
    let config = PspConfig::excavator_europe();
    let sizes = sizes_from_env(&DEFAULT_SIZES);
    let batch = arriving_batch();

    for &size in &sizes {
        let base = scaled_excavator_corpus(size, 42);

        // The warm serving state: indexed, every signal memoised.
        let warm = {
            let live = LiveEngine::new(base.clone());
            live.precompute_signals();
            live
        };

        // Sanity: the two paths must agree bit-for-bit before being timed.
        {
            let mut appended = warm.clone();
            appended.ingest(batch.clone());
            let mut grown = base.clone();
            grown.extend(batch.iter().cloned());
            assert_eq!(
                appended.sai_list(&db, &config),
                LiveEngine::new(grown).sai_list(&db, &config),
                "append path diverged from rebuild path at {size} posts"
            );
        }

        let mut group = c.benchmark_group("engine_ingest");
        group
            .sample_size(3)
            .measurement_time(Duration::from_secs(10));
        group.bench_function(&format!("rebuild_then_score/{size}"), |b| {
            b.iter(|| {
                let mut grown = base.clone();
                grown.extend(batch.iter().cloned());
                let engine = LiveEngine::new(grown);
                black_box(engine.sai_list(&db, &config))
            })
        });
        group.bench_function(&format!("append_then_score/{size}"), |b| {
            b.iter(|| {
                let mut live = warm.clone();
                live.ingest(batch.iter().cloned());
                black_box(live.sai_list(&db, &config))
            })
        });
        group.bench_function(&format!("clone_warm_engine/{size}"), |b| {
            b.iter(|| black_box(warm.clone()))
        });
        group.finish();
    }

    write_report(c, &sizes);
}

criterion_group!(benches, bench);
criterion_main!(benches);
