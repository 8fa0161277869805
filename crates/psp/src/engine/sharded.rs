//! The sharded scoring engine: one engine core per corpus shard, parallel
//! partial scoring, and a lossless merge.
//!
//! A single [`LiveEngine`](super::LiveEngine) serves one corpus from one
//! inverted index.  At fleet scale — 100k+ posts, many markets, sweeping
//! analysis windows — one index is both a memory ceiling and a parallelism
//! bottleneck: every query walks one big vocabulary and every window filter
//! re-scans one big candidate set.  [`ShardedEngine`] splits the corpus by a
//! [`ShardSpec`] (time buckets or regions), builds an independent
//! [`EngineCore`](super::EngineCore) per shard, and answers every entry point
//! by fanning partial scoring out over the shards and merging:
//!
//! * **partials, not lists** — each shard scores its own posts into
//!   [`SaiPartial`]s (counts, integer sums, and per-post order-sensitive
//!   evidence keyed by global post id);
//! * **merge before normalisation** — [`SaiList::from_shard_partials`] adds
//!   the exact integer sums, re-folds the float evidence in ascending global
//!   post id order, and only then normalises probabilities and sorts.  The
//!   result is **bit-identical** to the unsharded engine and to the naive
//!   oracle (`SaiList::compute_naive`), regardless of shard count, shard axis
//!   or worker-thread count — pinned down by the `psp-suite` property tests;
//! * **pruning** — a shard whose [`ShardKey`] provably cannot match a query's
//!   window or region filter contributes an empty partial without touching its
//!   index.  This is the sharded win on windowed workloads: a yearly-window
//!   monitoring sweep over yearly time shards only ever filters each shard's
//!   own candidates instead of filtering the full corpus' candidates once per
//!   window (see the `engine_sharding` bench);
//! * **shard-aware ingest** — [`ShardedEngine::ingest`] routes each new post
//!   to its shard (new time buckets or regions create shards on the fly) and
//!   extends that shard's index in place, so shard-then-ingest and
//!   ingest-then-shard converge to the same state.

use super::{
    profile_query, BatchCandidates, EngineCore, IngestReceipt, SaiScorer, SignalCacheError,
    SignalCacheFile, StreamingScorer, WindowAxis,
};
use crate::config::PspConfig;
use crate::keyword_db::{KeywordDatabase, KeywordProfile};
use crate::sai::{SaiList, SaiPartial};
use rayon::prelude::*;
use socialsim::corpus::Corpus;
use socialsim::index::{ShardKey, ShardSpec};
use socialsim::post::Post;
use textmine::pipeline::TextPipeline;

/// One shard: a sub-corpus, its own engine core, and the mapping from
/// shard-local post ids back to global corpus ids.
#[derive(Debug, Clone)]
struct Shard {
    key: ShardKey,
    corpus: Corpus,
    core: EngineCore,
    /// Local id → global id.  Strictly ascending, because partitioning and
    /// ingest routing both preserve corpus insertion order.
    global_ids: Vec<u32>,
}

impl Shard {
    fn empty(key: ShardKey, pipeline: TextPipeline) -> Self {
        let corpus = Corpus::new();
        let core = EngineCore::with_pipeline(&corpus, pipeline);
        Self {
            key,
            corpus,
            core,
            global_ids: Vec::new(),
        }
    }
}

/// An indexed SAI scoring engine over a corpus partitioned into shards.
///
/// Construction partitions the posts by the [`ShardSpec`] and builds one
/// inverted index per shard, fanning out over worker threads.  Every scoring
/// entry point scores the shards in parallel and merges the partial evidence
/// into a list bit-identical to what a single engine over the whole corpus
/// would produce (see `SaiList::from_shard_partials`).
///
/// ```
/// use psp::config::PspConfig;
/// use psp::engine::{LiveEngine, SaiScorer, ShardedEngine};
/// use psp::keyword_db::KeywordDatabase;
/// use socialsim::index::ShardSpec;
/// use socialsim::scenario;
///
/// let corpus = scenario::excavator_europe(7);
/// let (db, config) = (KeywordDatabase::excavator_seed(), PspConfig::excavator_europe());
/// let sharded = ShardedEngine::new(corpus.clone(), ShardSpec::yearly());
/// assert!(sharded.shard_count() > 1);
/// // Bit-identical to the unsharded pass.
/// assert_eq!(
///     sharded.sai_list(&db, &config),
///     LiveEngine::new(corpus).sai_list(&db, &config)
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    spec: ShardSpec,
    shards: Vec<Shard>,
    total_posts: usize,
    generation: u64,
    /// The pipeline cloned into every shard core (and every shard created on
    /// demand by ingest) — kept here so cache validation sees one lexicon.
    pipeline: TextPipeline,
}

impl ShardedEngine {
    /// Partitions the corpus by the spec and indexes every shard, fanning the
    /// per-shard index builds out over worker threads.  An empty corpus yields
    /// an engine with zero shards; [`ingest`](Self::ingest) creates shards on
    /// demand.
    #[must_use]
    pub fn new(corpus: Corpus, spec: ShardSpec) -> Self {
        Self::with_pipeline(corpus, spec, TextPipeline::new())
    }

    /// Builds a sharded engine with a custom text pipeline (cloned into every
    /// shard) — see [`super::LiveEngine::with_pipeline`].
    #[must_use]
    pub fn with_pipeline(corpus: Corpus, spec: ShardSpec, pipeline: TextPipeline) -> Self {
        let total_posts = corpus.len();
        let groups = spec.partition(&corpus);
        // Move (never clone) each post into its shard's corpus.
        let mut posts: Vec<Option<Post>> = corpus.into_posts().into_iter().map(Some).collect();
        let assembled: Vec<(ShardKey, Corpus, Vec<u32>)> = groups
            .into_iter()
            .map(|(key, ids)| {
                let shard_posts: Vec<Post> = ids
                    .iter()
                    .map(|id| {
                        posts[*id as usize]
                            .take()
                            .expect("partition routes each post to exactly one shard")
                    })
                    .collect();
                (key, Corpus::from_posts(shard_posts), ids)
            })
            .collect();
        // Each shard's inverted index is independent — build them in parallel.
        let cores: Vec<EngineCore> = assembled
            .par_iter()
            .map(|(_, shard_corpus, _)| EngineCore::with_pipeline(shard_corpus, pipeline.clone()))
            .collect();
        let shards = assembled
            .into_iter()
            .zip(cores)
            .map(|((key, corpus, global_ids), core)| Shard {
                key,
                corpus,
                core,
                global_ids,
            })
            .collect();
        Self {
            spec,
            shards,
            total_posts,
            generation: 0,
            pipeline,
        }
    }

    /// Ingests a batch of posts through shard-aware append: each post routes
    /// to the shard its [`ShardSpec`] key selects — its own time bucket
    /// (fresh posts extend the newest shard, backdated ones their historical
    /// shard) or its region's shard, and a key with no shard yet creates one
    /// on the fly — then every touched shard's index is
    /// extended in place ([`socialsim::index::CorpusIndex::append`], amortised
    /// O(batch)).  Returns an [`IngestReceipt`] stamping the number of
    /// appended posts with the generation that publishes them.
    ///
    /// Routing is deterministic from the post alone, so ingesting into a
    /// sharded engine and re-sharding the grown corpus from scratch produce
    /// the same shard layout and bit-identical scores (property-tested).
    pub fn ingest(&mut self, batch: impl IntoIterator<Item = Post>) -> IngestReceipt {
        let mut pending = vec![0_usize; self.shards.len()];
        let mut appended = 0_usize;
        for post in batch {
            let key = self.spec.key_for(&post);
            let shard = match self.shards.iter().position(|s| s.key == key) {
                Some(index) => index,
                None => {
                    self.shards.push(Shard::empty(key, self.pipeline.clone()));
                    pending.push(0);
                    self.shards.len() - 1
                }
            };
            let global_id = (self.total_posts + appended) as u32;
            self.shards[shard].corpus.push(post);
            self.shards[shard].global_ids.push(global_id);
            pending[shard] += 1;
            appended += 1;
        }
        for (shard, new_posts) in self.shards.iter_mut().zip(&pending) {
            if *new_posts > 0 {
                shard.core.append(&shard.corpus, *new_posts);
            }
        }
        self.total_posts += appended;
        if appended > 0 {
            self.generation += 1;
        }
        IngestReceipt {
            appended,
            generation: self.generation,
        }
    }

    /// The spec the corpus is partitioned by.
    #[must_use]
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Number of (non-empty) shards currently held.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of posts served across all shards.
    #[must_use]
    pub fn post_count(&self) -> usize {
        self.total_posts
    }

    /// Number of non-empty ingest batches absorbed since construction.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The shard layout: every shard's key and post count, sorted by key.
    #[must_use]
    pub fn shard_sizes(&self) -> Vec<(ShardKey, usize)> {
        let mut sizes: Vec<(ShardKey, usize)> = self
            .shards
            .iter()
            .map(|shard| (shard.key, shard.corpus.len()))
            .collect();
        sizes.sort_by_key(|(key, _)| *key);
        sizes
    }

    /// Total sweep plans built across all shard cores since construction;
    /// a pruned shard or a plan-cache hit leaves it unchanged.
    #[must_use]
    pub fn plan_builds(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.core.plans.build_count())
            .sum()
    }

    /// Reassembles the full corpus in global post order (cloning the posts) —
    /// a convenience for cold-rebuild comparisons and snapshotting.
    #[must_use]
    pub fn snapshot_corpus(&self) -> Corpus {
        let mut posts: Vec<(u32, Post)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .global_ids
                    .iter()
                    .zip(shard.corpus.posts())
                    .map(|(id, post)| (*id, post.clone()))
            })
            .collect();
        posts.sort_by_key(|(id, _)| *id);
        Corpus::from_posts(posts.into_iter().map(|(_, post)| post))
    }

    /// Eagerly materialises every shard's per-post signals.  Shards are
    /// visited in sequence — each shard's own signal pass already fans out
    /// over worker threads, so walking shards sequentially avoids nested
    /// thread fan-out.
    pub fn precompute_signals(&self) {
        for shard in &self.shards {
            shard.core.precompute_signals(&shard.corpus);
        }
    }

    /// Exports the memoised per-post text signals of **all shards** as one
    /// [`SignalCacheFile`] in global corpus order — interchangeable with a
    /// cache exported by the unsharded engines over the same corpus (the
    /// signals are bit-identical), so one file warms any engine shape.
    #[must_use]
    pub fn export_signal_cache(&self) -> SignalCacheFile {
        self.precompute_signals();
        let mut rows: Vec<Option<(u64, f64, &[f64])>> = vec![None; self.total_posts];
        for shard in &self.shards {
            for local in 0..shard.corpus.len() as u32 {
                let row = shard.core.cached_row(&shard.corpus, local);
                rows[shard.global_ids[local as usize] as usize] = Some(row);
            }
        }
        let mut file = SignalCacheFile::empty(*self.pipeline.lexicon(), self.total_posts);
        for row in rows {
            let (post_id, intent, prices) =
                row.expect("shard global ids cover every corpus position");
            file.push_row(post_id, intent, prices);
        }
        file
    }

    /// Installs a previously exported signal cache, routing every global row
    /// to the shard holding that post.  Validation covers version, lexicon,
    /// total length and every post id (against the shard corpora) before a
    /// single signal is installed.  Returns the number of posts warmed.
    ///
    /// # Errors
    ///
    /// Returns a [`SignalCacheError`] when the cache does not exactly
    /// describe this engine's corpus.
    pub fn load_signal_cache(&self, cache: &SignalCacheFile) -> Result<usize, SignalCacheError> {
        cache.check_shape(self.total_posts, self.pipeline.lexicon())?;
        for shard in &self.shards {
            for (local, post) in shard.corpus.posts().iter().enumerate() {
                let index = shard.global_ids[local] as usize;
                if cache.post_ids[index] != post.id() {
                    return Err(SignalCacheError::PostIdMismatch {
                        index,
                        cached: cache.post_ids[index],
                        found: post.id(),
                    });
                }
            }
        }
        let offsets = cache.price_offsets();
        let mut installed = 0_usize;
        for shard in &self.shards {
            for local in 0..shard.corpus.len() {
                let index = shard.global_ids[local] as usize;
                let prices = &cache.prices[offsets[index]..offsets[index + 1]];
                if shard.core.install_cached(
                    &shard.corpus,
                    local as u32,
                    cache.intents[index],
                    prices,
                ) {
                    installed += 1;
                }
            }
        }
        Ok(installed)
    }

    /// One shard's partials for every profile under one configuration; a
    /// pruned shard (its key provably cannot match the config's region/window
    /// filters) contributes empty partials without touching its index.
    fn shard_partials(
        shard: &Shard,
        profiles: &[&KeywordProfile],
        config: &PspConfig,
    ) -> Vec<SaiPartial> {
        if !shard
            .key
            .may_match(Some(config.region), config.window.as_ref())
        {
            return vec![SaiPartial::default(); profiles.len()];
        }
        profiles
            .iter()
            .map(|profile| {
                shard
                    .core
                    .score_profile_partial(&shard.corpus, profile, config, &shard.global_ids)
            })
            .collect()
    }
}

impl SaiScorer for ShardedEngine {
    /// Computes the full SAI list in one sharded pass: every shard scores its
    /// partials in parallel, then the merge re-assembles the exact
    /// single-engine result (see `SaiList::from_shard_partials`).
    fn sai_list(&self, db: &KeywordDatabase, config: &PspConfig) -> SaiList {
        let profiles: Vec<&KeywordProfile> = db.iter().collect();
        let per_shard: Vec<Vec<SaiPartial>> = self
            .shards
            .par_iter()
            .map(|shard| Self::shard_partials(shard, &profiles, config))
            .collect();
        SaiList::from_shard_partials(db, config, &per_shard)
    }

    /// Computes one SAI list per configuration — the sharded batch entry
    /// point for window sweeps.
    ///
    /// Per shard, a profile's content candidates are resolved once and only
    /// the cheap metadata filter re-runs per configuration; configurations
    /// whose window/region filters cannot match the shard's key skip the
    /// shard entirely.  On a windowed sweep over time shards this is the hot
    /// path the sharding exists for: each window only filters the candidates
    /// of the shards it overlaps, instead of the whole corpus' candidates
    /// once per window.
    fn sai_lists(&self, db: &KeywordDatabase, configs: &[PspConfig]) -> Vec<SaiList> {
        if configs.is_empty() {
            return Vec::new();
        }
        let profiles: Vec<&KeywordProfile> = db.iter().collect();
        // Profile-major per shard: rows[profile][config].
        let mut per_shard: Vec<Vec<Vec<SaiPartial>>> = self
            .shards
            .par_iter()
            .map(|shard| {
                let live: Vec<bool> = configs
                    .iter()
                    .map(|config| {
                        shard
                            .key
                            .may_match(Some(config.region), config.window.as_ref())
                    })
                    .collect();
                if !live.contains(&true) {
                    return vec![vec![SaiPartial::default(); configs.len()]; profiles.len()];
                }
                profiles
                    .iter()
                    .map(|profile| {
                        // Same skeleton as the single-engine batch path:
                        // content candidates once, scene filter hoisted, only
                        // the window predicate re-checked per config (the
                        // shared `BatchCandidates` hoist).
                        let batch = BatchCandidates::hoist(
                            &shard.core,
                            &shard.corpus,
                            profile,
                            &configs[0],
                        );
                        configs
                            .iter()
                            .zip(&live)
                            .map(|(config, shard_live)| {
                                if !shard_live {
                                    return SaiPartial::default();
                                }
                                let query = profile_query(profile, config);
                                shard.core.aggregate_partial(
                                    &shard.corpus,
                                    config,
                                    batch.for_config(config, &query),
                                    &shard.global_ids,
                                )
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        // Transpose into one [shard][profile] grid per config and merge.
        configs
            .iter()
            .enumerate()
            .map(|(c, config)| {
                let per_shard_config: Vec<Vec<SaiPartial>> = per_shard
                    .iter_mut()
                    .map(|rows| {
                        rows.iter_mut()
                            .map(|row| std::mem::take(&mut row[c]))
                            .collect()
                    })
                    .collect();
                SaiList::from_shard_partials(db, config, &per_shard_config)
            })
            .collect()
    }

    /// Sweeps through **per-shard plans**.  Each shard core holds its own
    /// prefix-summed plan (built on first use, invalidated only when *that
    /// shard* absorbs an ingest batch) and resolves every window against it;
    /// a shard whose [`ShardKey`] provably cannot match a window contributes
    /// an empty partial without touching its plan, and a shard no window can
    /// match never builds a plan at all.  The per-window partials then flow
    /// through the pre-normalisation merge (`SaiList::from_shard_partials`),
    /// so the swept lists are bit-identical to the single-engine sweep and
    /// to per-window [`sai_lists`](SaiScorer::sai_lists).  `stop` is
    /// checked before each live shard looks up its plan and before every
    /// profile of that shard.
    fn sai_windows_until(
        &self,
        db: &KeywordDatabase,
        base_config: &PspConfig,
        axis: &WindowAxis,
        stop: &(dyn Fn() -> bool + Sync),
    ) -> Option<Vec<SaiList>> {
        let windows = axis.as_options();
        if stop() {
            return None;
        }
        if windows.is_empty() {
            return Some(Vec::new());
        }
        let profiles: Vec<&KeywordProfile> = db.iter().collect();
        // Profile-major per shard: rows[profile][window].
        let per_shard: Vec<Option<Vec<Vec<SaiPartial>>>> = self
            .shards
            .par_iter()
            .map(|shard| {
                let live: Vec<bool> = windows
                    .iter()
                    .map(|window| {
                        shard
                            .key
                            .may_match(Some(base_config.region), window.as_ref())
                    })
                    .collect();
                if !live.contains(&true) {
                    return Some(vec![
                        vec![SaiPartial::default(); windows.len()];
                        profiles.len()
                    ]);
                }
                if stop() {
                    return None;
                }
                let plan = shard.core.sweep_plan(&shard.corpus, db, base_config);
                plan.profiles
                    .iter()
                    .map(|columns| {
                        (!stop()).then(|| columns.partials_for(&shard.global_ids, windows, &live))
                    })
                    .collect()
            })
            .collect();
        let mut per_shard: Vec<Vec<Vec<SaiPartial>>> =
            per_shard.into_iter().collect::<Option<_>>()?;
        // Transpose into one [shard][profile] grid per window and merge —
        // the same pre-normalisation merge as the batch path.
        Some(
            (0..windows.len())
                .map(|w| {
                    let per_shard_window: Vec<Vec<SaiPartial>> = per_shard
                        .iter_mut()
                        .map(|rows| {
                            rows.iter_mut()
                                .map(|row| std::mem::take(&mut row[w]))
                                .collect()
                        })
                        .collect();
                    SaiList::from_shard_partials(db, base_config, &per_shard_window)
                })
                .collect(),
        )
    }
}

impl StreamingScorer for ShardedEngine {
    fn ingest_batch(&mut self, batch: Vec<Post>) -> IngestReceipt {
        self.ingest(batch)
    }

    fn post_count(&self) -> usize {
        ShardedEngine::post_count(self)
    }

    fn generation(&self) -> u64 {
        ShardedEngine::generation(self)
    }

    fn export_signal_cache(&self) -> SignalCacheFile {
        ShardedEngine::export_signal_cache(self)
    }

    fn snapshot_corpus(&self) -> Corpus {
        ShardedEngine::snapshot_corpus(self)
    }

    fn restore_generation(&mut self, generation: u64) {
        self.generation = generation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LiveEngine;
    use crate::sai::SaiList as Oracle;
    use socialsim::scenario;
    use socialsim::time::DateWindow;

    fn db_and_config() -> (KeywordDatabase, PspConfig) {
        (
            KeywordDatabase::excavator_seed(),
            PspConfig::excavator_europe(),
        )
    }

    #[test]
    fn sharded_list_is_bit_identical_to_single_engine_and_oracle() {
        let corpus = scenario::excavator_europe(42);
        let (db, config) = db_and_config();
        for spec in [
            ShardSpec::yearly(),
            ShardSpec::ByTimeYears(3),
            ShardSpec::ByRegion,
        ] {
            let sharded = ShardedEngine::new(corpus.clone(), spec);
            let single = LiveEngine::new(corpus.clone()).sai_list(&db, &config);
            assert_eq!(sharded.sai_list(&db, &config), single, "spec {spec:?}");
            assert_eq!(
                sharded.sai_list(&db, &config),
                Oracle::compute_naive(&corpus, &db, &config),
                "spec {spec:?} vs oracle"
            );
        }
    }

    #[test]
    fn sharded_windowed_batch_matches_single_engine() {
        let corpus = scenario::passenger_car_europe(42);
        let db = KeywordDatabase::passenger_car_seed();
        let configs: Vec<PspConfig> = (2015..2024)
            .map(|y| PspConfig::passenger_car_europe().with_window(DateWindow::years(y, y)))
            .collect();
        let sharded = ShardedEngine::new(corpus.clone(), ShardSpec::yearly());
        let single = LiveEngine::new(corpus.clone());
        assert_eq!(
            sharded.sai_lists(&db, &configs),
            single.sai_lists(&db, &configs)
        );
    }

    #[test]
    fn sharded_engine_with_poisoning_filter_matches_oracle() {
        let corpus = scenario::excavator_europe(7);
        let db = KeywordDatabase::excavator_seed();
        let config = PspConfig::excavator_europe()
            .with_window(DateWindow::years(2020, 2022))
            .with_poisoning_filter(0.25);
        let sharded = ShardedEngine::new(corpus.clone(), ShardSpec::ByTimeYears(2));
        assert_eq!(
            sharded.sai_list(&db, &config),
            Oracle::compute_naive(&corpus, &db, &config)
        );
    }

    #[test]
    fn ingest_routes_to_existing_and_new_shards() {
        let seed = scenario::excavator_europe(7);
        let (db, config) = db_and_config();
        let mut sharded = ShardedEngine::new(seed.clone(), ShardSpec::yearly());
        let shards_before = sharded.shard_count();

        let extra = scenario::excavator_europe(8).posts().to_vec();
        let receipt = sharded.ingest(extra.clone());
        assert_eq!(receipt.appended, extra.len());
        assert_eq!(receipt.generation, 1);
        assert_eq!(sharded.generation(), 1);
        assert!(sharded.shard_count() >= shards_before);

        let mut grown = seed;
        grown.extend(extra);
        assert_eq!(sharded.post_count(), grown.len());
        assert_eq!(
            sharded.sai_list(&db, &config),
            LiveEngine::new(grown.clone()).sai_list(&db, &config)
        );
        assert_eq!(sharded.snapshot_corpus(), grown);
    }

    #[test]
    fn empty_engine_grows_shards_on_demand() {
        let (db, config) = db_and_config();
        let mut sharded = ShardedEngine::new(Corpus::new(), ShardSpec::ByRegion);
        assert_eq!(sharded.shard_count(), 0);
        let list = sharded.sai_list(&db, &config);
        assert!(list.entries().iter().all(|e| e.sai == 0.0));

        let posts = scenario::excavator_europe(9).posts().to_vec();
        sharded.ingest(posts.clone());
        let full = Corpus::from_posts(posts);
        assert!(sharded.shard_count() > 0);
        assert_eq!(
            sharded.sai_list(&db, &config),
            LiveEngine::new(full.clone()).sai_list(&db, &config)
        );
    }

    #[test]
    fn empty_ingest_bumps_nothing() {
        let mut sharded = ShardedEngine::new(scenario::excavator_europe(7), ShardSpec::yearly());
        let sizes = sharded.shard_sizes();
        assert_eq!(sharded.ingest(Vec::new()).appended, 0);
        assert_eq!(sharded.generation(), 0);
        assert_eq!(sharded.shard_sizes(), sizes);
    }

    #[test]
    fn precompute_then_score_matches_lazy_scoring() {
        let corpus = scenario::excavator_europe(7);
        let (db, config) = db_and_config();
        let warm = ShardedEngine::new(corpus.clone(), ShardSpec::yearly());
        warm.precompute_signals();
        let lazy = ShardedEngine::new(corpus, ShardSpec::yearly());
        assert_eq!(warm.sai_list(&db, &config), lazy.sai_list(&db, &config));
    }

    #[test]
    fn matrix_on_a_sharded_engine_plans_only_the_overlapping_shards() {
        let corpus = scenario::excavator_europe(7);
        let (db, base) = db_and_config();
        let sharded = ShardedEngine::new(corpus.clone(), ShardSpec::yearly());
        assert!(sharded.shard_count() > 2);
        let window = DateWindow::years(2021, 2022);
        let spec = crate::engine::MatrixSpec::new()
            .scenario("excavator", db.clone())
            .config("base", base.clone())
            .window(window);
        let results = sharded.sai_matrix(&spec);
        // Only shards whose key may overlap the window ever build a plan —
        // shard-pruned cells never plan.
        let expected = sharded
            .shard_sizes()
            .iter()
            .filter(|(key, _)| key.may_match(Some(base.region), Some(&window)))
            .count() as u64;
        assert!(expected < sharded.shard_count() as u64);
        assert_eq!(sharded.plan_builds(), expected);
        // And the pruned matrix stays bit-identical to the single engine.
        assert_eq!(results, LiveEngine::new(corpus.clone()).sai_matrix(&spec));
    }

    #[test]
    fn shard_sizes_cover_every_post_sorted_by_key() {
        let corpus = scenario::excavator_europe(7);
        let sharded = ShardedEngine::new(corpus.clone(), ShardSpec::yearly());
        let sizes = sharded.shard_sizes();
        assert_eq!(sizes.iter().map(|(_, n)| n).sum::<usize>(), corpus.len());
        assert!(sizes.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
