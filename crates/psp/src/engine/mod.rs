//! The shared, indexed, parallel SAI scoring engine.
//!
//! The PSP hot path (paper Figure 7, blocks 2–6) queries the social corpus once
//! per attack keyword and folds the matching posts into SAI scores.  The naive
//! implementation rescans the corpus *and re-runs the text-mining pipeline* for
//! every keyword — O(keywords × posts) pipeline invocations, which also repeats
//! per analysis window in monitoring and time-window runs.
//!
//! [`LiveEngine`] amortises all of that.  It owns its corpus behind one
//! inverted index and stays warm under **streaming ingestion**:
//! [`LiveEngine::ingest`] appends a batch of posts, extends the inverted index
//! in place ([`CorpusIndex::append`]), and grows the signal cache by exactly
//! the batch — memoised signals of already-scored posts are never recomputed
//! or wiped, because posts are immutable and ids are append-only.  This is the
//! corpus-side prerequisite of the paper's continuous-monitoring loop
//! (Fig. 9/12): ingest while serving, on one warm engine.  Its amortisations:
//!
//! * a [`CorpusIndex`] answers each keyword query from inverted structures
//!   instead of a scan;
//! * the per-post text signals (intent score, mined prices) and author
//!   credibility are memoised **at most once per post** — lazily, so posts no
//!   query ever reaches never pay for the text pipeline — and shared by every
//!   subsequent query and window;
//! * SAI lists for many keyword profiles fan out over worker threads with
//!   `rayon` ([`LiveEngine::precompute_signals`] warms the whole cache in
//!   parallel for throughput-critical serving);
//! * every read resolves against one cached prefix-summed sweep plan per
//!   (database, scene) — see the `sweep` module.  Many windows (monitoring
//!   series, Figure-9 comparisons, matrix rows) share it through
//!   [`SaiScorer::sai_windows`], and a single configuration
//!   ([`LiveEngine::sai_list`]) is the one-window sweep of its own window.
//!   An ingest does no plan work: the first read after it extends the plan
//!   with the new posts instead of rebuilding it.
//!
//! The engines are *exactly* equivalent to the naive path: candidate ids come
//! back in ascending post order, so every sum is folded in the same order the
//! linear scan would use, producing bit-identical `SaiList`s — and appending
//! then scoring is bit-identical to rebuilding then scoring (both pinned down
//! by the `psp-suite` property tests).
//!
//! All former callers of `SaiList::compute` route through here:
//! [`crate::sai::SaiList::compute`], [`crate::workflow::PspWorkflow::run`],
//! [`crate::monitoring::MonitoringSeries::run`] and
//! [`crate::timewindow::compare_windows`] sweep a borrowed corpus once
//! through a throwaway core (no corpus copy), while
//! [`crate::monitoring::LiveMonitor`] holds a [`LiveEngine`] and interleaves
//! ingestion with re-evaluation.

use crate::config::PspConfig;
use crate::keyword_db::{KeywordDatabase, KeywordProfile};
use crate::sai::{SaiEntry, SaiList};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use socialsim::corpus::Corpus;
use socialsim::index::CorpusIndex;
use socialsim::post::Post;
use socialsim::query::Query;
use socialsim::time::DateWindow;
use std::sync::OnceLock;
use textmine::pipeline::TextPipeline;

mod cache;
mod matrix;
mod sweep;

pub use cache::{SignalCacheError, SignalCacheFile, SIGNAL_CACHE_VERSION};
pub use matrix::{CellId, MatrixResults, MatrixSpec};

use sweep::PlanCache;

/// The window axis of a sweep: an ordered list of analysis windows, each
/// either a concrete [`DateWindow`] or `None` for the full history — the one
/// canonical way to say "evaluate these windows" to any scorer (see
/// [`SaiScorer::sai_windows`]).
///
/// Build it from concrete windows ([`WindowAxis::each`]), from optional spans
/// ([`WindowAxis::spans`]), or incrementally with the
/// [`window`](WindowAxis::window) / [`full_history`](WindowAxis::full_history)
/// builders.  The axis serialises as a plain JSON array, so service requests
/// carry it directly.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WindowAxis(Vec<Option<DateWindow>>);

impl WindowAxis {
    /// An empty axis (sweeping it yields no lists).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// One entry per concrete window.
    #[must_use]
    pub fn each(windows: &[DateWindow]) -> Self {
        Self(windows.iter().copied().map(Some).collect())
    }

    /// One entry per optional span (`None` = full history) — the general
    /// form a Figure-9 "all history vs recent window" comparison needs.
    #[must_use]
    pub fn spans(windows: &[Option<DateWindow>]) -> Self {
        Self(windows.to_vec())
    }

    /// Appends a concrete window.
    #[must_use]
    pub fn window(mut self, window: DateWindow) -> Self {
        self.0.push(Some(window));
        self
    }

    /// Appends a full-history entry.
    #[must_use]
    pub fn full_history(mut self) -> Self {
        self.0.push(None);
        self
    }

    /// Number of entries on the axis.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the axis has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The entries as optional windows, in axis order.
    #[must_use]
    pub fn as_options(&self) -> &[Option<DateWindow>] {
        &self.0
    }
}

impl From<Vec<Option<DateWindow>>> for WindowAxis {
    fn from(windows: Vec<Option<DateWindow>>) -> Self {
        Self(windows)
    }
}

/// What one ingest observed, atomically: how many posts were appended and the
/// generation the engine publishes them under.  Returned by
/// [`StreamingScorer::ingest_batch`] so callers (and daemon responses) can
/// stamp results with the exact engine version that includes the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IngestReceipt {
    /// Number of posts appended by this batch.
    pub appended: usize,
    /// The engine generation after the batch (unchanged for an empty batch).
    pub generation: u64,
}

/// Anything that can answer SAI computations — implemented by [`LiveEngine`]
/// (and by wrappers around it), so the windowed entry point
/// [`crate::monitoring::MonitoringSeries::run_on`] and the service are not
/// hard-wired to one engine type.
pub trait SaiScorer {
    /// Computes the full SAI list for a keyword database and configuration.
    fn sai_list(&self, db: &KeywordDatabase, config: &PspConfig) -> SaiList;

    /// Computes one SAI list per entry on a [`WindowAxis`] against one shared
    /// base configuration — the canonical sweep entry point for monitoring
    /// series, Figure-9 comparisons and fleet sweeps, where only the window
    /// varies.  Each axis entry either restricts the analysis to a window or
    /// (`None`) spans the full history; `base_config`'s own window is
    /// replaced per entry.
    ///
    /// Semantically identical to [`sai_list`](Self::sai_list) over
    /// `base_config.clone().with_window(w)` for every axis entry, and
    /// **bit-identical** to it; [`LiveEngine`] overrides
    /// the implementation with a prefix-summed columnar plan that makes the
    /// per-window cost ~O(log candidates + window matches) instead of
    /// O(candidates) — see the `psp::engine::sweep` module docs.  Always
    /// returns exactly one list per axis entry.  The never-stopping form of
    /// [`sai_windows_until`](Self::sai_windows_until).
    fn sai_windows(
        &self,
        db: &KeywordDatabase,
        base_config: &PspConfig,
        axis: &WindowAxis,
    ) -> Vec<SaiList> {
        self.sai_windows_until(db, base_config, axis, &|| false)
            .expect("a sweep that never stops finishes")
    }

    /// [`sai_windows`](Self::sai_windows) under a stop predicate: `stop` is
    /// polled inside the engine between units of work (profile jobs on
    /// [`LiveEngine`], windows in this default), and once it answers `true`
    /// the sweep abandons the remaining work and returns `None`.  A run that
    /// is never stopped returns exactly what `sai_windows` returns.  A
    /// predicate that is true from the start builds no plan.
    ///
    /// The default resolves one window at a time through
    /// [`sai_list`](Self::sai_list), checking `stop` before each window.
    fn sai_windows_until(
        &self,
        db: &KeywordDatabase,
        base_config: &PspConfig,
        axis: &WindowAxis,
        stop: &(dyn Fn() -> bool + Sync),
    ) -> Option<Vec<SaiList>> {
        axis.as_options()
            .iter()
            .map(|window| {
                let mut config = base_config.clone();
                config.window = *window;
                (!stop()).then(|| self.sai_list(db, &config))
            })
            .collect()
    }

    /// Resolves a full (scenario × configuration × window) cross-product —
    /// the batch plane (see [`MatrixSpec`]).
    ///
    /// Every cell is bit-identical to the corresponding nested
    /// [`sai_list`](Self::sai_list) / [`sai_windows`](Self::sai_windows)
    /// calls; rows sharing a (database, scene) pair reuse one cached sweep
    /// plan.
    fn sai_matrix(&self, spec: &MatrixSpec) -> MatrixResults {
        let mut results = MatrixResults::empty_for(spec);
        self.sai_matrix_stream_until(spec, &|| false, &mut |id, sai| results.push(id, sai))
            .expect("a matrix that never stops finishes");
        results
    }

    /// The streaming, stoppable form of [`sai_matrix`](Self::sai_matrix):
    /// cells are handed to `sink` in deterministic [`CellId`] order
    /// (scenario-major, then configuration, then window) as their row
    /// resolves, and every row's sweep polls `stop` before it touches a plan
    /// and again inside (see [`sai_windows_until`](Self::sai_windows_until)).
    /// A stopped run returns `None`; the rows finished before the stop may
    /// already have reached `sink`, so a caller that stops a run discards
    /// what it streamed.  A run that is never stopped streams exactly the
    /// cells `sai_matrix` collects.
    fn sai_matrix_stream_until(
        &self,
        spec: &MatrixSpec,
        stop: &(dyn Fn() -> bool + Sync),
        sink: &mut dyn FnMut(CellId, SaiList),
    ) -> Option<()> {
        matrix::run_matrix(self, spec, stop, sink)
    }
}

/// A scorer that owns its corpus and absorbs streaming ingestion — the
/// contract [`crate::service::TaraService`] needs from the engine it
/// publishes, met by [`LiveEngine`].
pub trait StreamingScorer: SaiScorer {
    /// Ingests a batch of posts, returning a receipt with the number of
    /// posts appended and the generation they are published under — both
    /// observed atomically under the same `&mut self`.
    fn ingest_batch(&mut self, batch: Vec<Post>) -> IngestReceipt;

    /// Number of posts currently served.
    fn post_count(&self) -> usize;

    /// Number of non-empty ingest batches absorbed since construction.
    fn generation(&self) -> u64;

    /// Exports the memoised per-post text signals as a persistable
    /// [`SignalCacheFile`], materialising any signal not yet paid for — the
    /// generic handle the service daemon's export-cache request rides.
    fn export_signal_cache(&self) -> SignalCacheFile;

    /// The served corpus in global ingest order — the checkpoint payload of
    /// the durability plane, serialized through this borrow.  Rebuilding an
    /// engine of the same shape over a copy of it (plus
    /// [`restore_generation`](Self::restore_generation)) must reproduce
    /// bit-identical scoring.
    fn corpus(&self) -> &Corpus;

    /// Overrides the generation counter — recovery only.  A rebuilt engine
    /// starts at generation zero; restoring the checkpointed generation makes
    /// recovered responses stamp the same generation the pre-crash service
    /// would have, completing bit-identical recovery.
    fn restore_generation(&mut self, generation: u64);
}

/// The query the SAI computation issues for one keyword profile under one
/// configuration (hashtag OR keyword content, conjunctive scene filters) —
/// shared by [`EngineCore`] and the naive oracle
/// ([`SaiList::compute_naive`]), so both paths select the same posts.
pub(crate) fn profile_query(profile: &KeywordProfile, config: &PspConfig) -> Query {
    let mut query = Query::new()
        .with_hashtag(profile.keyword.as_str())
        .with_keyword(profile.keyword.as_str())
        .in_region(config.region)
        .about(config.application);
    if let Some(window) = config.window {
        query = query.within(window);
    }
    query
}

/// Per-post evidence computed at most once per post, on first use.
#[derive(Debug, Clone)]
struct PostSignals {
    /// View count.
    views: u64,
    /// Active interactions (likes + replies + reposts).
    interactions: u64,
    /// Text-mined intent score.
    intent: f64,
    /// Prices mined from the text (EUR), in extraction order.
    prices: Vec<f64>,
    /// Author credibility in `[0, 1]`.
    credibility: f64,
    /// Interactions per view.
    interaction_rate: f64,
}

impl PostSignals {
    /// Combines a post's cheap engagement/credibility fields with its mined
    /// text evidence — the single construction site shared by fresh mining
    /// ([`EngineCore::signal`]) and cache install
    /// ([`EngineCore::load_cache`]), so the two can never drift apart.
    fn from_post(post: &Post, intent: f64, prices: Vec<f64>) -> Self {
        Self {
            views: post.engagement().views,
            interactions: post.engagement().interactions(),
            intent,
            prices,
            credibility: post.author().credibility(),
            interaction_rate: post.engagement().interaction_rate(),
        }
    }
}

/// The corpus-agnostic scoring core behind [`LiveEngine`] (one owned corpus)
/// and the one-shot [`sai_windows_once`]: the inverted index, the text
/// pipeline, the memoised per-post signal cache and the sweep plans.
/// Every method takes the corpus explicitly, so a core can score a borrowed
/// corpus as well as an owned one.
#[derive(Debug, Clone)]
struct EngineCore {
    index: CorpusIndex,
    pipeline: TextPipeline,
    /// Lazily initialised per-post signals: a post pays for the text-mining
    /// pipeline at most once, and only if some query actually reaches it.
    signals: Vec<OnceLock<PostSignals>>,
    /// Number of ingest batches absorbed since construction (0 for one-shot
    /// cores).  Observers use this to detect that re-evaluation is due.
    generation: u64,
    /// The cached sweep plans (see [`sweep`]), one per (database, scene);
    /// each extends itself with the posts ingested since it was last used.
    plans: PlanCache,
}

impl EngineCore {
    /// Builds a core whose signals are mined by `pipeline` — how custom
    /// lexica (and the frozen reference pipeline, for baseline measurements)
    /// flow into an engine.
    fn with_pipeline(corpus: &Corpus, pipeline: TextPipeline) -> Self {
        let index = CorpusIndex::build(corpus);
        let mut signals = Vec::new();
        signals.resize_with(corpus.posts().len(), OnceLock::new);
        Self {
            index,
            pipeline,
            signals,
            generation: 0,
            plans: PlanCache::default(),
        }
    }

    /// Absorbs `new_posts` trailing posts of `corpus`: the index is extended in
    /// place and the signal cache grows by exactly the batch.  Nothing already
    /// memoised is recomputed or invalidated — posts are immutable and ids are
    /// append-only, so only the *new* ids ever need (lazy) signal computation.
    fn append(&mut self, corpus: &Corpus, new_posts: usize) {
        self.index.append(corpus, new_posts);
        self.signals
            .resize_with(corpus.posts().len(), OnceLock::new);
        if new_posts > 0 {
            self.generation += 1;
        }
    }

    /// The (memoised) signals of one post.  Text mining runs through the
    /// lean [`TextPipeline::signals`] entry point — the single fused pass,
    /// with no token or hashtag strings materialised.
    fn signal(&self, corpus: &Corpus, id: u32) -> &PostSignals {
        self.signals[id as usize].get_or_init(|| {
            let post = &corpus.posts()[id as usize];
            let mined = self.pipeline.signals(post.text());
            PostSignals::from_post(post, mined.intent.score, mined.prices)
        })
    }

    /// Exports the full signal cache in corpus order, materialising any
    /// signal not yet paid for.
    fn export_cache(&self, corpus: &Corpus) -> SignalCacheFile {
        self.precompute_signals(corpus);
        let mut file = SignalCacheFile::empty(*self.pipeline.lexicon(), corpus.len());
        for (post, signal) in corpus.posts().iter().zip(&self.signals) {
            let signal = signal.get().expect("signals precomputed before export");
            file.push_row(post.id(), signal.intent, &signal.prices);
        }
        file
    }

    /// Validates a cache against this core's corpus and installs every row —
    /// the restart path that skips text mining entirely.  Returns the number
    /// of posts whose signals were installed from the cache (already-memoised
    /// posts are left untouched; a valid cache holds identical values).
    fn load_cache(
        &self,
        corpus: &Corpus,
        cache: &SignalCacheFile,
    ) -> Result<usize, SignalCacheError> {
        cache.check_shape(corpus.len(), self.pipeline.lexicon())?;
        for (index, post) in corpus.posts().iter().enumerate() {
            if cache.post_ids[index] != post.id() {
                return Err(SignalCacheError::PostIdMismatch {
                    index,
                    cached: cache.post_ids[index],
                    found: post.id(),
                });
            }
        }
        // The cheap engagement / credibility fields are recomputed from the
        // post; the mined evidence comes from the cache.
        let offsets = cache.price_offsets();
        let mut installed = 0_usize;
        for (id, post) in corpus.posts().iter().enumerate() {
            let prices = cache.prices[offsets[id]..offsets[id + 1]].to_vec();
            let signals = PostSignals::from_post(post, cache.intents[id], prices);
            if self.signals[id].set(signals).is_ok() {
                installed += 1;
            }
        }
        Ok(installed)
    }

    /// Eagerly materialises the signals of every post, fanning out over worker
    /// threads.
    fn precompute_signals(&self, corpus: &Corpus) {
        let ids: Vec<u32> = (0..self.signals.len() as u32).collect();
        let _: Vec<()> = ids
            .par_iter()
            .map(|id| {
                self.signal(corpus, *id);
            })
            .collect();
    }

    /// The (cached) sweep plan for a database and base configuration over
    /// all of `corpus` — built on first use, reused while the key matches,
    /// and extended with the posts ingested since its last use.
    fn sweep_plan(
        &self,
        corpus: &Corpus,
        db: &KeywordDatabase,
        base_config: &PspConfig,
    ) -> std::sync::Arc<sweep::SweepPlan> {
        self.plans.plan_for(self, corpus, db, base_config)
    }

    /// Computes one SAI list per window through the sweep plan — see
    /// [`SaiScorer::sai_windows_until`]: `stop` is checked before the plan
    /// is looked up and before every profile job.
    fn sai_sweep(
        &self,
        corpus: &Corpus,
        db: &KeywordDatabase,
        base_config: &PspConfig,
        windows: &[Option<DateWindow>],
        stop: &(dyn Fn() -> bool + Sync),
    ) -> Option<Vec<SaiList>> {
        if stop() {
            return None;
        }
        let profiles: Vec<&KeywordProfile> = db.iter().collect();
        if windows.is_empty() {
            return Some(Vec::new());
        }
        if profiles.is_empty() {
            return Some(
                windows
                    .iter()
                    .map(|_| SaiList::from_entries(Vec::new()))
                    .collect(),
            );
        }
        let weights = base_config.sai_weights;
        let plan = self.sweep_plan(corpus, db, base_config);
        // One parallel job per profile, resolving the whole window batch
        // against its prefix-summed columns (scrambled windows share one
        // distribution pass).
        let jobs: Vec<(usize, &KeywordProfile)> = profiles.into_iter().enumerate().collect();
        let per_profile: Vec<Option<Vec<SaiEntry>>> = jobs
            .par_iter()
            .map(|(p, profile)| {
                (!stop()).then(|| plan.profiles[*p].entries_for(profile, weights, windows))
            })
            .collect();
        Some(transpose_to_lists(
            per_profile.into_iter().collect::<Option<_>>()?,
            windows.len(),
        ))
    }
}

/// Transposes a profile-major entry grid into one finished list per window,
/// preserving keyword-database order within each list — the tail of the
/// sweep path.
fn transpose_to_lists(per_profile: Vec<Vec<SaiEntry>>, lists: usize) -> Vec<SaiList> {
    let mut per_config: Vec<Vec<SaiEntry>> = (0..lists)
        .map(|_| Vec::with_capacity(per_profile.len()))
        .collect();
    for row in per_profile {
        for (c, entry) in row.into_iter().enumerate() {
            per_config[c].push(entry);
        }
    }
    per_config.into_iter().map(SaiList::from_entries).collect()
}

/// Sweeps a borrowed corpus once: builds a throwaway core over `corpus` (no
/// corpus copy), resolves every window of `axis` on one sweep plan and drops
/// the core — the engine behind the one-shot conveniences
/// [`SaiList::compute`] and [`crate::workflow::PspWorkflow::run`] (one
/// window), [`crate::monitoring::MonitoringSeries::run`] and
/// [`crate::timewindow::compare_windows`].  Bit-identical to
/// [`SaiScorer::sai_windows`] on a [`LiveEngine`] over the same corpus.
pub(crate) fn sai_windows_once(
    corpus: &Corpus,
    db: &KeywordDatabase,
    base_config: &PspConfig,
    axis: &WindowAxis,
) -> Vec<SaiList> {
    EngineCore::with_pipeline(corpus, TextPipeline::new())
        .sai_sweep(corpus, db, base_config, axis.as_options(), &|| false)
        .expect("a sweep that never stops finishes")
}

/// [`sai_windows_once`] over the configuration's own window: the one-shot
/// SAI list of a borrowed corpus.
pub(crate) fn sai_list_once(corpus: &Corpus, db: &KeywordDatabase, config: &PspConfig) -> SaiList {
    sai_windows_once(corpus, db, config, &WindowAxis::spans(&[config.window]))
        .pop()
        .expect("a one-window sweep returns one list")
}

/// The indexed, parallel SAI scoring engine: it **owns** one corpus behind one
/// inverted index and stays warm under streaming ingestion.
///
/// Build it once per corpus ([`LiveEngine::new`]), then compute as many SAI
/// lists as needed — per keyword database, per configuration, per analysis
/// window, through [`SaiScorer`] — without ever rescanning posts or re-running
/// the text pipeline.  [`ingest`](Self::ingest) interleaves with scoring: each
/// batch of posts is appended to the corpus, the inverted index is extended in
/// place ([`CorpusIndex::append`], amortised O(batch)), and the memoised
/// signal cache grows by exactly the batch — signals already paid for are
/// never recomputed, rebuilt or wiped.  Scoring after an append is
/// bit-identical to rebuilding a fresh engine over the grown corpus
/// (property-tested), at a fraction of the cost (see the `engine_ingest`
/// bench).
///
/// The engine takes its corpus by value.  A caller that needs the corpus back
/// — a bench that rebuilds an engine per iteration, say — moves it in and takes
/// it back with [`into_corpus`](Self::into_corpus) instead of copying it.
///
/// ```
/// use psp::config::PspConfig;
/// use psp::engine::LiveEngine;
/// use psp::keyword_db::KeywordDatabase;
/// use socialsim::scenario;
///
/// let seed = scenario::excavator_europe(7);
/// let (db, config) = (KeywordDatabase::excavator_seed(), PspConfig::excavator_europe());
/// let mut engine = LiveEngine::new(seed);
/// let before = engine.sai_list(&db, &config);
/// let receipt = engine.ingest(scenario::excavator_europe(8).posts().to_vec());
/// assert!(receipt.appended > 0 && receipt.generation == 1);
/// let after = engine.sai_list(&db, &config);
/// assert!(after.top().unwrap().posts >= before.top().unwrap().posts);
/// ```
#[derive(Debug, Clone)]
pub struct LiveEngine {
    corpus: Corpus,
    core: EngineCore,
}

impl LiveEngine {
    /// Builds the inverted index over an initial corpus (which may be empty);
    /// per-post text signals are computed lazily on first use (see
    /// [`precompute_signals`](Self::precompute_signals)).
    #[must_use]
    pub fn new(corpus: Corpus) -> Self {
        Self::with_pipeline(corpus, TextPipeline::new())
    }

    /// Builds an engine whose text mining runs through a custom pipeline —
    /// a custom [`textmine::IntentLexicon`] via
    /// [`TextPipeline::with_lexicon`], or the frozen multi-pass baseline via
    /// [`TextPipeline::reference`] (used by the `text_pipeline` bench).
    #[must_use]
    pub fn with_pipeline(corpus: Corpus, pipeline: TextPipeline) -> Self {
        let core = EngineCore::with_pipeline(&corpus, pipeline);
        Self { corpus, core }
    }

    /// Exports the memoised per-post text signals as a persistable
    /// [`SignalCacheFile`], materialising any signal not yet paid for.  A
    /// [`DurableStore`](crate::service::durability::DurableStore) checkpoint
    /// saves it beside the corpus, and recovery feeds it to
    /// [`load_signal_cache`](Self::load_signal_cache) to skip text mining
    /// entirely.
    #[must_use]
    pub fn export_signal_cache(&self) -> SignalCacheFile {
        self.core.export_cache(&self.corpus)
    }

    /// Installs a previously exported signal cache after validating its
    /// version, lexicon, length and every post id against this engine's
    /// current corpus.  Returns the number of posts warmed from the cache.
    ///
    /// # Errors
    ///
    /// Returns a [`SignalCacheError`] (and installs nothing) when the cache
    /// does not exactly describe this engine's current corpus.
    pub fn load_signal_cache(&self, cache: &SignalCacheFile) -> Result<usize, SignalCacheError> {
        self.core.load_cache(&self.corpus, cache)
    }

    /// Ingests a batch of posts: appends them to the corpus, extends the
    /// inverted index in place and grows the signal cache by exactly the
    /// batch.  Returns an [`IngestReceipt`] stamping the number of appended
    /// posts with the generation that publishes them.
    ///
    /// Amortised O(batch) — the posts already indexed are never rescanned, and
    /// their memoised text signals stay untouched (posts are immutable and ids
    /// append-only, so nothing previously cached can be affected).  A
    /// non-empty batch bumps [`generation`](Self::generation) by one.
    pub fn ingest(&mut self, batch: impl IntoIterator<Item = Post>) -> IngestReceipt {
        let before = self.corpus.len();
        for post in batch {
            self.corpus.push(post);
        }
        let appended = self.corpus.len() - before;
        self.core.append(&self.corpus, appended);
        IngestReceipt {
            appended,
            generation: self.core.generation,
        }
    }

    /// Number of non-empty ingest batches absorbed since construction.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.core.generation
    }

    /// The owned corpus, including every ingested post.
    #[must_use]
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Consumes the engine and hands its corpus back, without a copy.
    #[must_use]
    pub fn into_corpus(self) -> Corpus {
        self.corpus
    }

    /// Number of posts currently served.
    #[must_use]
    pub fn post_count(&self) -> usize {
        self.corpus.len()
    }

    /// Eagerly materialises the signals of every post, fanning out over worker
    /// threads.  Useful before a throughput-critical serving phase; otherwise
    /// signals fill in lazily as queries touch posts.  Already-memoised posts
    /// are skipped (their `OnceLock` is filled), so calling this after each
    /// ingest warms only the new batch.
    pub fn precompute_signals(&self) {
        self.core.precompute_signals(&self.corpus);
    }

    /// Number of sweep plans this engine has built cold; a plan-cache hit,
    /// and the extension of a plan with newly ingested posts, leave it
    /// unchanged.
    #[must_use]
    pub fn plan_builds(&self) -> u64 {
        self.core.plans.build_count()
    }

    /// Computes the full SAI list for a keyword database and configuration:
    /// the one-window sweep of the configuration's window on the cached plan
    /// for its (database, scene), fanning out over keyword profiles with
    /// `rayon`.
    ///
    /// The same as [`SaiScorer::sai_list`].  This inherent copy stays because
    /// the daemon benchmark (`perfbench`) calls it without importing the
    /// trait.
    #[must_use]
    pub fn sai_list(&self, db: &KeywordDatabase, config: &PspConfig) -> SaiList {
        self.core
            .sai_sweep(&self.corpus, db, config, &[config.window], &|| false)
            .and_then(|mut lists| lists.pop())
            .expect("a one-window sweep that never stops returns one list")
    }
}

impl SaiScorer for LiveEngine {
    fn sai_list(&self, db: &KeywordDatabase, config: &PspConfig) -> SaiList {
        LiveEngine::sai_list(self, db, config)
    }

    /// Sweeps through the prefix-summed plan — bit-identical to per-window
    /// [`sai_list`](SaiScorer::sai_list) and to the naive oracle.  The plan
    /// survives across calls on this warm engine and across
    /// [`LiveEngine::ingest`]: the first sweep after a batch extends it with
    /// the batch's posts, so a monitoring loop pays one cold build per
    /// (database, scene), not one per ingest.
    fn sai_windows_until(
        &self,
        db: &KeywordDatabase,
        base_config: &PspConfig,
        axis: &WindowAxis,
        stop: &(dyn Fn() -> bool + Sync),
    ) -> Option<Vec<SaiList>> {
        self.core
            .sai_sweep(&self.corpus, db, base_config, axis.as_options(), stop)
    }
}

impl StreamingScorer for LiveEngine {
    fn ingest_batch(&mut self, batch: Vec<Post>) -> IngestReceipt {
        self.ingest(batch)
    }

    fn post_count(&self) -> usize {
        LiveEngine::post_count(self)
    }

    fn generation(&self) -> u64 {
        LiveEngine::generation(self)
    }

    fn export_signal_cache(&self) -> SignalCacheFile {
        LiveEngine::export_signal_cache(self)
    }

    fn corpus(&self) -> &Corpus {
        LiveEngine::corpus(self)
    }

    fn restore_generation(&mut self, generation: u64) {
        self.core.generation = generation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialsim::scenario;
    use socialsim::time::DateWindow;

    #[test]
    fn engine_matches_the_naive_reference_exactly() {
        let corpus = scenario::passenger_car_europe(42);
        let db = KeywordDatabase::passenger_car_seed();
        let config = PspConfig::passenger_car_europe();
        let engine = LiveEngine::new(corpus.clone());
        assert_eq!(
            engine.sai_list(&db, &config),
            SaiList::compute_naive(&corpus, &db, &config)
        );
    }

    #[test]
    fn engine_matches_naive_with_window_and_filter() {
        let corpus = scenario::excavator_europe(7);
        let db = KeywordDatabase::excavator_seed();
        let config = PspConfig::excavator_europe()
            .with_window(DateWindow::years(2020, 2022))
            .with_poisoning_filter(0.25);
        let engine = LiveEngine::new(corpus.clone());
        assert_eq!(
            engine.sai_list(&db, &config),
            SaiList::compute_naive(&corpus, &db, &config)
        );
    }

    #[test]
    fn empty_corpus_and_empty_db_degrade_gracefully() {
        let corpus = Corpus::new();
        let engine = LiveEngine::new(corpus.clone());
        let sai = engine.sai_list(
            &KeywordDatabase::excavator_seed(),
            &PspConfig::excavator_europe(),
        );
        assert!(sai
            .entries()
            .iter()
            .all(|e| e.sai == 0.0 && e.probability == 0.0));
        let none = engine.sai_list(&KeywordDatabase::new(), &PspConfig::excavator_europe());
        assert!(none.is_empty());
        assert!(engine
            .sai_windows(
                &KeywordDatabase::new(),
                &PspConfig::excavator_europe(),
                &WindowAxis::new()
            )
            .is_empty());
    }

    #[test]
    fn live_engine_ingest_matches_a_cold_rebuild_bit_for_bit() {
        let full = scenario::excavator_europe(7);
        let posts = full.posts().to_vec();
        let db = KeywordDatabase::excavator_seed();
        let config = PspConfig::excavator_europe();

        let mut live = LiveEngine::new(Corpus::new());
        for chunk in posts.chunks(23) {
            live.ingest(chunk.to_vec());
        }
        assert_eq!(live.post_count(), full.posts().len());
        // Append-then-score is bit-identical to rebuild-then-score and to the
        // naive oracle (same corpus order, same fold order).
        assert_eq!(
            live.sai_list(&db, &config),
            LiveEngine::new(full.clone()).sai_list(&db, &config)
        );
        assert_eq!(
            live.sai_list(&db, &config),
            SaiList::compute_naive(&full, &db, &config)
        );
    }

    #[test]
    fn live_engine_scores_between_ingests_without_losing_warmth() {
        let seed = scenario::excavator_europe(7);
        let extra = scenario::excavator_europe(8).posts().to_vec();
        let db = KeywordDatabase::excavator_seed();
        let config = PspConfig::excavator_europe();

        // Score (memoising signals), then ingest, then score again: the second
        // score must still equal a cold engine over the grown corpus.
        let mut live = LiveEngine::new(seed.clone());
        let warm_before = live.sai_list(&db, &config);
        assert_eq!(
            warm_before,
            LiveEngine::new(seed.clone()).sai_list(&db, &config)
        );
        live.ingest(extra.clone());

        let mut grown = seed;
        grown.extend(extra);
        assert_eq!(
            live.sai_list(&db, &config),
            LiveEngine::new(grown).sai_list(&db, &config)
        );
    }

    #[test]
    fn empty_ingest_does_not_bump_the_generation() {
        let mut live = LiveEngine::new(scenario::excavator_europe(7));
        assert_eq!(live.generation(), 0);
        let empty = live.ingest(Vec::new());
        assert_eq!(
            empty,
            IngestReceipt {
                appended: 0,
                generation: 0
            }
        );
        assert_eq!(live.generation(), 0);
        let receipt = live.ingest(scenario::excavator_europe(9).posts().to_vec());
        assert!(receipt.appended > 0);
        assert_eq!(receipt.generation, 1);
        assert_eq!(live.generation(), 1);
    }

    #[test]
    fn sweep_matches_per_window_batch_lists_bit_for_bit() {
        let corpus = scenario::passenger_car_europe(42);
        let db = KeywordDatabase::passenger_car_seed();
        let base = PspConfig::passenger_car_europe();
        let engine = LiveEngine::new(corpus.clone());
        let windows: Vec<DateWindow> = (2015..2023).map(|y| DateWindow::years(y, y + 1)).collect();
        let swept = engine.sai_windows(&db, &base, &WindowAxis::each(&windows));
        assert_eq!(swept.len(), windows.len());
        for (window, sai) in windows.iter().zip(&swept) {
            let config = base.clone().with_window(*window);
            assert_eq!(*sai, engine.sai_list(&db, &config));
            assert_eq!(*sai, SaiList::compute_naive(&corpus, &db, &config));
        }
    }

    #[test]
    fn window_axis_builders_agree_with_the_bulk_constructors() {
        let a = DateWindow::years(2019, 2020);
        let b = DateWindow::years(2021, 2022);
        assert_eq!(WindowAxis::each(&[a, b]).as_options(), &[Some(a), Some(b)]);
        assert_eq!(
            WindowAxis::new().window(a).full_history().window(b),
            WindowAxis::spans(&[Some(a), None, Some(b)])
        );
        assert_eq!(
            WindowAxis::from(vec![None, Some(a)]),
            WindowAxis::new().full_history().window(a)
        );
        assert!(WindowAxis::new().is_empty());
        assert_eq!(WindowAxis::each(&[a, b]).len(), 2);
    }

    #[test]
    fn sweep_with_optional_windows_covers_the_full_history() {
        let corpus = scenario::excavator_europe(7);
        let db = KeywordDatabase::excavator_seed();
        let base = PspConfig::excavator_europe();
        let engine = LiveEngine::new(corpus.clone());
        let recent = DateWindow::years(2021, 2023);
        let axis = WindowAxis::new().full_history().window(recent);
        let swept = engine.sai_windows(&db, &base, &axis);
        assert_eq!(swept[0], engine.sai_list(&db, &base));
        assert_eq!(swept[0], SaiList::compute_naive(&corpus, &db, &base));
        let windowed = base.clone().with_window(recent);
        assert_eq!(swept[1], engine.sai_list(&db, &windowed));
        assert_eq!(swept[1], SaiList::compute_naive(&corpus, &db, &windowed));
        // A window already set on the base config is replaced per entry.
        let windowed_base = base.clone().with_window(DateWindow::years(2019, 2019));
        assert_eq!(
            engine.sai_windows(&db, &windowed_base, &WindowAxis::new().full_history()),
            vec![engine.sai_list(&db, &base)]
        );
    }

    #[test]
    fn sweep_edge_cases_degrade_like_the_batch_path() {
        let corpus = scenario::excavator_europe(7);
        let engine = LiveEngine::new(corpus.clone());
        let base = PspConfig::excavator_europe();
        // No windows -> no lists.
        assert!(engine
            .sai_windows(
                &KeywordDatabase::excavator_seed(),
                &base,
                &WindowAxis::new()
            )
            .is_empty());
        // Empty database -> one empty list per window.
        let lists = engine.sai_windows(
            &KeywordDatabase::new(),
            &base,
            &WindowAxis::each(&[DateWindow::years(2019, 2020), DateWindow::years(2021, 2022)]),
        );
        assert_eq!(lists.len(), 2);
        assert!(lists.iter().all(SaiList::is_empty));
        // Windows entirely outside the data -> zero evidence, not a panic.
        let empty = engine.sai_windows(
            &KeywordDatabase::excavator_seed(),
            &base,
            &WindowAxis::each(&[DateWindow::years(1990, 1991)]),
        );
        assert!(empty[0]
            .entries()
            .iter()
            .all(|e| e.posts == 0 && e.sai == 0.0));
    }

    #[test]
    fn sweep_plan_is_reused_across_calls_and_rebuilt_on_key_change() {
        let corpus = scenario::excavator_europe(7);
        let db = KeywordDatabase::excavator_seed();
        let base = PspConfig::excavator_europe();
        let engine = LiveEngine::new(corpus.clone());
        assert!(!engine.core.plans.is_populated());
        let first = engine.core.sweep_plan(engine.corpus(), &db, &base);
        assert!(engine.core.plans.is_populated());
        // Same key — the identical plan object is reused, even when the base
        // config differs in its window or SAI weights (both are resolved at
        // sweep time, not baked into the plan).
        let second = engine.core.sweep_plan(
            &corpus,
            &db,
            &base.clone().with_window(DateWindow::years(2020, 2021)),
        );
        assert!(std::sync::Arc::ptr_eq(&first, &second));
        let reweighted = engine.core.sweep_plan(
            &corpus,
            &db,
            &base
                .clone()
                .with_weights(crate::config::SaiWeights::views_only()),
        );
        assert!(std::sync::Arc::ptr_eq(&first, &reweighted));
        // A different scene (here: a poisoning filter) rebuilds.
        let filtered = engine.core.sweep_plan(
            engine.corpus(),
            &db,
            &base.clone().with_poisoning_filter(0.25),
        );
        assert!(!std::sync::Arc::ptr_eq(&first, &filtered));
        // The filtered plan admits at most as many candidate rows.
        assert!(filtered.candidate_rows() <= first.candidate_rows());
    }

    #[test]
    fn ingest_extends_the_live_sweep_plan_to_a_cold_build() {
        let seed = scenario::excavator_europe(7);
        let db = KeywordDatabase::excavator_seed();
        let base = PspConfig::excavator_europe();
        let windows: Vec<DateWindow> = (2018..2024).map(|y| DateWindow::years(y, y)).collect();

        let mut live = LiveEngine::new(seed);
        let before = live.core.sweep_plan(live.corpus(), &db, &base);
        // An empty ingest leaves the plan as it is...
        live.ingest(Vec::new());
        assert!(std::sync::Arc::ptr_eq(
            &before,
            &live.core.sweep_plan(live.corpus(), &db, &base)
        ));
        // ...a real batch extends it on its next use (no cold build), and a
        // copy pinned before the batch keeps the plan it had.
        let pinned = live.clone();
        live.ingest(scenario::excavator_europe(8).posts().to_vec());
        let after = live.core.sweep_plan(live.corpus(), &db, &base);
        assert!(!std::sync::Arc::ptr_eq(&before, &after));
        assert_eq!(live.plan_builds(), 1);
        assert!(std::sync::Arc::ptr_eq(
            &after,
            &live.core.sweep_plan(live.corpus(), &db, &base)
        ));
        assert!(std::sync::Arc::ptr_eq(
            &before,
            &pinned.core.sweep_plan(pinned.corpus(), &db, &base)
        ));
        // The extension is the cold build, column for column, and sweeps
        // like a cold engine and the naive oracle, bit for bit.
        let cold = LiveEngine::new(live.corpus().clone());
        assert!(after.candidate_rows() > before.candidate_rows());
        assert!(after.profiles == cold.core.sweep_plan(cold.corpus(), &db, &base).profiles);
        let axis = WindowAxis::each(&windows);
        let swept = live.sai_windows(&db, &base, &axis);
        assert_eq!(swept, cold.sai_windows(&db, &base, &axis));
        for (window, sai) in windows.iter().zip(&swept) {
            let config = base.clone().with_window(*window);
            assert_eq!(*sai, SaiList::compute_naive(live.corpus(), &db, &config));
        }
    }

    #[test]
    fn alternating_scenes_keep_both_plans_warm() {
        let corpus = scenario::excavator_europe(7);
        let db = KeywordDatabase::excavator_seed();
        let base = PspConfig::excavator_europe();
        let filtered = base.clone().with_poisoning_filter(0.25);
        let engine = LiveEngine::new(corpus.clone());
        let plan_a = engine.core.sweep_plan(engine.corpus(), &db, &base);
        let plan_b = engine.core.sweep_plan(engine.corpus(), &db, &filtered);
        // Alternate several times: both plans stay cached.  The single-slot
        // cache this replaced re-planned on every call here.
        for _ in 0..3 {
            assert!(std::sync::Arc::ptr_eq(
                &plan_a,
                &engine.core.sweep_plan(engine.corpus(), &db, &base)
            ));
            assert!(std::sync::Arc::ptr_eq(
                &plan_b,
                &engine.core.sweep_plan(engine.corpus(), &db, &filtered)
            ));
        }
        assert_eq!(engine.plan_builds(), 2);
    }

    #[test]
    fn alternating_databases_keep_their_plans_warm() {
        let corpus = scenario::excavator_europe(7);
        let base = PspConfig::excavator_europe();
        let db_a = KeywordDatabase::excavator_seed();
        let db_b = KeywordDatabase::passenger_car_seed();
        let engine = LiveEngine::new(corpus.clone());
        let plan_a = engine.core.sweep_plan(engine.corpus(), &db_a, &base);
        let plan_b = engine.core.sweep_plan(engine.corpus(), &db_b, &base);
        for _ in 0..3 {
            assert!(std::sync::Arc::ptr_eq(
                &plan_a,
                &engine.core.sweep_plan(engine.corpus(), &db_a, &base)
            ));
            assert!(std::sync::Arc::ptr_eq(
                &plan_b,
                &engine.core.sweep_plan(engine.corpus(), &db_b, &base)
            ));
        }
        assert_eq!(engine.plan_builds(), 2);
    }

    #[test]
    fn the_plan_cache_is_bounded_with_lru_eviction() {
        let corpus = scenario::excavator_europe(7);
        let db = KeywordDatabase::excavator_seed();
        let engine = LiveEngine::new(corpus.clone());
        // Distinct credibility thresholds give distinct plan keys.
        let scene =
            |i: usize| PspConfig::excavator_europe().with_poisoning_filter(0.01 * (i + 1) as f64);
        let overflow = sweep::PLAN_CACHE_CAPACITY + 1;
        for i in 0..overflow {
            engine.core.sweep_plan(engine.corpus(), &db, &scene(i));
        }
        assert_eq!(engine.plan_builds(), overflow as u64);
        // The most recent scene is still cached...
        engine
            .core
            .sweep_plan(engine.corpus(), &db, &scene(overflow - 1));
        assert_eq!(engine.plan_builds(), overflow as u64);
        // ...while the least recently used one was evicted and rebuilds.
        engine.core.sweep_plan(engine.corpus(), &db, &scene(0));
        assert_eq!(engine.plan_builds(), overflow as u64 + 1);
    }

    #[test]
    fn a_matrix_builds_one_plan_per_database_and_scene() {
        let corpus = scenario::excavator_europe(7);
        let engine = LiveEngine::new(corpus.clone());
        let base = PspConfig::excavator_europe();
        let windows: Vec<DateWindow> = (2018..2022).map(|y| DateWindow::years(y, y + 1)).collect();
        let spec = MatrixSpec::new()
            .scenario("excavator", KeywordDatabase::excavator_seed())
            .scenario("car", KeywordDatabase::passenger_car_seed())
            .config("balanced", base.clone())
            .config(
                "views-only",
                base.clone()
                    .with_weights(crate::config::SaiWeights::views_only()),
            )
            .config("filtered", base.clone().with_poisoning_filter(0.25))
            .window_axis(&WindowAxis::each(&windows));
        let results = engine.sai_matrix(&spec);
        assert_eq!(results.len(), spec.cell_count());
        // 2 databases × 2 scenes (balanced and views-only share a plan key;
        // the poisoning filter is its own scene): 4 plans for 24 cells.
        assert_eq!(engine.plan_builds(), 4);
        // Re-running the whole matrix reuses every plan.
        let again = engine.sai_matrix(&spec);
        assert_eq!(engine.plan_builds(), 4);
        assert_eq!(results, again);
    }

    #[test]
    fn an_empty_matrix_returns_no_cells_without_planning() {
        let corpus = scenario::excavator_europe(7);
        let engine = LiveEngine::new(corpus.clone());
        let grid = WindowAxis::each(&[DateWindow::years(2019, 2021)]);
        let no_scenarios = MatrixSpec::new()
            .config("base", PspConfig::excavator_europe())
            .window_axis(&grid);
        assert!(engine.sai_matrix(&no_scenarios).is_empty());
        let no_configs = MatrixSpec::new()
            .scenario("excavator", KeywordDatabase::excavator_seed())
            .window_axis(&grid);
        assert!(engine.sai_matrix(&no_configs).is_empty());
        assert_eq!(MatrixSpec::new().cell_count(), 0);
        assert!(engine.sai_matrix(&MatrixSpec::new()).is_empty());
        assert_eq!(engine.plan_builds(), 0);
        assert!(!engine.core.plans.is_populated());
    }

    #[test]
    fn matrix_cells_match_the_naive_reference() {
        let corpus = scenario::excavator_europe(7);
        let engine = LiveEngine::new(corpus.clone());
        let db = KeywordDatabase::excavator_seed();
        let configs = [
            PspConfig::excavator_europe(),
            PspConfig::excavator_europe().with_poisoning_filter(0.25),
        ];
        let window = DateWindow::years(2020, 2022);
        let spec = MatrixSpec::new()
            .scenario("excavator", db.clone())
            .config("balanced", configs[0].clone())
            .config("filtered", configs[1].clone())
            .window_axis(&WindowAxis::new().full_history().window(window));
        let results = engine.sai_matrix(&spec);
        assert_eq!(results.len(), 4);
        for (id, sai) in results.iter() {
            let mut config = configs[id.config].clone();
            config.window = [None, Some(window)][id.window];
            assert_eq!(*sai, SaiList::compute_naive(&corpus, &db, &config));
        }
    }

    #[test]
    fn ingest_extends_matrix_plans_without_rebuilding_them() {
        let mut live = LiveEngine::new(scenario::excavator_europe(7));
        let db = KeywordDatabase::excavator_seed();
        let configs = [
            PspConfig::excavator_europe(),
            PspConfig::excavator_europe().with_poisoning_filter(0.25),
        ];
        let window = DateWindow::years(2019, 2021);
        let spec = MatrixSpec::new()
            .scenario("excavator", db.clone())
            .config("base", configs[0].clone())
            .config("filtered", configs[1].clone())
            .window_axis(&WindowAxis::each(&[window]));
        live.sai_matrix(&spec);
        assert_eq!(live.plan_builds(), 2);
        live.sai_matrix(&spec);
        assert_eq!(live.plan_builds(), 2);
        // A real ingest: both plans extend with the batch instead of
        // re-planning, and the result matches a cold engine over the grown
        // corpus and the naive oracle.
        live.ingest(scenario::excavator_europe(8).posts().to_vec());
        let after = live.sai_matrix(&spec);
        assert_eq!(live.plan_builds(), 2);
        let cold = LiveEngine::new(live.corpus().clone());
        assert_eq!(after, cold.sai_matrix(&spec));
        for (id, sai) in after.iter() {
            let config = configs[id.config].clone().with_window(window);
            assert_eq!(*sai, SaiList::compute_naive(live.corpus(), &db, &config));
        }
    }

    #[test]
    fn matrix_results_are_addressable_and_stream_in_cell_order() {
        let corpus = scenario::excavator_europe(7);
        let engine = LiveEngine::new(corpus.clone());
        let spec = MatrixSpec::new()
            .scenario("excavator", KeywordDatabase::excavator_seed())
            .config("base", PspConfig::excavator_europe())
            .window_axis(
                &WindowAxis::new()
                    .full_history()
                    .window(DateWindow::years(2021, 2023)),
            );
        let mut streamed = Vec::new();
        engine
            .sai_matrix_stream_until(&spec, &|| false, &mut |id, sai| streamed.push((id, sai)))
            .expect("a matrix that never stops finishes");
        let ids: Vec<CellId> = streamed.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, spec.cell_ids());
        let results = engine.sai_matrix(&spec);
        for (id, sai) in &streamed {
            assert_eq!(results.cell(*id), Some(sai));
            assert_eq!(results.get(id.scenario, id.config, id.window), Some(sai));
        }
        // Out-of-range addresses answer None instead of panicking.
        assert!(results.get(1, 0, 0).is_none());
        assert!(results.get(0, 1, 0).is_none());
        assert!(results.get(0, 0, 2).is_none());
        assert_eq!(results.into_cells(), streamed);
    }

    #[test]
    fn live_engine_windows_match_snapshot_windows_after_ingest() {
        let seed = scenario::passenger_car_europe(42);
        let posts = seed.posts().to_vec();
        let (old, new) = posts.split_at(posts.len() / 2);
        let db = KeywordDatabase::passenger_car_seed();
        let base = PspConfig::passenger_car_europe();
        let windows: Vec<DateWindow> = (2016..2023).map(|y| DateWindow::years(y, y + 1)).collect();

        let mut live = LiveEngine::new(Corpus::from_posts(old.to_vec()));
        live.ingest(new.to_vec());
        let snapshot = LiveEngine::new(live.corpus().clone());
        let swept = live.sai_windows(&db, &base, &WindowAxis::each(&windows));
        assert_eq!(
            swept,
            snapshot.sai_windows(&db, &base, &WindowAxis::each(&windows))
        );
        for (window, sai) in windows.iter().zip(&swept) {
            let config = base.clone().with_window(*window);
            assert_eq!(*sai, snapshot.sai_list(&db, &config));
            assert_eq!(*sai, SaiList::compute_naive(&seed, &db, &config));
        }
    }
}
