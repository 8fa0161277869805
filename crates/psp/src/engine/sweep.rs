//! The sweep plane: prefix-summed columnar projections of per-post SAI
//! evidence, so an N-window monitoring sweep pays ~O(log n) per window for
//! everything that merges associatively.
//!
//! A windowed sweep (`MonitoringSeries`, Figure-9 comparisons, fleet sweeps)
//! scores the *same* scenario over many windows of one corpus.  Scored one
//! window at a time, every window re-queries the index and re-walks the
//! whole candidate set: an O(candidates) metadata filter plus an O(matches)
//! signal fold, per window.  The sweep plan
//! moves all window-invariant work into a build step and leaves per-window
//! work proportional to the window's *own* evidence:
//!
//! * **build once per (database, scene)** — for each keyword profile, the
//!   candidates passing the window-invariant filters (content, region,
//!   application, credibility) are projected into columns sorted by posting
//!   date (stable, so equal dates keep ascending post-id order).  The exact
//!   integer evidence (post / view / interaction counts) is prefix-summed;
//!   the order-sensitive evidence (intent scores, mined price runs) is stored
//!   per row, never prefix-summed, because float addition is not associative;
//! * **resolve per window** — two binary searches turn the window into a
//!   contiguous row range `[lo, hi)`; counts and integer sums fall out of
//!   prefix-sum subtractions in O(log n), and only the window's own rows are
//!   re-folded — in ascending post-id order, the exact order the per-window
//!   `sai_list` fold uses — for the intent sum and the price stream.
//!
//! The result is **bit-identical** to the `SaiList::compute_naive` oracle:
//! integer subtraction of integer prefix sums is exact, and the float
//! evidence is added in ascending post-id order, the order the oracle's scan
//! folds in.  The `psp-suite` property tests (`tests/sweep.rs`,
//! `tests/engine_properties.rs`) pin this down over random corpora × window
//! grids × ingest splits × thread counts.  Every read resolves through a
//! plan: a single configuration is the one-window sweep of its own window.
//!
//! **Plans survive ingest.**  An ingest appends posts whose ids are above
//! every indexed id, and every plan filter is per post, so the id-order
//! columns of a grown corpus are the old columns followed by the new posts'
//! rows.  A plan records how many posts it covers; the first sweep that
//! finds more posts in its corpus *extends* the plan with them — the cold
//! build run over the tail ([`ProfileColumns::build`] is one function, and a
//! cold build is the extension of the empty plan) — and the result is
//! bit-identical to a cold build over the grown corpus.
//!
//! Plans are cached per engine core behind a [`PlanCache`] — a small bounded
//! keyed cache (most-recently-used, [`PLAN_CACHE_CAPACITY`] slots) — keyed by
//! the keyword database and the scene half of the configuration ([`PlanKey`]:
//! region, application, credibility rule — windows and SAI weights are
//! resolved per sweep).  Several (database, scene) pairs in rotation — a
//! `MatrixSpec` evaluating many scenarios over one warm engine, or two
//! alternating monitoring scenes — each keep their plan instead of thrashing
//! one slot.  Cloning an engine (the service's copy-on-publish) shares the
//! plans, so a reader pinned to an older generation keeps its plan while the
//! published one extends a copy.

use super::{profile_query, EngineCore};
use crate::config::{PspConfig, SaiWeights};
use crate::keyword_db::{KeywordDatabase, KeywordProfile};
use crate::sai::SaiEntry;
use rayon::prelude::*;
use socialsim::corpus::Corpus;
use socialsim::post::{Region, TargetApplication};
use socialsim::time::{DateWindow, SimDate};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The configuration half a sweep plan actually depends on: the scene filters
/// (region, application) and the credibility rule.  Windows are resolved per
/// sweep and SAI weights per entry, so configurations differing only in those
/// share one plan — a weight-ablation sweep re-uses the cached columns.
#[derive(Debug, Clone, PartialEq)]
struct PlanKey {
    region: Region,
    application: TargetApplication,
    min_author_credibility: Option<f64>,
}

impl PlanKey {
    fn of(config: &PspConfig) -> Self {
        Self {
            region: config.region,
            application: config.application,
            min_author_credibility: config.min_author_credibility,
        }
    }
}

/// One keyword profile's window-invariant evidence, held in **two aligned
/// orders**:
///
/// * the primary columns live in **ascending post-id order** (the natural
///   candidate order — also the mandatory fold order for the order-sensitive
///   float evidence); an extension appends to them;
/// * a **date-sorted view** (`sorted_dates` + the `perm` permutation) turns
///   any window into a contiguous rank range via two binary searches, with
///   the integer evidence prefix-summed along that view.
///
/// Per window the integer sums are O(log n) prefix subtractions; the
/// order-sensitive evidence re-folds over the window's own rows only, picking
/// the cheapest id-ordering strategy per window (see
/// [`in_order_rows`](Self::in_order_rows)).
#[derive(Debug, Clone, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub(super) struct ProfileColumns {
    /// Per-row intent scores, id order (one row per surviving candidate).
    /// Order-sensitive: folded per window in ascending post-id order, never
    /// prefix-summed (float addition is not associative, and bit-exactness
    /// is the contract).
    intents: Vec<f64>,
    /// Row → range into `prices` (`len + 1` offsets), id order.
    price_offsets: Vec<u32>,
    /// Mined prices, flattened in id order.
    prices: Vec<f64>,
    /// Per-row posting dates, id order.
    dates: Vec<SimDate>,
    /// Per-row view counts, id order.
    views: Vec<u64>,
    /// Per-row interaction counts, id order.
    interactions: Vec<u64>,
    /// The candidates' posting dates in ascending (date, id) order — the
    /// binary-search axis of the date-sorted view.
    sorted_dates: Vec<SimDate>,
    /// Date rank → id-order row: the stable date sort as a permutation.
    perm: Vec<u32>,
    /// Id-order row → date rank: the inverse of `perm`, for the linear-walk
    /// fold strategy.
    rank_of: Vec<u32>,
    /// `prefix_views[i]` = summed views of the first `i` date-ranked rows
    /// (`len + 1`).
    prefix_views: Vec<u64>,
    /// Prefix-summed interactions along the date-sorted view, like
    /// `prefix_views`.
    prefix_interactions: Vec<u64>,
    /// Prefix-summed mined-price counts along the date-sorted view — sizes
    /// every window's price buffer exactly, in O(1).
    prefix_price_counts: Vec<u32>,
    /// `perm_descents[i]` = number of adjacent descents among the first `i`
    /// entries of `perm` (`len + 1` prefix counts): a rank range `[lo, hi)`
    /// is already in ascending id order iff it contains no descent — an O(1)
    /// check that lets in-order windows (the overwhelmingly common shape:
    /// per-keyword candidates usually arrive in date order) fold straight
    /// over contiguous column slices.
    perm_descents: Vec<u32>,
}

/// The rows one *in-order* window covers, in ascending post-id order —
/// produced by [`ProfileColumns::in_order_rows`] at O(1) cost.
enum RowSet<'a> {
    /// A contiguous id-order row run `[from, to)`: the fold is pure slice
    /// arithmetic (one pass for the intent sum, one bulk copy for prices).
    Run(usize, usize),
    /// An ascending-but-gapped row list, borrowed straight from `perm`.
    Rows(&'a [u32]),
}

impl ProfileColumns {
    /// Extends `base` — this profile's columns over the posts below `from` —
    /// with the candidates from post `from` on, under the window-invariant
    /// filters of the base configuration (content, region, application,
    /// credibility — everything but the window).  A cold build extends the
    /// empty columns from post 0.  Forces the text signals of every new
    /// surviving candidate — paid once per post and plan, not per window.
    ///
    /// New ids are above every base id, so the new rows append to the
    /// id-order columns.  The date view starts from the base `perm` followed
    /// by the new rows and is stably sorted by date: equal dates keep base
    /// rows (smaller ids) first, which is the cold build's (date, id) order.
    fn build(
        base: &Self,
        from: u32,
        core: &EngineCore,
        corpus: &Corpus,
        profile: &KeywordProfile,
        base_config: &PspConfig,
    ) -> Self {
        let query = profile_query(profile, base_config);
        let candidates = core.index.content_candidates(corpus, &query, from);
        let new = candidates.len();
        let mut columns = Self {
            intents: grown(&base.intents, new),
            price_offsets: grown(&base.price_offsets, new + 1),
            prices: base.prices.clone(),
            dates: grown(&base.dates, new),
            views: grown(&base.views, new),
            interactions: grown(&base.interactions, new),
            ..Self::default()
        };
        if columns.price_offsets.is_empty() {
            columns.price_offsets.push(0);
        }
        // Candidates arrive ascending, and the filters preserve order.
        for id in candidates {
            if !core.index.matches_scene(id, &query) {
                continue;
            }
            let signal = core.signal(corpus, id);
            if let Some(threshold) = base_config.min_author_credibility {
                // Same rule as the naive oracle: credible author, or organic
                // engagement above 1% interaction rate.
                if signal.credibility < threshold && signal.interaction_rate <= 0.01 {
                    continue;
                }
            }
            columns.intents.push(signal.intent);
            columns.prices.extend_from_slice(&signal.prices);
            columns.price_offsets.push(columns.prices.len() as u32);
            columns.dates.push(core.index.date_of(id));
            columns.views.push(signal.views);
            columns.interactions.push(signal.interactions);
        }
        let rows = columns.intents.len();

        let mut perm: Vec<u32> = Vec::with_capacity(rows);
        perm.extend_from_slice(&base.perm);
        perm.extend(base.perm.len() as u32..rows as u32);
        perm.sort_by_key(|row| columns.dates[*row as usize]);
        let mut rank_of = vec![0_u32; rows];
        for (rank, row) in perm.iter().enumerate() {
            rank_of[*row as usize] = rank as u32;
        }
        columns.sorted_dates = perm
            .iter()
            .map(|row| columns.dates[*row as usize])
            .collect();
        columns.prefix_views.reserve(rows + 1);
        columns.prefix_views.push(0);
        columns.prefix_interactions.reserve(rows + 1);
        columns.prefix_interactions.push(0);
        columns.prefix_price_counts.reserve(rows + 1);
        columns.prefix_price_counts.push(0);
        columns.perm_descents.reserve(rows + 1);
        columns.perm_descents.push(0);
        for (rank, row) in perm.iter().enumerate() {
            let row = *row as usize;
            columns
                .prefix_views
                .push(columns.prefix_views[rank] + columns.views[row]);
            columns
                .prefix_interactions
                .push(columns.prefix_interactions[rank] + columns.interactions[row]);
            columns.prefix_price_counts.push(
                columns.prefix_price_counts[rank] + columns.price_offsets[row + 1]
                    - columns.price_offsets[row],
            );
            columns.perm_descents.push(
                columns.perm_descents[rank] + u32::from(rank > 0 && perm[rank - 1] > perm[rank]),
            );
        }
        columns.perm = perm;
        columns.rank_of = rank_of;
        columns
    }

    /// The contiguous date-rank range covered by the window (`None` = every
    /// row): two binary searches over the sorted date column.
    fn window_bounds(&self, window: Option<&DateWindow>) -> (usize, usize) {
        match window {
            None => (0, self.sorted_dates.len()),
            Some(window) => {
                let lo = self
                    .sorted_dates
                    .partition_point(|date| *date < window.from);
                let hi = self.sorted_dates.partition_point(|date| *date <= window.to);
                // An inverted window (`from > to`, constructible through the
                // pub fields or deserialisation) contains no date — clamp to
                // the empty range so the sweep reports zero evidence exactly
                // like the per-window paths, instead of underflowing.
                (lo, hi.max(lo))
            }
        }
    }

    /// The id-order rows of rank range `[lo, hi)` when the range is already
    /// in ascending id order — the cheap per-window resolutions:
    ///
    /// * **full coverage** — a window spanning every row is the whole
    ///   id-order column `[0, n)` no matter how scrambled the permutation is
    ///   (the Figure-9 "full history" shape);
    /// * **in order** (O(1) check via the descent prefix counts) — the range
    ///   is borrowed from `perm` as-is; when it is also gap-free it collapses
    ///   to a contiguous [`RowSet::Run`] whose fold is pure slice work.
    ///
    /// Returns `None` for a scrambled range — those windows are resolved
    /// together by one shared [`distribute`](Self::distribute) pass instead
    /// of paying an ordering cost each.
    fn in_order_rows(&self, lo: usize, hi: usize) -> Option<RowSet<'_>> {
        if hi - lo == self.perm.len() {
            return Some(RowSet::Run(0, self.perm.len()));
        }
        if hi == lo {
            return Some(RowSet::Run(0, 0));
        }
        if hi <= lo + 1 || self.perm_descents[hi] == self.perm_descents[lo + 1] {
            let first = self.perm[lo] as usize;
            let last = self.perm[hi - 1] as usize;
            if last - first == hi - 1 - lo {
                return Some(RowSet::Run(first, last + 1));
            }
            return Some(RowSet::Rows(&self.perm[lo..hi]));
        }
        None
    }

    /// Resolves every *scrambled* window of a sweep in **one ascending-id
    /// pass**: the windows' rank bounds partition the rank axis into
    /// elementary segments, each segment knows which windows cover it
    /// (interval stabbing), and a single walk over the id-ordered rows calls
    /// `visit(window, row)` for every (window, row) membership — in
    /// ascending id order per window, the fold order bit-exactness demands.
    ///
    /// Cost: O(windows·log windows + rows) once, plus exactly one visit per
    /// membership — instead of one O(rows) walk (or O(k log k) sort) *per
    /// window*.
    fn distribute(
        &self,
        scrambled: &[(usize, (usize, usize))],
        mut visit: impl FnMut(usize, usize),
    ) {
        // The sorted, deduplicated rank bounds: segment `s` spans
        // `[points[s], points[s + 1])`; ranks outside every window land in
        // segments no window covers.
        let mut points: Vec<u32> = scrambled
            .iter()
            .flat_map(|(_, (lo, hi))| [*lo as u32, *hi as u32])
            .collect();
        points.sort_unstable();
        points.dedup();
        let segments = points.len().saturating_sub(1);
        let mut covers: Vec<Vec<u32>> = vec![Vec::new(); segments];
        for (window, (lo, hi)) in scrambled {
            // Both bounds are members of `points`, so partition_point finds
            // their exact segment indices.
            let first = points.partition_point(|p| (*p as usize) < *lo);
            let last = points.partition_point(|p| (*p as usize) < *hi);
            for segment in &mut covers[first..last] {
                segment.push(*window as u32);
            }
        }
        // Dense rank → segment map (u32::MAX = covered by no window), so the
        // hot row loop is two loads and a bounds test.
        let rows = self.perm.len();
        let mut segment_of: Vec<u32> = vec![u32::MAX; rows];
        for (segment, cover) in covers.iter().enumerate() {
            if cover.is_empty() {
                continue;
            }
            for rank in points[segment]..points[segment + 1] {
                segment_of[rank as usize] = segment as u32;
            }
        }
        for row in 0..rows {
            let segment = segment_of[self.rank_of[row] as usize];
            if segment == u32::MAX {
                continue;
            }
            for window in &covers[segment as usize] {
                visit(*window as usize, row);
            }
        }
    }

    /// Resolves a whole sweep into one raw (unnormalised) [`SaiEntry`] per
    /// window: counts and integer sums by prefix-sum subtraction, intent and
    /// prices re-folded over each window's own rows in ascending post-id
    /// order — in-order windows via slice folds, scrambled windows batched
    /// through one [`distribute`](Self::distribute) pass.
    pub(super) fn entries_for(
        &self,
        profile: &KeywordProfile,
        weights: SaiWeights,
        windows: &[Option<DateWindow>],
    ) -> Vec<SaiEntry> {
        let bounds: Vec<(usize, usize)> = windows
            .iter()
            .map(|window| self.window_bounds(window.as_ref()))
            .collect();
        let mut intents: Vec<f64> = vec![0.0; bounds.len()];
        let mut prices: Vec<Vec<f64>> = bounds
            .iter()
            .map(|(lo, hi)| {
                Vec::with_capacity(
                    (self.prefix_price_counts[*hi] - self.prefix_price_counts[*lo]) as usize,
                )
            })
            .collect();
        let mut scrambled: Vec<(usize, (usize, usize))> = Vec::new();
        for (w, &(lo, hi)) in bounds.iter().enumerate() {
            match self.in_order_rows(lo, hi) {
                Some(RowSet::Run(from, to)) => {
                    for value in &self.intents[from..to] {
                        intents[w] += value;
                    }
                    prices[w].extend_from_slice(
                        &self.prices
                            [self.price_offsets[from] as usize..self.price_offsets[to] as usize],
                    );
                }
                Some(RowSet::Rows(rows)) => {
                    for row in rows {
                        let row = *row as usize;
                        intents[w] += self.intents[row];
                        let from = self.price_offsets[row] as usize;
                        let to = self.price_offsets[row + 1] as usize;
                        prices[w].extend_from_slice(&self.prices[from..to]);
                    }
                }
                None => scrambled.push((w, (lo, hi))),
            }
        }
        if !scrambled.is_empty() {
            self.distribute(&scrambled, |w, row| {
                intents[w] += self.intents[row];
                let from = self.price_offsets[row] as usize;
                let to = self.price_offsets[row + 1] as usize;
                prices[w].extend_from_slice(&self.prices[from..to]);
            });
        }
        bounds
            .iter()
            .zip(intents)
            .zip(prices)
            .map(|((&(lo, hi), intent), prices)| {
                let posts = hi - lo;
                let views = self.prefix_views[hi] - self.prefix_views[lo];
                let interactions = self.prefix_interactions[hi] - self.prefix_interactions[lo];
                let sai = weights.view_weight * views as f64
                    + weights.interaction_weight * interactions as f64
                    + weights.post_weight * posts as f64
                    + weights.intent_weight * intent;
                SaiEntry {
                    keyword: profile.keyword.clone(),
                    scenario: profile.scenario.clone(),
                    vector: profile.vector,
                    origin: profile.origin,
                    posts,
                    views,
                    interactions,
                    intent,
                    prices,
                    sai,
                    probability: 0.0,
                }
            })
            .collect()
    }

    /// Number of candidate rows in the plan (test-only introspection).
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.intents.len()
    }
}

/// A copy of `base` with room for `extra` more rows.
fn grown<T: Copy>(base: &[T], extra: usize) -> Vec<T> {
    let mut column = Vec::with_capacity(base.len() + extra);
    column.extend_from_slice(base);
    column
}

/// A full sweep plan: one [`ProfileColumns`] per keyword profile, plus the
/// key it was built for and the corpus prefix it covers.
#[derive(Debug, Clone)]
pub(super) struct SweepPlan {
    /// How many posts (ids `0..posts`) the plan covers; a corpus holding
    /// more has grown by ingest since, and the plan extends to it.
    posts: usize,
    /// The keyword database the plan projects (column order = profile order).
    db: KeywordDatabase,
    /// The window-invariant configuration half the plan bakes in.
    key: PlanKey,
    /// One column set per profile, in database order.
    pub(super) profiles: Vec<ProfileColumns>,
}

impl SweepPlan {
    /// The plan for a database and base configuration over all of `corpus`:
    /// `base` (a plan for the same key over a prefix of the corpus) extended
    /// with the posts it lacks, or a cold build when there is none.  Fans the
    /// per-profile column projections out over worker threads.
    fn extend(
        base: Option<&SweepPlan>,
        core: &EngineCore,
        corpus: &Corpus,
        db: &KeywordDatabase,
        base_config: &PspConfig,
    ) -> Self {
        let empty = ProfileColumns::default();
        let from = base.map_or(0, |plan| plan.posts as u32);
        let jobs: Vec<(usize, &KeywordProfile)> = db.iter().enumerate().collect();
        let profiles: Vec<ProfileColumns> = jobs
            .par_iter()
            .map(|(p, profile)| {
                let columns = base.map_or(&empty, |plan| &plan.profiles[*p]);
                ProfileColumns::build(columns, from, core, corpus, profile, base_config)
            })
            .collect();
        Self {
            posts: corpus.len(),
            db: db.clone(),
            key: PlanKey::of(base_config),
            profiles,
        }
    }

    /// Whether the plan projects this database and scene.
    fn is_for(&self, db: &KeywordDatabase, key: &PlanKey) -> bool {
        self.key == *key && self.db == *db
    }

    /// Total candidate rows across all profiles (test-only introspection).
    #[cfg(test)]
    pub(super) fn candidate_rows(&self) -> usize {
        self.profiles.iter().map(ProfileColumns::len).sum()
    }
}

/// Maximum number of plans one [`PlanCache`] retains.  Every (database,
/// scene) pair in rotation costs one slot; eight covers the matrix workloads
/// (a handful of scenario databases times one or two scene filters each)
/// while keeping the memory bound tight.
pub(super) const PLAN_CACHE_CAPACITY: usize = 8;

/// A small, bounded, interior-mutable cache of the [`SweepPlan`]s most
/// recently used on an engine core, one per (database, scene).
///
/// Alternating (database, scene) pairs — a `MatrixSpec` evaluating several
/// scenarios against one warm engine, or two monitoring scenes taking turns —
/// each keep their plan instead of thrashing a single slot.  A plan that
/// covers fewer posts than the corpus is extended on its next use and
/// replaced by the extension; beyond [`PLAN_CACHE_CAPACITY`] the least
/// recently used plan is evicted.
pub(super) struct PlanCache {
    /// The cached plans, least recently used first.
    slots: Mutex<Vec<Arc<SweepPlan>>>,
    /// Number of plans ever built cold through this cache (extensions do not
    /// count) — how the plan-reuse regression tests prove "one build per
    /// (database, scene)", across ingests too.
    builds: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self {
            slots: Mutex::new(Vec::new()),
            builds: AtomicU64::new(0),
        }
    }
}

impl PlanCache {
    fn lock(&self) -> MutexGuard<'_, Vec<Arc<SweepPlan>>> {
        // A poisoning panic can only have happened outside plan construction
        // (plans are built before being stored), so the cached values are
        // safe.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The plan for this (database, scene) over all of `corpus`: the cached
    /// plan when it covers every post, else that plan extended with the posts
    /// ingested since, else a cold build — cached either way, replacing the
    /// plan it extends.  Racing readers of one key may both extend or build;
    /// both plans are identical and the cache keeps one of them, so a race
    /// only costs duplicated work.
    pub(super) fn plan_for(
        &self,
        core: &EngineCore,
        corpus: &Corpus,
        db: &KeywordDatabase,
        base_config: &PspConfig,
    ) -> Arc<SweepPlan> {
        let key = PlanKey::of(base_config);
        let base = {
            let mut slots = self.lock();
            match slots.iter().position(|plan| plan.is_for(db, &key)) {
                Some(hit) if slots[hit].posts == corpus.len() => {
                    let plan = slots.remove(hit);
                    slots.push(Arc::clone(&plan)); // most recently used last
                    return plan;
                }
                Some(stale) if slots[stale].posts < corpus.len() => Some(Arc::clone(&slots[stale])),
                _ => None,
            }
        };
        // Extend or build outside the lock so concurrent sweeps of
        // *different* keys are not serialised behind each other.
        let plan = Arc::new(SweepPlan::extend(
            base.as_deref(),
            core,
            corpus,
            db,
            base_config,
        ));
        if base.is_none() {
            self.builds.fetch_add(1, Ordering::Relaxed);
        }
        let mut slots = self.lock();
        // The new plan replaces the one it extends, and any plan a racing
        // reader cached meanwhile: one plan per key.
        slots.retain(|cached| !cached.is_for(db, &key));
        slots.push(Arc::clone(&plan));
        if slots.len() > PLAN_CACHE_CAPACITY {
            let excess = slots.len() - PLAN_CACHE_CAPACITY;
            slots.drain(..excess);
        }
        plan
    }

    /// Number of plans built through this cache.
    pub(super) fn build_count(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Whether any plan is currently cached (test-only introspection).
    #[cfg(test)]
    pub(super) fn is_populated(&self) -> bool {
        !self.lock().is_empty()
    }
}

impl Clone for PlanCache {
    fn clone(&self) -> Self {
        // Clones share the immutable plans (cheap `Arc` clones) but get their
        // own slots, so a clone that later ingests extends its own copies.
        Self {
            slots: Mutex::new(self.lock().clone()),
            builds: AtomicU64::new(self.builds.load(Ordering::Relaxed)),
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cached = self.lock().len();
        f.debug_struct("PlanCache")
            .field("cached", &cached)
            .finish()
    }
}
