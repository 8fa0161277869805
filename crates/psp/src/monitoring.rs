//! Runtime monitoring over sliding analysis windows.
//!
//! The paper's stated aim is "to move from static risk assessment models, as
//! outlined in ISO-21434, to a runtime model environment […] allowing for
//! monitoring internal risks".  This module runs the PSP analysis over a sequence
//! of yearly windows, producing a time series of vector shares and tuned tables per
//! scenario, and detects the year in which the dominant vector flips (the trend
//! inversion of Figure 9 observed as it happens rather than in hindsight).
//!
//! Two evaluation shapes share the same window logic:
//!
//! * [`MonitoringSeries::run`] — one-shot: index a borrowed corpus snapshot
//!   and sweep every window over it;
//! * [`LiveMonitor`] — streaming: hold a [`LiveEngine`], interleave
//!   [`LiveMonitor::ingest`] with [`LiveMonitor::series`] so new posts are
//!   absorbed in amortised O(batch) and every re-evaluation reuses the warm
//!   index and memoised text signals instead of rebuilding them.  The live
//!   series is bit-identical to a cold [`MonitoringSeries::run`] over the same
//!   grown corpus.

use crate::config::PspConfig;
use crate::engine::{IngestReceipt, LiveEngine, SaiScorer, WindowAxis};
use crate::keyword_db::KeywordDatabase;
use crate::sai::SaiList;
use crate::weights::WeightGenerator;
use iso21434::feasibility::attack_vector::AttackVectorTable;
use serde::{Deserialize, Serialize};
use socialsim::corpus::Corpus;
use socialsim::post::Post;
use socialsim::time::DateWindow;
use vehicle::attack_surface::AttackVector;

/// The observation produced for one analysis window.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowObservation {
    /// First year of the window (inclusive).
    pub from_year: i32,
    /// Last year of the window (inclusive).
    pub to_year: i32,
    /// Number of matching posts across all keywords of the scenario.
    pub posts: usize,
    /// The scenario's total SAI mass in this window (summed over its entries).
    pub scenario_sai: f64,
    /// SAI share per attack vector within the scenario.
    pub vector_shares: Vec<(AttackVector, f64)>,
    /// The dominant vector of the window (`None` when the window has no evidence).
    pub dominant: Option<AttackVector>,
    /// The tuned table generated from this window.
    pub table: AttackVectorTable,
}

/// Which way the scenario's SAI mass moved between two consecutive windows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AlertDirection {
    /// The SAI mass grew beyond the alert threshold — attacker attention is
    /// rising and a TARA re-evaluation is due.
    Rising,
    /// The SAI mass shrank beyond the alert threshold.
    Falling,
}

/// An alert raised when the scenario's SAI mass moves sharply between two
/// consecutive observation windows — the monitoring loop's "re-assess now"
/// signal, cheaper to act on than diffing whole tables.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct SaiAlert {
    /// Start year of the window that triggered the alert (the later window).
    pub from_year: i32,
    /// The scenario SAI of the preceding window.
    pub previous_sai: f64,
    /// The scenario SAI of the triggering window.
    pub current_sai: f64,
    /// Rising or falling.
    pub direction: AlertDirection,
}

/// The monitoring time series for one scenario.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct MonitoringSeries {
    /// The scenario monitored.
    pub scenario: String,
    /// One observation per window, in chronological order.
    pub observations: Vec<WindowObservation>,
}

/// The sliding-window plan shared by the snapshot and live evaluation paths:
/// `(start, end)` year bounds plus the matching sweep axis.
fn window_plan(from_year: i32, to_year: i32, window_years: i32) -> (Vec<(i32, i32)>, WindowAxis) {
    let window_years = window_years.max(1);
    let mut bounds = Vec::new();
    let mut axis = WindowAxis::new();
    let mut start = from_year;
    while start <= to_year {
        let end = (start + window_years - 1).min(to_year);
        bounds.push((start, end));
        axis = axis.window(DateWindow::years(start, end));
        start += 1;
    }
    (bounds, axis)
}

/// Folds per-window SAI lists into the observation series — the shared tail of
/// both evaluation paths, so a live re-evaluation is the same computation as a
/// cold run by construction.
fn series_from(bounds: &[(i32, i32)], lists: &[SaiList], scenario: &str) -> MonitoringSeries {
    let generator = WeightGenerator::new();
    let mut observations = Vec::new();
    for (&(start, end), sai) in bounds.iter().zip(lists) {
        let entries = sai.scenario_entries(scenario);
        let posts = entries.iter().map(|e| e.posts).sum();
        let scenario_sai = entries.iter().map(|e| e.sai).sum();
        let shares = sai.vector_shares(scenario);
        let dominant = if posts == 0 {
            None
        } else {
            shares
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(v, _)| *v)
        };
        observations.push(WindowObservation {
            from_year: start,
            to_year: end,
            posts,
            scenario_sai,
            vector_shares: shares,
            dominant,
            table: generator.insider_table(sai, scenario),
        });
    }
    MonitoringSeries {
        scenario: scenario.to_string(),
        observations,
    }
}

impl MonitoringSeries {
    /// Runs the PSP analysis for `scenario` over consecutive sliding windows of
    /// `window_years` years, starting each window one year after the previous one,
    /// covering `from_year..=to_year`.
    #[must_use]
    pub fn run(
        corpus: &Corpus,
        db: &KeywordDatabase,
        base_config: &PspConfig,
        scenario: &str,
        from_year: i32,
        to_year: i32,
        window_years: i32,
    ) -> Self {
        // One throwaway core for the whole series: the borrowed corpus is
        // indexed and the text-mining signals are computed once, then every
        // window is answered through one prefix-summed sweep plan.
        let (bounds, axis) = window_plan(from_year, to_year, window_years);
        let lists = crate::engine::sai_windows_once(corpus, db, base_config, &axis);
        series_from(&bounds, &lists, scenario)
    }

    /// Runs the windowed analysis on an already-built engine —
    /// the entry point warm callers share: [`LiveMonitor::series`] runs it
    /// on its streaming engine, and the service's monitor subscriptions run
    /// it on the snapshot published by each ingest, so a subscription delta
    /// is by construction the same computation as a cold
    /// [`run`](Self::run) over the same corpus (bit-identical; pinned in
    /// `tests/service.rs`).
    #[must_use]
    pub fn run_on<E: SaiScorer + ?Sized>(
        engine: &E,
        db: &KeywordDatabase,
        base_config: &PspConfig,
        scenario: &str,
        from_year: i32,
        to_year: i32,
        window_years: i32,
    ) -> Self {
        let (bounds, axis) = window_plan(from_year, to_year, window_years);
        series_from(
            &bounds,
            &engine.sai_windows(db, base_config, &axis),
            scenario,
        )
    }

    /// The observations with evidence (non-zero posts).
    #[must_use]
    pub fn active_observations(&self) -> Vec<&WindowObservation> {
        self.observations.iter().filter(|o| o.posts > 0).collect()
    }

    /// The first window (by start year) in which the dominant vector differs from
    /// the dominant vector of the first active window — the year PSP would have
    /// flagged the trend inversion.
    #[must_use]
    pub fn inversion_year(&self) -> Option<i32> {
        let active = self.active_observations();
        let baseline = active.first()?.dominant?;
        for observation in &active {
            if let Some(dominant) = observation.dominant {
                if dominant != baseline {
                    return Some(observation.from_year);
                }
            }
        }
        None
    }

    /// Alerts for every pair of consecutive windows whose scenario SAI moved
    /// by more than `threshold` (relative; clamped to be non-negative).
    ///
    /// A window is *rising* when its SAI exceeds the previous window's by more
    /// than the threshold share — including any growth from an empty previous
    /// window — and *falling* symmetrically.  Two empty windows never alert.
    /// `threshold = 0.25` means "changed by more than 25%".
    #[must_use]
    pub fn sai_alerts(&self, threshold: f64) -> Vec<SaiAlert> {
        let threshold = threshold.max(0.0);
        let mut alerts = Vec::new();
        for pair in self.observations.windows(2) {
            let (previous, current) = (&pair[0], &pair[1]);
            let direction = if current.scenario_sai > previous.scenario_sai * (1.0 + threshold) {
                Some(AlertDirection::Rising)
            } else if current.scenario_sai < previous.scenario_sai * (1.0 - threshold) {
                Some(AlertDirection::Falling)
            } else {
                None
            };
            if let Some(direction) = direction {
                alerts.push(SaiAlert {
                    from_year: current.from_year,
                    previous_sai: previous.scenario_sai,
                    current_sai: current.scenario_sai,
                    direction,
                });
            }
        }
        alerts
    }
}

/// A continuously running monitor: one warm streaming engine that interleaves
/// post ingestion with sliding-window re-evaluation.
///
/// This is the paper's continuous-monitoring workflow (Fig. 9/12) as a serving
/// loop: as new social-media posts arrive, [`ingest`](Self::ingest) absorbs
/// them in amortised O(batch) — the inverted index is extended in place and
/// only the new posts ever pay the text-mining pipeline — and
/// [`series`](Self::series) re-runs the windowed analysis on the warm engine.
/// The produced series is bit-identical to a cold [`MonitoringSeries::run`]
/// over the same grown corpus (property-tested), without the full-rebuild
/// cost.
#[derive(Debug)]
pub struct LiveMonitor {
    engine: LiveEngine,
    db: KeywordDatabase,
    base_config: PspConfig,
    scenario: String,
    window_years: i32,
}

impl LiveMonitor {
    /// Creates a monitor over an initial corpus (which may be empty).
    #[must_use]
    pub fn new(
        corpus: Corpus,
        db: KeywordDatabase,
        base_config: PspConfig,
        scenario: &str,
        window_years: i32,
    ) -> Self {
        Self {
            engine: LiveEngine::new(corpus),
            db,
            base_config,
            scenario: scenario.to_string(),
            window_years,
        }
    }

    /// Ingests a batch of posts into the engine (amortised O(batch); see
    /// [`LiveEngine::ingest`]).  Returns an [`IngestReceipt`] stamping the
    /// appended count with the engine generation that publishes the batch.
    pub fn ingest(&mut self, batch: impl IntoIterator<Item = Post>) -> IngestReceipt {
        self.engine.ingest(batch)
    }

    /// Re-evaluates the sliding-window series over everything ingested so far,
    /// on the warm engine — through the sweep plan, which stays cached across
    /// re-evaluations and across ingests: the first re-evaluation after a
    /// batch extends the plan with the batch's posts instead of rebuilding
    /// it.
    #[must_use]
    pub fn series(&self, from_year: i32, to_year: i32) -> MonitoringSeries {
        MonitoringSeries::run_on(
            &self.engine,
            &self.db,
            &self.base_config,
            &self.scenario,
            from_year,
            to_year,
            self.window_years,
        )
    }

    /// The underlying engine (corpus, index, generation counter).
    #[must_use]
    pub fn engine(&self) -> &LiveEngine {
        &self.engine
    }

    /// Number of posts ingested so far.
    #[must_use]
    pub fn post_count(&self) -> usize {
        self.engine.post_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialsim::engagement::Engagement;
    use socialsim::post::{Region, TargetApplication};
    use socialsim::scenario;
    use socialsim::time::SimDate;
    use socialsim::user::User;

    fn series(window_years: i32) -> MonitoringSeries {
        MonitoringSeries::run(
            &scenario::passenger_car_europe(42),
            &KeywordDatabase::passenger_car_seed(),
            &PspConfig::passenger_car_europe(),
            "ecm-reprogramming",
            2015,
            2023,
            window_years,
        )
    }

    #[test]
    fn one_observation_per_start_year() {
        let s = series(2);
        assert_eq!(s.observations.len(), 9);
        assert_eq!(s.observations[0].from_year, 2015);
        assert_eq!(s.observations[8].from_year, 2023);
        assert_eq!(s.observations[8].to_year, 2023, "last window is clamped");
    }

    #[test]
    fn early_windows_are_physical_late_windows_are_local() {
        let s = series(2);
        let first = s.observations.first().unwrap();
        let last = s.observations.last().unwrap();
        assert_eq!(first.dominant, Some(AttackVector::Physical));
        assert_eq!(last.dominant, Some(AttackVector::Local));
    }

    #[test]
    fn inversion_year_matches_the_encoded_trend() {
        let s = series(1);
        let year = s.inversion_year().expect("the scene inverts");
        assert!(
            (2020..=2022).contains(&year),
            "inversion detected at {year}, expected around 2021"
        );
    }

    #[test]
    fn windows_without_evidence_have_no_dominant_vector() {
        let s = MonitoringSeries::run(
            &scenario::passenger_car_europe(42),
            &KeywordDatabase::passenger_car_seed(),
            &PspConfig::passenger_car_europe(),
            "ecm-reprogramming",
            2010,
            2012,
            1,
        );
        assert!(s.active_observations().is_empty());
        assert!(s.inversion_year().is_none());
        assert!(s.observations.iter().all(|o| o.dominant.is_none()));
    }

    #[test]
    fn dominant_series_is_chronological() {
        let s = series(1);
        let years: Vec<i32> = s.observations.iter().map(|o| o.from_year).collect();
        let mut sorted = years.clone();
        sorted.sort_unstable();
        assert_eq!(years, sorted);
    }

    #[test]
    fn window_length_is_clamped_to_one_year() {
        let s = series(0);
        assert_eq!(s.observations.len(), 9);
        assert!(s.observations.iter().all(|o| o.from_year == o.to_year));
    }

    #[test]
    fn live_monitor_series_matches_a_cold_run_after_chunked_ingestion() {
        let corpus = scenario::passenger_car_europe(42);
        let posts = corpus.clone().into_posts();
        let mut monitor = LiveMonitor::new(
            Corpus::new(),
            KeywordDatabase::passenger_car_seed(),
            PspConfig::passenger_car_europe(),
            "ecm-reprogramming",
            2,
        );
        for chunk in posts.chunks(97) {
            monitor.ingest(chunk.to_vec());
        }
        // Ingest order == original corpus order, so the warm series is
        // bit-identical to the one-shot run on the same posts.
        assert_eq!(monitor.series(2015, 2023), series(2));
    }

    #[test]
    fn live_monitor_detects_the_inversion_as_posts_stream_in() {
        let corpus = scenario::passenger_car_europe(42);
        let mut by_year: std::collections::BTreeMap<i32, Vec<_>> =
            std::collections::BTreeMap::new();
        for post in corpus.iter() {
            by_year
                .entry(post.date().year())
                .or_default()
                .push(post.clone());
        }
        let mut monitor = LiveMonitor::new(
            Corpus::new(),
            KeywordDatabase::passenger_car_seed(),
            PspConfig::passenger_car_europe(),
            "ecm-reprogramming",
            1,
        );
        let mut detected_at_ingest_year = None;
        for (year, batch) in by_year {
            monitor.ingest(batch);
            if detected_at_ingest_year.is_none() {
                if let Some(inversion) = monitor.series(2015, year).inversion_year() {
                    detected_at_ingest_year = Some((year, inversion));
                }
            }
        }
        let (seen_at, inversion) = detected_at_ingest_year.expect("the scene inverts");
        assert!(
            (2020..=2022).contains(&inversion),
            "inversion at {inversion}, detected while ingesting {seen_at}"
        );
        // Detection happened the year the evidence arrived, not later.
        assert!(seen_at >= inversion);
    }

    /// A Europe/excavator post mentioning the DPF-tampering scenario, for
    /// handcrafting SAI bursts year by year.
    fn dpf_post(id: u64, year: i32, text: &str) -> Post {
        Post::new(
            id,
            User::new("alert_user", 200, 36),
            text,
            vec![],
            SimDate::new(year, 6, 15),
            Region::Europe,
            TargetApplication::Excavator,
            Engagement::new(2_000, 60, 12, 6),
        )
    }

    /// One quiet year, one burst year, one quiet year — the SAI mass rises
    /// then falls across consecutive windows.
    fn burst_corpus() -> Corpus {
        let mut posts = vec![dpf_post(1, 2018, "thinking about a #dpfdelete")];
        for i in 0..12 {
            posts.push(dpf_post(
                100 + i,
                2019,
                "#dpfdelete kit for sale 360 EUR installs fast",
            ));
        }
        posts.push(dpf_post(900, 2020, "kept one #dpfdelete running"));
        Corpus::from_posts(posts)
    }

    #[test]
    fn rising_and_falling_sai_raise_alerts_across_consecutive_windows() {
        let monitor = LiveMonitor::new(
            burst_corpus(),
            KeywordDatabase::excavator_seed(),
            PspConfig::excavator_europe(),
            "dpf-tampering",
            1,
        );
        let alerts = monitor.series(2018, 2020).sai_alerts(0.5);
        assert_eq!(alerts.len(), 2, "one rising and one falling: {alerts:?}");
        assert_eq!(alerts[0].from_year, 2019);
        assert_eq!(alerts[0].direction, AlertDirection::Rising);
        assert!(alerts[0].current_sai > alerts[0].previous_sai * 1.5);
        assert_eq!(alerts[1].from_year, 2020);
        assert_eq!(alerts[1].direction, AlertDirection::Falling);
        assert!(alerts[1].current_sai < alerts[1].previous_sai * 0.5);
    }

    #[test]
    fn growth_from_an_empty_window_is_a_rising_alert() {
        let posts: Vec<Post> = (0..5)
            .map(|i| dpf_post(i, 2020, "#dpfdelete day"))
            .collect();
        let monitor = LiveMonitor::new(
            Corpus::from_posts(posts),
            KeywordDatabase::excavator_seed(),
            PspConfig::excavator_europe(),
            "dpf-tampering",
            1,
        );
        let alerts = monitor.series(2019, 2020).sai_alerts(0.25);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].direction, AlertDirection::Rising);
        assert_eq!(alerts[0].previous_sai, 0.0);
        assert!(alerts[0].current_sai > 0.0);
        // Two consecutive empty windows never alert.
        assert!(monitor.series(2015, 2018).sai_alerts(0.25).is_empty());
    }

    #[test]
    fn alerts_respect_the_threshold_and_clamp_negative_ones() {
        let monitor = LiveMonitor::new(
            burst_corpus(),
            KeywordDatabase::excavator_seed(),
            PspConfig::excavator_europe(),
            "dpf-tampering",
            1,
        );
        // A huge threshold silences the falling alert (and a rising alert
        // needs more than a 100x jump).
        let alerts = monitor.series(2018, 2020).sai_alerts(99.0);
        assert!(alerts.iter().all(|a| a.direction == AlertDirection::Rising));
        // Negative thresholds clamp to zero: any strict change alerts.
        let strict = monitor.series(2018, 2020).sai_alerts(-1.0);
        assert_eq!(strict.len(), 2);
    }

    /// Two years with the *same* posts (and therefore bit-identical SAI):
    /// consecutive equal windows must never alert, even at threshold zero.
    fn steady_corpus() -> Corpus {
        let mut posts = Vec::new();
        for (i, year) in [(0_u64, 2019), (1, 2020)] {
            for j in 0..4 {
                posts.push(dpf_post(
                    i * 100 + j,
                    year,
                    "#dpfdelete kit 360 EUR same every year",
                ));
            }
        }
        Corpus::from_posts(posts)
    }

    #[test]
    fn exactly_equal_consecutive_sai_never_alerts() {
        let monitor = LiveMonitor::new(
            steady_corpus(),
            KeywordDatabase::excavator_seed(),
            PspConfig::excavator_europe(),
            "dpf-tampering",
            1,
        );
        let series = monitor.series(2019, 2020);
        let sai: Vec<f64> = series.observations.iter().map(|o| o.scenario_sai).collect();
        assert_eq!(sai[0], sai[1], "the two years carry identical evidence");
        assert!(sai[0] > 0.0);
        // Both comparisons are strict, so equality is quiet at any threshold —
        // including zero, where any genuine movement would alert.
        for threshold in [0.0, 0.25, 5.0] {
            assert!(
                series.sai_alerts(threshold).is_empty(),
                "threshold {threshold}"
            );
        }
    }

    #[test]
    fn single_window_series_has_no_consecutive_pairs_to_alert_on() {
        let monitor = LiveMonitor::new(
            burst_corpus(),
            KeywordDatabase::excavator_seed(),
            PspConfig::excavator_europe(),
            "dpf-tampering",
            1,
        );
        let series = monitor.series(2019, 2019);
        assert_eq!(series.observations.len(), 1);
        assert!(series.sai_alerts(0.0).is_empty());
    }

    #[test]
    fn empty_windows_stay_nan_free_and_quiet() {
        // A span with no evidence at all: every observation must report an
        // exact 0.0 (never NaN — downstream threshold comparisons would
        // silently go quiet on NaN), and no alert may fire.
        let monitor = LiveMonitor::new(
            burst_corpus(),
            KeywordDatabase::excavator_seed(),
            PspConfig::excavator_europe(),
            "dpf-tampering",
            1,
        );
        let series = monitor.series(2010, 2015);
        assert_eq!(series.observations.len(), 6);
        for observation in &series.observations {
            assert_eq!(observation.scenario_sai, 0.0);
            assert!(observation.scenario_sai.is_finite());
            assert!(observation
                .vector_shares
                .iter()
                .all(|(_, share)| share.is_finite()));
        }
        assert!(series.sai_alerts(0.0).is_empty());
    }

    #[test]
    fn live_alerts_match_cold_series_alerts_after_ingest() {
        let posts = burst_corpus().into_posts();
        let mut monitor = LiveMonitor::new(
            Corpus::new(),
            KeywordDatabase::excavator_seed(),
            PspConfig::excavator_europe(),
            "dpf-tampering",
            1,
        );
        for chunk in posts.chunks(3) {
            monitor.ingest(chunk.to_vec());
        }
        let cold = MonitoringSeries::run(
            &burst_corpus(),
            &KeywordDatabase::excavator_seed(),
            &PspConfig::excavator_europe(),
            "dpf-tampering",
            2018,
            2020,
            1,
        );
        assert_eq!(
            monitor.series(2018, 2020).sai_alerts(0.5),
            cold.sai_alerts(0.5)
        );
        assert_eq!(monitor.series(2018, 2020), cold);
    }

    #[test]
    fn live_monitor_on_an_empty_corpus_reports_no_evidence() {
        let monitor = LiveMonitor::new(
            Corpus::new(),
            KeywordDatabase::passenger_car_seed(),
            PspConfig::passenger_car_europe(),
            "ecm-reprogramming",
            1,
        );
        let s = monitor.series(2015, 2020);
        assert_eq!(s.observations.len(), 6);
        assert!(s.active_observations().is_empty());
        assert_eq!(monitor.post_count(), 0);
        assert_eq!(monitor.scenario, "ecm-reprogramming");
    }
}
