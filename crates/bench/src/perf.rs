//! Machine-readable perf reports and the committed-baseline comparison.
//!
//! The perf benches (`engine_scaling`, `engine_ingest`) write one
//! [`PerfReport`] per run to `target/perf/<bench>.json`.  A blessed copy of
//! each report is committed under `crates/bench/baselines/`, and the CI
//! `perf-smoke` job re-runs the benches at small sizes and fails the build
//! when a fresh run regresses more than a factor (default 2x) against the
//! committed numbers — see [`compare_with`] and the `perf_check` binary.
//!
//! Reports carry two kinds of rows:
//!
//! * **metrics** — absolute mean nanoseconds per measured path.  These are
//!   machine-dependent, so a baseline blessed on one machine does not bound a
//!   run on different hardware — CI skips them (`perf_check --ratios-only`)
//!   and they are enforced only for same-machine comparisons;
//! * **ratios** — dimensionless speedups (e.g. append-then-score vs
//!   rebuild-then-score).  Both sides of a ratio run on the same machine in
//!   the same process, so ratios transfer across hardware far better than
//!   absolute timings and are the primary regression signal.  They are not
//!   perfectly portable: a ratio whose fast side parallelises (rayon) scales
//!   with core count while the naive side does not, so baselines are blessed
//!   on a low-core machine — more cores only raise such ratios above the
//!   enforced floor.  The exception is a sub-millisecond fast side, where
//!   starting the fan-out's threads costs more than the work; such rows are
//!   measured as work ratios on one worker ([`work_speedup`]).
//!
//! Only rows present in *both* the baseline and the fresh report are compared,
//! which is what lets CI run the benches at reduced sizes against a baseline
//! recorded at full scale.
//!
//! To bless a new baseline after an intentional perf change:
//!
//! ```text
//! cargo bench --bench engine_scaling
//! cargo bench --bench engine_ingest
//! cp target/perf/engine_scaling.json crates/bench/baselines/
//! cp target/perf/engine_ingest.json crates/bench/baselines/
//! ```

use criterion::Criterion;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The mean nanoseconds the criterion shim measured for one bench id
/// (`group/name/size`), `NaN` when the row was not measured this run — the
/// shared results lookup of the perf benches.  (Shim-only API: real criterion
/// has no `results()`; see the ROADMAP porting note.)
#[must_use]
pub fn mean_ns(c: &Criterion, name: &str) -> f64 {
    c.results()
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.mean_ns)
        .unwrap_or(f64::NAN)
}

/// How long a [`work_speedup`] measurement keeps adding rounds.
const WORK_BUDGET: Duration = Duration::from_secs(2);

/// The fewest rounds a [`work_speedup`] measurement takes, however slow.
const MIN_WORK_ROUNDS: usize = 11;

/// The speedup of `fast` over `slow` as a ratio of *work*: the two closures
/// run in alternating timed batches of at least 5 ms, and the result is the
/// slow side's fastest batch over the fast side's fastest batch (time per
/// call).  Rounds continue until two seconds have passed and at least 11 are
/// done, so small sizes take over a hundred rounds and the slowest sizes the
/// minimum.
///
/// This is how the gated ratio rows whose fast side is a sub-millisecond
/// parallel fan-out are measured, and the benches call it on one rayon
/// worker (`rayon::with_thread_count(1, …)` in the shim; with real rayon, a
/// one-thread `ThreadPool::install`).  On a multi-core host such a call is
/// dominated by starting its worker threads, whose cost swings with host load,
/// so three independent samples of each side divided noise, not work.  One
/// worker removes the start-up cost.  Host interference only ever adds time,
/// and on a shared host it comes in spells that slow a memory-bound side more
/// than a compute-bound one, so a ratio of typical (mean or median) batches
/// moves with the spell a run lands in; the fastest of many alternating
/// batches is each side's undisturbed work.
pub fn work_speedup<A, B>(mut slow: impl FnMut() -> A, mut fast: impl FnMut() -> B) -> f64 {
    let slow_iters = batch_iters(&mut slow);
    let fast_iters = batch_iters(&mut fast);
    let start = Instant::now();
    let (mut slow_best, mut fast_best) = (f64::INFINITY, f64::INFINITY);
    let mut rounds = 0;
    while rounds < MIN_WORK_ROUNDS || start.elapsed() < WORK_BUDGET {
        slow_best = slow_best.min(batch_ns(&mut slow, slow_iters));
        fast_best = fast_best.min(batch_ns(&mut fast, fast_iters));
        rounds += 1;
    }
    slow_best / fast_best
}

/// Calls of `routine` per timed batch: the smallest power of two whose batch
/// takes at least 5 ms (the warm-up of a [`work_speedup`] side).
fn batch_iters<R>(routine: &mut impl FnMut() -> R) -> u64 {
    let mut iters = 1_u64;
    while batch_ns(routine, iters) * (iters as f64) < 5e6 && iters < 1 << 20 {
        iters *= 2;
    }
    iters
}

/// Nanoseconds per call of `routine` over one batch of `iters` calls.
fn batch_ns<R>(routine: &mut impl FnMut() -> R, iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(routine());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// One bench run's machine-readable results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// The bench that produced the report (`engine_scaling`, `engine_ingest`).
    pub bench: String,
    /// Absolute timings: `(row name, mean nanoseconds)`.
    pub metrics: Vec<(String, f64)>,
    /// Dimensionless speedups: `(row name, ratio)`.  Larger is better.
    pub ratios: Vec<(String, f64)>,
}

impl PerfReport {
    /// An empty report for one bench.
    #[must_use]
    pub fn new(bench: &str) -> Self {
        Self {
            bench: bench.to_string(),
            metrics: Vec::new(),
            ratios: Vec::new(),
        }
    }

    /// Records an absolute timing row.  Non-finite values (a bench that did
    /// not run at this size) are silently skipped so reduced-size runs produce
    /// valid, smaller reports.
    pub fn push_metric(&mut self, name: impl Into<String>, mean_ns: f64) {
        if mean_ns.is_finite() {
            self.metrics.push((name.into(), mean_ns));
        }
    }

    /// Records a speedup row; non-finite ratios are skipped.
    pub fn push_ratio(&mut self, name: impl Into<String>, ratio: f64) {
        if ratio.is_finite() {
            self.ratios.push((name.into(), ratio));
        }
    }

    /// The absolute timing row with this name, if present.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The speedup row with this name, if present.
    #[must_use]
    pub fn ratio(&self, name: &str) -> Option<f64> {
        self.ratios.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Whether any row of this report (metric or ratio) ends in the same
    /// `/<size>` suffix as `name` — i.e. the run covered that size.
    fn ran_size_of(&self, name: &str) -> bool {
        name.rsplit_once('/').is_some_and(|(_, size)| {
            let suffix = format!("/{size}");
            self.metrics
                .iter()
                .chain(&self.ratios)
                .any(|(row, _)| row.ends_with(&suffix))
        })
    }

    /// Serialises the report as pretty JSON to `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Returns a description when serialisation or any filesystem step fails.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|err| format!("serialise perf report: {err:?}"))?;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|err| format!("create {}: {err}", parent.display()))?;
        }
        std::fs::write(path, json + "\n").map_err(|err| format!("write {}: {err}", path.display()))
    }

    /// Loads a report from JSON.
    ///
    /// # Errors
    ///
    /// Returns a description when the file is unreadable or malformed.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|err| format!("read {}: {err}", path.display()))?;
        serde_json::from_str(&text).map_err(|err| format!("parse {}: {err:?}", path.display()))
    }
}

/// Where a bench writes its fresh report: `target/perf/<bench>.json`,
/// honouring `CARGO_TARGET_DIR`.
#[must_use]
pub fn fresh_report_path(bench: &str) -> PathBuf {
    let target_dir = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    target_dir.join("perf").join(format!("{bench}.json"))
}

/// The committed baseline for a bench: `crates/bench/baselines/<bench>.json`.
#[must_use]
pub fn baseline_path(bench: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("baselines")
        .join(format!("{bench}.json"))
}

/// Bench sizes from the `PSP_BENCH_SIZES` environment variable (comma-separated
/// post counts), falling back to `default`.  This is how the CI perf-smoke job
/// runs the scaling benches at reduced sizes.
#[must_use]
pub fn sizes_from_env(default: &[usize]) -> Vec<usize> {
    parse_sizes(std::env::var("PSP_BENCH_SIZES").ok().as_deref(), default)
}

/// Parses a `PSP_BENCH_SIZES`-style override (`"1000,10000"`), falling back to
/// `default` when the value is absent or yields no positive sizes.
#[must_use]
pub fn parse_sizes(raw: Option<&str>, default: &[usize]) -> Vec<usize> {
    let sizes: Vec<usize> = raw
        .unwrap_or("")
        .split(',')
        .filter_map(|part| part.trim().parse().ok())
        .filter(|n| *n > 0)
        .collect();
    if sizes.is_empty() {
        default.to_vec()
    } else {
        sizes
    }
}

/// One comparison row that exceeded the allowed regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The metric/ratio name.
    pub name: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// The value measured by the fresh run.
    pub fresh: f64,
    /// The threshold the fresh value violated.
    pub limit: f64,
    /// Whether the row is a speedup ratio (fresh must stay *above* the limit)
    /// rather than an absolute timing (fresh must stay *below* it).
    pub is_ratio: bool,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ratio {
            write!(
                f,
                "{}: speedup {:.2}x fell below {:.2}x (baseline {:.2}x)",
                self.name, self.fresh, self.limit, self.baseline
            )
        } else {
            write!(
                f,
                "{}: {:.0} ns exceeded {:.0} ns (baseline {:.0} ns)",
                self.name, self.fresh, self.limit, self.baseline
            )
        }
    }
}

/// One row present in both the baseline and the fresh report — recorded for
/// every checked row (not only regressions), so a passing perf-smoke run
/// still logs the measured-vs-baseline trend.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedRow {
    /// The metric/ratio name.
    pub name: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// The value measured by the fresh run.
    pub fresh: f64,
    /// Whether the row is a speedup ratio (larger is better) rather than an
    /// absolute timing (smaller is better).
    pub is_ratio: bool,
}

impl CheckedRow {
    /// Fresh-over-baseline for ratios, baseline-over-fresh for timings — so
    /// the printed factor reads "≥ 1.0 is at least as good as the baseline"
    /// either way.
    #[must_use]
    pub fn vs_baseline(&self) -> f64 {
        if self.is_ratio {
            self.fresh / self.baseline
        } else {
            self.baseline / self.fresh
        }
    }
}

impl fmt::Display for CheckedRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ratio {
            write!(
                f,
                "{}: speedup {:.2}x vs baseline {:.2}x ({:.2}x of baseline)",
                self.name,
                self.fresh,
                self.baseline,
                self.vs_baseline()
            )
        } else {
            write!(
                f,
                "{}: {:.0} ns vs baseline {:.0} ns ({:.2}x of baseline)",
                self.name,
                self.fresh,
                self.baseline,
                self.vs_baseline()
            )
        }
    }
}

/// The outcome of comparing a fresh report against a committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Number of rows present in both reports and therefore checked.
    pub checked: usize,
    /// Every checked row with both its values — regressed or not.
    pub rows: Vec<CheckedRow>,
    /// The rows that regressed beyond the allowed factor.
    pub regressions: Vec<Regression>,
    /// Baseline ratio rows the fresh report lacks although it ran their size
    /// (it has another row ending in the same `/<size>`): a bench that
    /// stopped emitting a gated row.
    pub missing: Vec<String>,
}

impl Comparison {
    /// Whether every checked row stayed within the allowed regression and no
    /// gated ratio row of a size the fresh run covered went missing.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// Compares a fresh report against the committed baseline.
///
/// Every row present in **both** reports is checked.  A baseline row the
/// fresh report lacks is ignored when the fresh run skipped its size (the
/// 100k sizes CI skips); a missing *ratio* row whose size the fresh run did
/// cover (some other fresh row ends in the same `/<size>`) is reported in
/// [`Comparison::missing`] and fails the comparison.  Checked rows:
///
/// * absolute metrics regress when `fresh > baseline * max_regression` —
///   only checked when `include_metrics` is true, because absolute
///   nanoseconds are machine-dependent and a baseline blessed on one machine
///   does not bound a fresh run on different hardware;
/// * speedup ratios regress when `fresh < baseline / max_regression` — both
///   sides of a ratio run on the same machine in the same process, so these
///   transfer across hardware (CI passes `include_metrics = false` via
///   `perf_check --ratios-only`).
#[must_use]
pub fn compare_with(
    baseline: &PerfReport,
    fresh: &PerfReport,
    max_regression: f64,
    include_metrics: bool,
) -> Comparison {
    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    if include_metrics {
        for (name, base) in &baseline.metrics {
            if let Some(measured) = fresh.metric(name) {
                rows.push(CheckedRow {
                    name: name.clone(),
                    baseline: *base,
                    fresh: measured,
                    is_ratio: false,
                });
                let limit = base * max_regression;
                if measured > limit {
                    regressions.push(Regression {
                        name: name.clone(),
                        baseline: *base,
                        fresh: measured,
                        limit,
                        is_ratio: false,
                    });
                }
            }
        }
    }
    let mut missing = Vec::new();
    for (name, base) in &baseline.ratios {
        let Some(measured) = fresh.ratio(name) else {
            if fresh.ran_size_of(name) {
                missing.push(name.clone());
            }
            continue;
        };
        rows.push(CheckedRow {
            name: name.clone(),
            baseline: *base,
            fresh: measured,
            is_ratio: true,
        });
        let limit = base / max_regression;
        if measured < limit {
            regressions.push(Regression {
                name: name.clone(),
                baseline: *base,
                fresh: measured,
                limit,
                is_ratio: true,
            });
        }
    }
    Comparison {
        checked: rows.len(),
        rows,
        regressions,
        missing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(metrics: &[(&str, f64)], ratios: &[(&str, f64)]) -> PerfReport {
        let mut r = PerfReport::new("test");
        for (name, v) in metrics {
            r.push_metric(*name, *v);
        }
        for (name, v) in ratios {
            r.push_ratio(*name, *v);
        }
        r
    }

    #[test]
    fn within_tolerance_passes() {
        let baseline = report(&[("a/100", 1000.0)], &[("speed/100", 10.0)]);
        let fresh = report(&[("a/100", 1900.0)], &[("speed/100", 5.5)]);
        let outcome = compare_with(&baseline, &fresh, 2.0, true);
        assert_eq!(outcome.checked, 2);
        assert!(outcome.passed());
    }

    #[test]
    fn metric_regression_is_flagged() {
        let baseline = report(&[("a/100", 1000.0)], &[]);
        let fresh = report(&[("a/100", 2100.0)], &[]);
        let outcome = compare_with(&baseline, &fresh, 2.0, true);
        assert_eq!(outcome.regressions.len(), 1);
        let regression = &outcome.regressions[0];
        assert!(!regression.is_ratio);
        assert_eq!(regression.limit, 2000.0);
        assert!(regression.to_string().contains("a/100"));
    }

    #[test]
    fn ratio_collapse_is_flagged() {
        let baseline = report(&[], &[("speed/100", 10.0)]);
        let fresh = report(&[], &[("speed/100", 4.0)]);
        let outcome = compare_with(&baseline, &fresh, 2.0, true);
        assert_eq!(outcome.regressions.len(), 1);
        let regression = &outcome.regressions[0];
        assert!(regression.is_ratio);
        assert_eq!(regression.limit, 5.0);
        assert!(regression.to_string().contains("fell below"));
    }

    #[test]
    fn every_checked_row_is_recorded_even_when_passing() {
        let baseline = report(&[("a/100", 1000.0)], &[("speed/100", 10.0)]);
        let fresh = report(&[("a/100", 500.0)], &[("speed/100", 12.0)]);
        let outcome = compare_with(&baseline, &fresh, 2.0, true);
        assert!(outcome.passed());
        assert_eq!(outcome.rows.len(), 2);
        assert_eq!(outcome.checked, outcome.rows.len());
        // Both rows improved: the normalised factor reads >= 1 either way.
        assert_eq!(outcome.rows[0].vs_baseline(), 2.0); // 1000 ns -> 500 ns
        assert_eq!(outcome.rows[1].vs_baseline(), 1.2); // 10x -> 12x
        assert!(outcome.rows[0].to_string().contains("ns vs baseline"));
        assert!(outcome.rows[1].to_string().contains("speedup"));
    }

    #[test]
    fn ratios_only_rows_exclude_metrics() {
        let baseline = report(&[("a/100", 1000.0)], &[("speed/100", 10.0)]);
        let fresh = report(&[("a/100", 900.0)], &[("speed/100", 9.0)]);
        let outcome = compare_with(&baseline, &fresh, 2.0, false);
        assert_eq!(outcome.rows.len(), 1);
        assert!(outcome.rows[0].is_ratio);
    }

    #[test]
    fn rows_missing_from_the_fresh_run_are_skipped() {
        // The baseline was recorded at full scale; the fresh (CI) run only
        // covered the small sizes.
        let baseline = report(
            &[("a/1000", 10.0), ("a/100000", 9999.0)],
            &[("speed/100000", 50.0)],
        );
        let fresh = report(&[("a/1000", 11.0)], &[]);
        let outcome = compare_with(&baseline, &fresh, 2.0, true);
        assert_eq!(outcome.checked, 1);
        assert!(outcome.passed());
    }

    #[test]
    fn a_ratio_row_missing_at_a_size_the_fresh_run_covered_fails() {
        let baseline = report(
            &[],
            &[
                ("speed/10000", 10.0),
                ("other/10000", 5.0),
                ("speed/100000", 50.0),
            ],
        );
        // The fresh run covered 10000 (it has `other/10000`) but dropped
        // `speed/10000`; it skipped 100000 entirely.
        let fresh = report(&[], &[("other/10000", 5.0)]);
        let outcome = compare_with(&baseline, &fresh, 2.0, false);
        assert_eq!(outcome.checked, 1);
        assert!(outcome.regressions.is_empty());
        assert_eq!(outcome.missing, vec!["speed/10000".to_string()]);
        assert!(!outcome.passed());
        // A metric row of that size also proves the size ran.
        let fresh = report(&[("a/10000", 1.0)], &[("other/10000", 5.0)]);
        assert_eq!(
            compare_with(&baseline, &fresh, 2.0, false).missing,
            vec!["speed/10000".to_string()]
        );
    }

    #[test]
    fn non_finite_rows_are_never_recorded() {
        let mut r = PerfReport::new("test");
        r.push_metric("nan", f64::NAN);
        r.push_ratio("inf", f64::INFINITY);
        assert!(r.metrics.is_empty());
        assert!(r.ratios.is_empty());
    }

    #[test]
    fn reports_round_trip_through_json() {
        let original = report(&[("a/10", 1.5)], &[("s/10", 3.25)]);
        let json = serde_json::to_string(&original).unwrap();
        assert_eq!(serde_json::from_str::<PerfReport>(&json).unwrap(), original);
    }

    #[test]
    fn size_override_parsing() {
        assert_eq!(parse_sizes(None, &[10, 20]), vec![10, 20]);
        assert_eq!(parse_sizes(Some(""), &[10, 20]), vec![10, 20]);
        assert_eq!(parse_sizes(Some("garbage,-3,0"), &[10, 20]), vec![10, 20]);
        assert_eq!(
            parse_sizes(Some(" 1000 ,10000"), &[10, 20]),
            vec![1000, 10000]
        );
    }

    #[test]
    fn ratios_only_comparison_skips_metric_regressions() {
        let baseline = report(&[("a/100", 1000.0)], &[("speed/100", 10.0)]);
        // Metrics regressed 10x (a different machine), ratios held.
        let fresh = report(&[("a/100", 10_000.0)], &[("speed/100", 9.0)]);
        let outcome = compare_with(&baseline, &fresh, 2.0, false);
        assert_eq!(outcome.checked, 1);
        assert!(outcome.passed());
        assert!(!compare_with(&baseline, &fresh, 2.0, true).passed());
    }
}
