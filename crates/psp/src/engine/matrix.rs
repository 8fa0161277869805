//! The batch plane: one scheduler for (scenario × configuration × window)
//! cross-products.
//!
//! The paper's workflow is never "one scenario, one window": Figure-9
//! monitoring, PSP weight tuning and dynamic TARA all evaluate grids of
//! (keyword profile set, scene filter, weight configuration, time window)
//! over the same corpus.  A [`MatrixSpec`] names the full grid up front —
//! scenarios (keyword databases) × base configurations (scene filters and
//! weight sets) × an optional shared window grid — and
//! [`SaiScorer::sai_matrix`](super::SaiScorer::sai_matrix) resolves every
//! cell through one scheduler instead of hand-nested loops.
//!
//! The scheduler amortises shared work across the whole matrix:
//!
//! * cells sharing a (database, scene) pair — weight ablations, window grids
//!   — are scheduled **consecutively**, so they resolve against ONE sweep
//!   plan (see [`super::sweep`]); the bounded keyed `PlanCache` keeps the
//!   plans of a scenario rotation warm on top of that;
//! * within each (scenario, configuration) row the window axis rides the
//!   prefix-summed sweep plane;
//! * keyword profiles fan out over worker threads via `rayon`,
//!   exactly as in the underlying sweep path.
//!
//! Results stream to the caller in deterministic [`CellId`] order
//! (scenario-major, then configuration, then window), and every cell is
//! **bit-identical** to the nested `sai_windows` / `sai_lists` /
//! `compute_naive` equivalents — float folds keep their ascending-post-id
//! order all the way through the sweep plan.

use crate::config::PspConfig;
use crate::keyword_db::KeywordDatabase;
use crate::sai::SaiList;
use serde::{Deserialize, Serialize};
use socialsim::time::DateWindow;

use super::sweep::PlanKey;
use super::{SaiScorer, WindowAxis};

/// The address of one cell in a [`MatrixSpec`] cross-product: indices into
/// the spec's scenario, configuration and window axes, in declaration order.
///
/// The derived ordering (scenario-major, then configuration, then window) is
/// exactly the order cells stream out of
/// [`SaiScorer::sai_matrix_stream`](super::SaiScorer::sai_matrix_stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId {
    /// Index into the spec's scenarios (keyword databases).
    pub scenario: usize,
    /// Index into the spec's base configurations.
    pub config: usize,
    /// Index into the spec's window grid (`0` when the grid is empty and each
    /// configuration's own window applies).
    pub window: usize,
}

/// A batch request: the cross-product of scenarios (keyword databases) ×
/// base configurations × an optional shared window grid.
///
/// * **Scenarios** carry the keyword databases — one per threat scenario
///   family under assessment.
/// * **Configurations** carry the scene filters (region, application,
///   credibility rule) and SAI weight sets — a weight-ablation study is one
///   scenario × many configurations.
/// * **Windows** optionally fix a shared analysis-window grid.  A non-empty
///   grid *replaces* each configuration's own window (mirroring
///   [`SaiScorer::sai_windows`](super::SaiScorer::sai_windows));
///   an empty grid means one cell per (scenario, configuration), evaluated
///   under the configuration's own window — so a 1×1 matrix with no grid is
///   exactly one `sai_list` call.
///
/// ```
/// use psp::config::{PspConfig, SaiWeights};
/// use psp::engine::{LiveEngine, MatrixSpec, SaiScorer};
/// use psp::keyword_db::KeywordDatabase;
/// use socialsim::scenario;
/// use socialsim::time::DateWindow;
///
/// let engine = LiveEngine::new(scenario::excavator_europe(7));
/// let spec = MatrixSpec::new()
///     .scenario("excavator", KeywordDatabase::excavator_seed())
///     .config("balanced", PspConfig::excavator_europe())
///     .config(
///         "views-only",
///         PspConfig::excavator_europe().with_weights(SaiWeights::views_only()),
///     )
///     .full_history()
///     .window(DateWindow::years(2021, 2023));
/// let results = engine.sai_matrix(&spec);
/// assert_eq!(results.len(), 4); // 1 scenario × 2 configs × 2 windows
/// ```
#[derive(Debug, Clone, Default)]
pub struct MatrixSpec {
    scenarios: Vec<(String, KeywordDatabase)>,
    configs: Vec<(String, PspConfig)>,
    windows: Vec<Option<DateWindow>>,
}

impl MatrixSpec {
    /// An empty spec (no scenarios, no configurations, no window grid).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a scenario: a labelled keyword database.
    #[must_use]
    pub fn scenario(mut self, label: impl Into<String>, db: KeywordDatabase) -> Self {
        self.scenarios.push((label.into(), db));
        self
    }

    /// Adds a base configuration: a labelled scene filter + weight set.
    #[must_use]
    pub fn config(mut self, label: impl Into<String>, config: PspConfig) -> Self {
        self.configs.push((label.into(), config));
        self
    }

    /// Adds one analysis window to the shared grid.
    #[must_use]
    pub fn window(mut self, window: DateWindow) -> Self {
        self.windows.push(Some(window));
        self
    }

    /// Adds a full-history (unwindowed) entry to the shared grid.
    #[must_use]
    pub fn full_history(mut self) -> Self {
        self.windows.push(None);
        self
    }

    /// Adds a batch of analysis windows to the shared grid.
    #[must_use]
    pub fn windows(mut self, windows: &[DateWindow]) -> Self {
        self.windows.extend(windows.iter().copied().map(Some));
        self
    }

    /// Number of scenarios.
    #[must_use]
    pub fn scenario_count(&self) -> usize {
        self.scenarios.len()
    }

    /// Number of base configurations.
    #[must_use]
    pub fn config_count(&self) -> usize {
        self.configs.len()
    }

    /// Number of windows per (scenario, configuration) row: the grid length,
    /// or `1` when the grid is empty and each configuration's own window
    /// applies.
    #[must_use]
    pub fn window_count(&self) -> usize {
        if self.windows.is_empty() {
            1
        } else {
            self.windows.len()
        }
    }

    /// Total number of cells in the cross-product.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.scenario_count() * self.config_count() * self.window_count()
    }

    /// Every cell address, in the deterministic stream order (scenario-major,
    /// then configuration, then window).
    #[must_use]
    pub fn cell_ids(&self) -> Vec<CellId> {
        let mut ids = Vec::with_capacity(self.cell_count());
        for scenario in 0..self.scenario_count() {
            for config in 0..self.config_count() {
                for window in 0..self.window_count() {
                    ids.push(CellId {
                        scenario,
                        config,
                        window,
                    });
                }
            }
        }
        ids
    }

    /// Appends every entry of a [`WindowAxis`] to the shared grid.
    #[must_use]
    pub fn window_axis(mut self, axis: &WindowAxis) -> Self {
        self.windows.extend_from_slice(axis.as_options());
        self
    }

    /// The window axis one configuration's row resolves against: the shared
    /// grid if one was given, else the configuration's own window.
    fn effective_windows(&self, config: &PspConfig) -> WindowAxis {
        if self.windows.is_empty() {
            WindowAxis::from(vec![config.window])
        } else {
            WindowAxis::spans(&self.windows)
        }
    }
}

/// The resolved cells of one matrix run, addressable by [`CellId`] and
/// carrying the spec's labels for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixResults {
    scenario_labels: Vec<String>,
    config_labels: Vec<String>,
    window_count: usize,
    /// Dense cells in [`CellId`] order (scenario-major, then configuration,
    /// then window).
    cells: Vec<SaiList>,
}

impl MatrixResults {
    /// An empty result container shaped for `spec`, ready to absorb the
    /// streamed cells.
    pub(super) fn empty_for(spec: &MatrixSpec) -> Self {
        Self {
            scenario_labels: spec.scenarios.iter().map(|(l, _)| l.clone()).collect(),
            config_labels: spec.configs.iter().map(|(l, _)| l.clone()).collect(),
            window_count: spec.window_count(),
            cells: Vec::with_capacity(spec.cell_count()),
        }
    }

    /// Absorbs the next streamed cell.  Cells must arrive in [`CellId`]
    /// order — which [`run_matrix`] guarantees.
    pub(super) fn push(&mut self, id: CellId, sai: SaiList) {
        debug_assert_eq!(
            self.index_of(id),
            Some(self.cells.len()),
            "matrix cells must stream in CellId order"
        );
        self.cells.push(sai);
    }

    /// The dense index of a cell address, if it is in range.
    fn index_of(&self, id: CellId) -> Option<usize> {
        (id.scenario < self.scenario_labels.len()
            && id.config < self.config_labels.len()
            && id.window < self.window_count)
            .then(|| {
                (id.scenario * self.config_labels.len() + id.config) * self.window_count + id.window
            })
    }

    /// The cell at an address, if it exists.
    #[must_use]
    pub fn cell(&self, id: CellId) -> Option<&SaiList> {
        self.cells.get(self.index_of(id)?)
    }

    /// The cell at (scenario, configuration, window) indices, if it exists.
    #[must_use]
    pub fn get(&self, scenario: usize, config: usize, window: usize) -> Option<&SaiList> {
        self.cell(CellId {
            scenario,
            config,
            window,
        })
    }

    /// The label of a scenario axis entry.
    #[must_use]
    pub fn scenario_label(&self, scenario: usize) -> Option<&str> {
        self.scenario_labels.get(scenario).map(String::as_str)
    }

    /// The label of a configuration axis entry.
    #[must_use]
    pub fn config_label(&self, config: usize) -> Option<&str> {
        self.config_labels.get(config).map(String::as_str)
    }

    /// Number of windows per (scenario, configuration) row.
    #[must_use]
    pub fn window_count(&self) -> usize {
        self.window_count
    }

    /// Number of resolved cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the matrix resolved no cells at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over the cells in [`CellId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &SaiList)> {
        let configs = self.config_labels.len();
        let windows = self.window_count;
        self.cells.iter().enumerate().map(move |(i, sai)| {
            (
                CellId {
                    scenario: i / (configs * windows),
                    config: (i / windows) % configs,
                    window: i % windows,
                },
                sai,
            )
        })
    }

    /// Consumes the results into `(CellId, SaiList)` pairs in [`CellId`]
    /// order.
    #[must_use]
    pub fn into_cells(self) -> Vec<(CellId, SaiList)> {
        let configs = self.config_labels.len();
        let windows = self.window_count;
        self.cells
            .into_iter()
            .enumerate()
            .map(move |(i, sai)| {
                (
                    CellId {
                        scenario: i / (configs * windows),
                        config: (i / windows) % configs,
                        window: i % windows,
                    },
                    sai,
                )
            })
            .collect()
    }
}

/// Resolves every cell of `spec` against `engine`, streaming results to
/// `sink` in [`CellId`] order.
///
/// The scheduler's job is ordering, not computing: per scenario it groups the
/// configurations by their plan key ([`PlanKey`]) and schedules same-key
/// configurations consecutively, so every (database, scene) pair in the
/// matrix builds its sweep plan exactly once — structurally, independent of
/// the plan cache's capacity.  Each (scenario, configuration) row then rides
/// the engine's own sweep path ([`SaiScorer::sai_windows_until`]), which
/// brings the rayon fan-out and the prefix-summed window resolution.
///
/// Every row's sweep checks `stop` before it touches a plan and again
/// inside; a stopped run returns `None` without streaming the stopped
/// scenario's cells.  An empty scenario or configuration axis yields no
/// cells and touches no plan.
pub(super) fn run_matrix<E: SaiScorer + ?Sized>(
    engine: &E,
    spec: &MatrixSpec,
    stop: &(dyn Fn() -> bool + Sync),
    sink: &mut dyn FnMut(CellId, SaiList),
) -> Option<()> {
    if spec.scenarios.is_empty() || spec.configs.is_empty() {
        return Some(());
    }
    for (s, (_, db)) in spec.scenarios.iter().enumerate() {
        // Group configuration indices by plan key, preserving first-appearance
        // order, so configurations sharing a (database, scene) resolve
        // consecutively against one warm plan.
        let mut groups: Vec<(PlanKey, Vec<usize>)> = Vec::new();
        for (c, (_, config)) in spec.configs.iter().enumerate() {
            let key = PlanKey::of(config);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(c),
                None => groups.push((key, vec![c])),
            }
        }
        let mut rows: Vec<Option<Vec<SaiList>>> = (0..spec.configs.len()).map(|_| None).collect();
        for (_, members) in &groups {
            for &c in members {
                let config = &spec.configs[c].1;
                let axis = spec.effective_windows(config);
                rows[c] = Some(engine.sai_windows_until(db, config, &axis, stop)?);
            }
        }
        // Emit buffered rows in ascending (configuration, window) order.
        for (c, row) in rows.into_iter().enumerate() {
            let row = row.expect("every configuration was scheduled");
            for (w, sai) in row.into_iter().enumerate() {
                sink(
                    CellId {
                        scenario: s,
                        config: c,
                        window: w,
                    },
                    sai,
                );
            }
        }
    }
    Some(())
}
