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
//! * every (scenario, configuration) row rides the prefix-summed sweep
//!   plane, so the window axis costs a binary search and a short fold per
//!   window (see [`super::sweep`]);
//! * rows sharing a (database, scene) pair — weight ablations, window grids
//!   — resolve against ONE sweep plan, kept warm by the engine's bounded
//!   keyed `PlanCache`, which holds the plans of a scenario rotation too;
//! * keyword profiles fan out over worker threads via `rayon`,
//!   exactly as in the underlying sweep path.
//!
//! Results stream to the caller in deterministic [`CellId`] order
//! (scenario-major, then configuration, then window), and every cell is
//! **bit-identical** to the nested `sai_windows` / per-window `sai_list` /
//! `compute_naive` equivalents — float folds keep their ascending-post-id
//! order all the way through the sweep plan.

use crate::config::PspConfig;
use crate::keyword_db::KeywordDatabase;
use crate::sai::SaiList;
use serde::{Deserialize, Serialize};
use socialsim::time::DateWindow;

use super::{SaiScorer, WindowAxis};

/// The address of one cell in a [`MatrixSpec`] cross-product: indices into
/// the spec's scenario, configuration and window axes, in declaration order.
///
/// The derived ordering (scenario-major, then configuration, then window) is
/// exactly the order cells stream out of
/// [`SaiScorer::sai_matrix_stream_until`](super::SaiScorer::sai_matrix_stream_until).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
/// * **Windows** optionally fix a shared analysis-window grid, given as a
///   [`WindowAxis`] ([`window_axis`](MatrixSpec::window_axis)).  A non-empty
///   grid *replaces* each configuration's own window (mirroring
///   [`SaiScorer::sai_windows`](super::SaiScorer::sai_windows));
///   an empty grid means one cell per (scenario, configuration), evaluated
///   under the configuration's own window — so a 1×1 matrix with no grid is
///   exactly one `sai_list` call.
///
/// ```
/// use psp::config::{PspConfig, SaiWeights};
/// use psp::engine::{LiveEngine, MatrixSpec, SaiScorer, WindowAxis};
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
///     .window_axis(&WindowAxis::new().full_history().window(DateWindow::years(2021, 2023)));
/// let results = engine.sai_matrix(&spec);
/// assert_eq!(results.len(), 4); // 1 scenario × 2 configs × 2 windows
/// ```
#[derive(Debug, Default)]
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

/// The resolved cells of one matrix run, addressable by [`CellId`].
#[derive(Debug, PartialEq)]
pub struct MatrixResults {
    scenario_count: usize,
    config_count: usize,
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
            scenario_count: spec.scenario_count(),
            config_count: spec.config_count(),
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
        (id.scenario < self.scenario_count
            && id.config < self.config_count
            && id.window < self.window_count)
            .then(|| (id.scenario * self.config_count + id.config) * self.window_count + id.window)
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
        let configs = self.config_count;
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
        let configs = self.config_count;
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
/// Each (scenario, configuration) row rides the engine's own sweep path
/// ([`SaiScorer::sai_windows_until`]), which brings the rayon fan-out, the
/// prefix-summed window resolution and the keyed plan cache: rows sharing a
/// (database, scene) pair reuse one plan for as long as the matrix has no
/// more distinct pairs per scenario than the cache has slots.  A row's cells
/// reach `sink` as soon as the row resolves.
///
/// Every row's sweep checks `stop` before it touches a plan and again
/// inside; a stopped run returns `None`, and the rows finished before the
/// stop may already have reached `sink`.  An empty scenario or configuration
/// axis yields no cells and touches no plan.
pub(super) fn run_matrix<E: SaiScorer + ?Sized>(
    engine: &E,
    spec: &MatrixSpec,
    stop: &(dyn Fn() -> bool + Sync),
    sink: &mut dyn FnMut(CellId, SaiList),
) -> Option<()> {
    for (scenario, (_, db)) in spec.scenarios.iter().enumerate() {
        for (config, (_, base)) in spec.configs.iter().enumerate() {
            let row = engine.sai_windows_until(db, base, &spec.effective_windows(base), stop)?;
            for (window, sai) in row.into_iter().enumerate() {
                let id = CellId {
                    scenario,
                    config,
                    window,
                };
                sink(id, sai);
            }
        }
    }
    Some(())
}
