//! The daemon under test, composed in-process the way
//! `tara_daemon --listen 127.0.0.1:0 --data-dir DIR` composes it, and the
//! requests the workloads send it.

use crate::trace::{maybe_span, Tracer};
use psp::config::{PspConfig, SaiWeights};
use psp::engine::{LiveEngine, MatrixSpec, WindowAxis};
use psp::keyword_db::KeywordDatabase;
use psp::service::durability::{DurableStore, RecoveryReport};
use psp::service::journal::FaultFs;
use psp::service::net::{NetConfig, NetStatus, SocketServer};
use psp::service::{MonitorSpec, ServiceRegistry, ServiceRequest, TaraService};
use socialsim::corpus::Corpus;
use socialsim::time::{DateWindow, SimDate};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The matrix scenario axis: every registered database.
pub const DATABASES: [&str; 2] = ["excavator", "passenger-car"];
/// The matrix configuration axis: every registered configuration (the
/// `engine_matrix` bench axes).
pub const CONFIGS: [&str; 4] = ["excavator", "views-only", "interactions-only", "filtered"];
/// Windows in a sweep, and per matrix (scenario, configuration) pair.
pub const WINDOWS: usize = 20;

pub fn database(name: &str) -> KeywordDatabase {
    match name {
        "passenger-car" => KeywordDatabase::passenger_car_seed(),
        _ => KeywordDatabase::excavator_seed(),
    }
}

pub fn config(name: &str) -> PspConfig {
    let base = PspConfig::excavator_europe();
    match name {
        "views-only" => base.with_weights(SaiWeights::views_only()),
        "interactions-only" => base.with_weights(SaiWeights::interactions_only()),
        "filtered" => base.with_poisoning_filter(0.25),
        _ => base,
    }
}

pub fn registry() -> ServiceRegistry {
    let registry = DATABASES
        .iter()
        .fold(ServiceRegistry::new(), |registry, name| {
            registry.database(*name, database(name))
        });
    CONFIGS.iter().fold(registry, |registry, name| {
        registry.config(*name, config(name))
    })
}

/// [`WINDOWS`] one-year windows, one starting every quarter from 2018-01.
pub fn quarterly_windows() -> WindowAxis {
    let windows: Vec<DateWindow> = (0..WINDOWS)
        .map(|i| {
            let start = 3 * i; // months since 2018-01
            let end = start + 11;
            DateWindow::new(
                SimDate::new(2018 + (start / 12) as i32, (1 + start % 12) as u8, 1),
                SimDate::new(2018 + (end / 12) as i32, (1 + end % 12) as u8, 28),
            )
        })
        .collect();
    WindowAxis::each(&windows)
}

pub fn score_request() -> ServiceRequest {
    ServiceRequest::Score {
        db: DATABASES[0].into(),
        config: CONFIGS[0].into(),
    }
}

pub fn sweep_request() -> ServiceRequest {
    ServiceRequest::Sweep {
        db: DATABASES[0].into(),
        config: CONFIGS[0].into(),
        windows: quarterly_windows(),
    }
}

pub fn matrix_request() -> ServiceRequest {
    ServiceRequest::Matrix {
        scenarios: DATABASES.iter().map(|name| (*name).to_string()).collect(),
        configs: CONFIGS.iter().map(|name| (*name).to_string()).collect(),
        windows: quarterly_windows(),
    }
}

/// The monitor every subscriber registers: the paper's DPF scenario over
/// five two-year windows.
pub fn monitor_spec() -> MonitorSpec {
    MonitorSpec {
        db: DATABASES[0].into(),
        config: CONFIGS[0].into(),
        scenario: "dpf-tampering".into(),
        from_year: 2019,
        to_year: 2023,
        window_years: 2,
        alert_threshold: 0.25,
    }
}

/// What the workloads' requests resolve to, for calling the engine and
/// monitoring directly.
pub struct Inputs {
    pub db: KeywordDatabase,
    pub config: PspConfig,
    pub windows: WindowAxis,
    pub spec: MatrixSpec,
    pub monitor: MonitorSpec,
}

impl Inputs {
    pub fn new() -> Self {
        let windows = quarterly_windows();
        let mut spec = MatrixSpec::new();
        for name in DATABASES {
            spec = spec.scenario(name, database(name));
        }
        for name in CONFIGS {
            spec = spec.config(name, config(name));
        }
        Self {
            db: database(DATABASES[0]),
            config: config(CONFIGS[0]),
            spec: spec.window_axis(&windows),
            windows,
            monitor: monitor_spec(),
        }
    }
}

/// A durable service behind a socket server on an ephemeral loopback port.
pub struct Daemon {
    pub service: Arc<TaraService>,
    server: SocketServer,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Recovers `dir` (seeding it with `seed` when it holds no checkpoint)
    /// and starts serving.  With a tracer, records `durability.recover` and
    /// inside it `durability.load` (checkpoint read and validation),
    /// `engine.build`, `durability.cache.load` and `durability.replay`.
    pub fn start(
        dir: &Path,
        seed: Option<Corpus>,
        tracer: Option<&Tracer>,
    ) -> Result<(Self, RecoveryReport), String> {
        let root = tracer.map(|tracer| tracer.open("durability.recover", 0, None));
        let started = Instant::now();
        let mut built = None;
        let (store, engine, report) = DurableStore::recover(
            dir,
            FaultFs::none(),
            || LiveEngine::new(seed.unwrap_or_default()),
            |corpus, signals| {
                let entered = Instant::now();
                let engine = maybe_span(tracer, "engine.build", root, || LiveEngine::new(corpus));
                if let Some(cache) = signals {
                    // A mismatched cache is ignored: signals recompute lazily.
                    maybe_span(tracer, "durability.cache.load", root, || {
                        let _ = engine.load_signal_cache(&cache);
                    });
                }
                built = Some((entered, Instant::now()));
                engine
            },
        )
        .map_err(|error| format!("recovering {}: {error}", dir.display()))?;
        if let (Some(tracer), Some(root)) = (tracer, root) {
            if let Some((entered, left)) = built {
                tracer.record("durability.load", 0, Some(root), started, entered);
                tracer.record("durability.replay", 0, Some(root), left, Instant::now());
            }
            tracer.close(root);
        }
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let service = Arc::new(TaraService::with_durability(
            engine,
            registry(),
            workers,
            store,
        ));
        let server = SocketServer::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
            .map_err(|error| format!("binding a loopback port: {error}"))?;
        let addr = server.local_addr();
        Ok((
            Self {
                service,
                server,
                addr,
            },
            report,
        ))
    }

    /// Stops the daemon without a final checkpoint, leaving the data dir as
    /// a `kill -9` after the last acknowledged request would.  Callers close
    /// their connections first, so the socket drain has nothing to wait for.
    /// Returns the final socket counters.
    pub fn kill(self) -> NetStatus {
        let Self {
            service,
            mut server,
            ..
        } = self;
        server.shutdown();
        service.net_stats()
    }
}

/// A fresh, empty directory at `path`.
pub fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path)
            .map_err(|error| format!("clearing {}: {error}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|error| format!("creating {}: {error}", path.display()))
}

/// Bytes of all regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter_map(|entry| entry.metadata().ok())
            .filter(std::fs::Metadata::is_file)
            .map(|metadata| metadata.len())
            .sum()
    })
}
