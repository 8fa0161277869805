//! The TARA service daemon core: a protocol-agnostic request/response layer
//! over the scoring engines.
//!
//! The monitoring examples all hand-roll the same loop — ingest a batch,
//! re-score, repeat — with the engine's `&mut self` forcing every consumer to
//! serialize behind one borrow.  This module turns that inside out:
//!
//! * [`ServiceRequest`] / [`ServiceResponse`] are plain serializable enums —
//!   the whole service surface, independent of any transport.  Line-JSON
//!   ([`wire`]) is served by one connection loop ([`net`]) on every
//!   transport: TCP via [`net::SocketServer`], stdin/stdout via
//!   [`net::serve_stream`], so the daemon (`examples/tara_daemon.rs`) is
//!   argument parsing around it.  An embedded caller skips the wire format
//!   entirely and calls [`TaraService::handle`] with the same types.
//! * [`TaraService`] executes requests against an engine published through a
//!   [`SnapshotPublisher`]: each request scores
//!   one immutable generation end to end, while ingest builds the next
//!   generation off to the side.  Readers never block on writers and every
//!   response stamps the generation it was computed at.
//! * [`TaraService::submit`] runs a request on the built-in
//!   [`WorkerPool`] (plain threads + channels — no async
//!   executor in the offline dependency closure) and hands back a
//!   [`Ticket`] to wait on; [`TaraService::handle`] is the
//!   synchronous spelling of the same computation.
//!
//! Scenario databases and scoring configurations are looked up by name in a
//! [`ServiceRegistry`], so requests carry short names instead of inlined
//! configuration blobs.  All failures fold into
//! [`PspError`] and travel as
//! [`ServiceResponse::Error`] — the service never panics on bad input.
//!
//! The serving plane is hardened for production traffic:
//!
//! * **Panic resilience** — every pooled request runs under `catch_unwind`;
//!   a panicking request answers its [`Ticket`] with a structured
//!   `internal-error` response and the worker thread survives, so the pool
//!   never silently shrinks (see [`runtime`]).
//! * **Deadlines & cancellation** — [`TaraService::submit_with_deadline`]
//!   attaches a [`CancelToken`] that is checked inside the engine between
//!   profile jobs and plan rows; an overrun answers
//!   [`ServiceResponse::Expired`] instead of burning a worker, and
//!   [`Ticket::wait_timeout`] bounds the client-side wait.  `Status`
//!   reports queued/in-flight depth.
//! * **Subscriptions** — [`TaraService::subscribe`] (or
//!   [`ServiceRequest::Subscribe`] over a [`net`] connection) registers a
//!   [`MonitorSpec`] with an event sink (a dedicated channel, or the
//!   connection's inbox); after every
//!   successful ingest publication the service pushes a
//!   [`ServiceEvent::MonitorDelta`] — the re-evaluated
//!   [`MonitoringSeries`] plus its `sai_alerts` firings, computed on the
//!   just-published snapshot — replacing poll-by-`Sweep`.
//! * **Scheduled sweeps** — [`TaraService::schedule`] (or
//!   [`ServiceRequest::Schedule`] over a connection) re-runs a read-only
//!   request at a fixed
//!   interval against the latest snapshot on a dedicated scheduler thread,
//!   delivering [`ServiceEvent::ScheduledRun`]s through the same event
//!   sinks.

pub mod durability;
pub mod journal;
pub mod net;
pub mod runtime;
mod scheduler;
pub mod snapshot;
pub mod wire;

use crate::config::PspConfig;
use crate::engine::{CellId, LiveEngine, MatrixSpec, SignalCacheFile, StreamingScorer, WindowAxis};
use crate::error::PspError;
use crate::keyword_db::KeywordDatabase;
use crate::monitoring::{MonitoringSeries, SaiAlert};
use crate::sai::SaiList;
use durability::{DurabilityStats, DurableStore};
use net::{NetMetrics, NetStatus};
use runtime::{CancelToken, PoolMetrics, Ticket, WorkerPool};
use scheduler::SchedulerQueue;
use serde::{Deserialize, Serialize};
use snapshot::{EngineSnapshot, SnapshotPublisher};
use socialsim::post::Post;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Renders a caught panic payload as the `detail` of an `internal-error`
/// response (panics carry `&str` or `String` payloads in practice).
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "request panicked with a non-string payload".to_string()
    }
}

/// Locks `mutex`, recovering it from poisoning: every lock in the service
/// guards state that a panicking holder cannot leave torn, and a poisoned
/// lock must not cascade one bad request into service-wide failure.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The answer to a request whose token was cancelled or whose deadline
/// passed.
fn expired(token: &CancelToken) -> ServiceResponse {
    ServiceResponse::Expired {
        waited_ms: token.waited_ms(),
    }
}

/// Named keyword databases and scoring configurations the service can be
/// asked for.  Requests reference entries by name; unknown names answer with
/// `unknown-database` / `unknown-config` errors listing nothing sensitive.
#[derive(Debug, Default)]
pub struct ServiceRegistry {
    databases: Vec<(String, KeywordDatabase)>,
    configs: Vec<(String, PspConfig)>,
}

impl ServiceRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a keyword database under `name` (last registration wins on
    /// duplicate names).
    #[must_use]
    pub fn database(mut self, name: impl Into<String>, db: KeywordDatabase) -> Self {
        let name = name.into();
        self.databases.retain(|(existing, _)| *existing != name);
        self.databases.push((name, db));
        self
    }

    /// Registers a scoring configuration under `name` (last registration wins
    /// on duplicate names).
    #[must_use]
    pub fn config(mut self, name: impl Into<String>, config: PspConfig) -> Self {
        let name = name.into();
        self.configs.retain(|(existing, _)| *existing != name);
        self.configs.push((name, config));
        self
    }

    /// Looks a database up by name.
    ///
    /// # Errors
    ///
    /// [`PspError::UnknownDatabase`] when the name is not registered.
    pub fn lookup_database(&self, name: &str) -> Result<&KeywordDatabase, PspError> {
        self.databases
            .iter()
            .find(|(registered, _)| registered == name)
            .map(|(_, db)| db)
            .ok_or_else(|| PspError::UnknownDatabase { name: name.into() })
    }

    /// Looks a configuration up by name.
    ///
    /// # Errors
    ///
    /// [`PspError::UnknownConfig`] when the name is not registered.
    pub fn lookup_config(&self, name: &str) -> Result<&PspConfig, PspError> {
        self.configs
            .iter()
            .find(|(registered, _)| registered == name)
            .map(|(_, config)| config)
            .ok_or_else(|| PspError::UnknownConfig { name: name.into() })
    }

    /// The registered database names, in registration order.
    #[must_use]
    pub fn database_names(&self) -> Vec<String> {
        self.databases
            .iter()
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// The registered configuration names, in registration order.
    #[must_use]
    pub fn config_names(&self) -> Vec<String> {
        self.configs.iter().map(|(name, _)| name.clone()).collect()
    }
}

/// The wire form of a failed request: a stable machine-matchable `kind` (see
/// [`PspError::kind`]) plus human-readable detail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceError {
    /// Stable kebab-case discriminant, e.g. `unknown-database`.
    pub kind: String,
    /// Human-readable description of the failure.
    pub detail: String,
}

impl From<PspError> for ServiceError {
    fn from(error: PspError) -> Self {
        Self {
            kind: error.kind().to_string(),
            detail: error.to_string(),
        }
    }
}

/// A request to the TARA service.  Databases and configurations are referred
/// to by their [`ServiceRegistry`] names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceRequest {
    /// Score one (database, configuration) pair: the full SAI list at the
    /// current generation.
    Score {
        /// Registered database name.
        db: String,
        /// Registered configuration name.
        config: String,
    },
    /// Score one pair across a window axis (monitoring sweep): one SAI list
    /// per axis entry.
    Sweep {
        /// Registered database name.
        db: String,
        /// Registered configuration name.
        config: String,
        /// The windows to resolve, in order.
        windows: WindowAxis,
    },
    /// Resolve a (scenario × configuration × window) cross-product.
    Matrix {
        /// Registered database names, one per matrix scenario row.
        scenarios: Vec<String>,
        /// Registered configuration names, one per matrix configuration
        /// column.
        configs: Vec<String>,
        /// The window grid; empty means each configuration's own window.
        windows: WindowAxis,
    },
    /// Append a batch of posts, publishing the next engine generation.
    Ingest {
        /// The posts to append.
        posts: Vec<Post>,
    },
    /// Export the memoised per-post signal cache at the current generation.
    ExportCache,
    /// Publish an atomic checkpoint of the current generation to the
    /// service's data directory (corpus + signal cache + manifest, written
    /// to temp files and renamed into place), then compact the write-ahead
    /// journal.  Answers `not-durable` when the service runs without a data
    /// directory.
    Checkpoint,
    /// Service liveness, corpus size, registry listing and pool depth.
    Status,
    /// Register a monitor subscription: after every successful ingest
    /// publication, the service pushes a [`ServiceEvent::MonitorDelta`] with
    /// the re-evaluated series and alert firings for this spec.  Served by
    /// the [`net`] connection loop, which delivers the events on the
    /// requesting connection; [`TaraService::handle`] / `submit` have no
    /// channel to deliver on and answer `bad-request` naming
    /// [`TaraService::subscribe`].
    Subscribe {
        /// What to monitor and where to alert.
        spec: MonitorSpec,
    },
    /// Remove a monitor subscription by id.
    Unsubscribe {
        /// The id returned by [`ServiceResponse::Subscribed`].
        id: u64,
    },
    /// Register a recurring job: re-run a read-only request every
    /// `every_ms` milliseconds against the latest snapshot, delivering each
    /// result as a [`ServiceEvent::ScheduledRun`].  Mutating or
    /// registration requests (`Ingest`, `Subscribe`, `Schedule`, …) cannot
    /// be scheduled.  Like `Subscribe`, served per connection by [`net`];
    /// `handle` / `submit` answer `bad-request` naming
    /// [`TaraService::schedule`].
    Schedule {
        /// Interval between runs, in milliseconds (clamped to ≥ 1).
        every_ms: u64,
        /// The read-only request to re-run.
        request: Box<ServiceRequest>,
    },
    /// Remove a scheduled job by id.
    Unschedule {
        /// The id returned by [`ServiceResponse::Scheduled`].
        id: u64,
    },
}

impl ServiceRequest {
    /// Whether this request may be driven by the scheduler: snapshot
    /// consumers only, so a recurring job can never mutate the engine or
    /// recursively register more work.  `Checkpoint` is schedulable — it
    /// persists a snapshot without mutating the served engine — but only on
    /// a durable service (enforced at registration).
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        matches!(
            self,
            ServiceRequest::Score { .. }
                | ServiceRequest::Sweep { .. }
                | ServiceRequest::Matrix { .. }
                | ServiceRequest::ExportCache
                | ServiceRequest::Checkpoint
                | ServiceRequest::Status
        )
    }

    /// The stable variant name, used by structured errors that reject a
    /// request kind (e.g. `not-schedulable`).
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            ServiceRequest::Score { .. } => "Score",
            ServiceRequest::Sweep { .. } => "Sweep",
            ServiceRequest::Matrix { .. } => "Matrix",
            ServiceRequest::Ingest { .. } => "Ingest",
            ServiceRequest::ExportCache => "ExportCache",
            ServiceRequest::Checkpoint => "Checkpoint",
            ServiceRequest::Status => "Status",
            ServiceRequest::Subscribe { .. } => "Subscribe",
            ServiceRequest::Unsubscribe { .. } => "Unsubscribe",
            ServiceRequest::Schedule { .. } => "Schedule",
            ServiceRequest::Unschedule { .. } => "Unschedule",
        }
    }
}

/// What one monitor subscription watches: the monitoring-series shape
/// ([`MonitoringSeries::run`]) plus the alert threshold its
/// [`MonitoringSeries::sai_alerts`] fire at.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorSpec {
    /// Registered database name.
    pub db: String,
    /// Registered configuration name.
    pub config: String,
    /// The scenario whose SAI mass is folded into observations.
    pub scenario: String,
    /// First window start year (inclusive).
    pub from_year: i32,
    /// Last window start year (inclusive).
    pub to_year: i32,
    /// Window length in years (clamped to ≥ 1, as in monitoring runs).
    pub window_years: i32,
    /// Relative SAI-movement threshold for alert firings (0.25 = "moved by
    /// more than 25% between consecutive windows").
    pub alert_threshold: f64,
}

/// A response from the TARA service.  Every scoring response stamps the
/// engine generation it was computed at, so callers can correlate results
/// with ingests even when requests run concurrently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceResponse {
    /// Answer to [`ServiceRequest::Score`].
    Score {
        /// Generation the list was computed at.
        generation: u64,
        /// The scored SAI list.
        sai: SaiList,
    },
    /// Answer to [`ServiceRequest::Sweep`]: one list per axis entry, in axis
    /// order.
    Sweep {
        /// Generation the lists were computed at.
        generation: u64,
        /// One SAI list per window.
        lists: Vec<SaiList>,
    },
    /// Answer to [`ServiceRequest::Matrix`]: cells in deterministic
    /// [`CellId`] order (scenario-major, then configuration, then window).
    Matrix {
        /// Generation the cells were computed at.
        generation: u64,
        /// The resolved cells.
        cells: Vec<(CellId, SaiList)>,
    },
    /// Answer to [`ServiceRequest::Ingest`].
    Ingested {
        /// Number of posts appended.
        appended: usize,
        /// Generation the batch is published under.
        generation: u64,
    },
    /// Answer to [`ServiceRequest::ExportCache`].
    Cache {
        /// Generation the cache was exported at.
        generation: u64,
        /// The persistable signal cache.
        cache: SignalCacheFile,
    },
    /// Answer to [`ServiceRequest::Checkpoint`].
    Checkpointed {
        /// Generation the checkpoint captures.
        generation: u64,
        /// Posts the checkpointed corpus holds.
        posts: usize,
        /// Filesystem path of the published checkpoint directory.
        path: String,
    },
    /// Answer to [`ServiceRequest::Status`].
    Status {
        /// Posts currently served.
        posts: usize,
        /// Current engine generation.
        generation: u64,
        /// Registered database names.
        databases: Vec<String>,
        /// Registered configuration names.
        configs: Vec<String>,
        /// Worker threads in the service pool.
        workers: usize,
        /// Requests accepted but not yet picked up by a worker.
        queued: usize,
        /// Requests currently executing on a worker.
        in_flight: usize,
        /// Requests that panicked (and were caught) since startup.
        panicked: usize,
        /// Live monitor subscriptions.
        subscriptions: usize,
        /// Recurring scheduled jobs.
        scheduled: usize,
        /// Records in the write-ahead journal (0 when not durable).
        wal_records: u64,
        /// Bytes in the write-ahead journal (0 when not durable).
        wal_bytes: u64,
        /// Generation of the newest published checkpoint (`None` when not
        /// durable or never checkpointed).
        last_checkpoint_generation: Option<u64>,
        /// Whether the service restored prior state at startup.
        recovered_at_start: bool,
        /// Wire-transport counters over every connection served, TCP and
        /// stdin alike (all zero before the first).
        net: NetStatus,
    },
    /// Answer to [`ServiceRequest::Subscribe`].
    Subscribed {
        /// Subscription id (pass to `Unsubscribe`; stamps every delta).
        id: u64,
        /// Generation published when the subscription was registered.
        generation: u64,
    },
    /// Answer to [`ServiceRequest::Unsubscribe`].
    Unsubscribed {
        /// The removed subscription id.
        id: u64,
    },
    /// Answer to [`ServiceRequest::Schedule`].
    Scheduled {
        /// Job id (pass to `Unschedule`; stamps every scheduled run).
        id: u64,
        /// The effective interval in milliseconds.
        every_ms: u64,
    },
    /// Answer to [`ServiceRequest::Unschedule`].
    Unscheduled {
        /// The removed job id.
        id: u64,
    },
    /// The request's deadline passed before it finished: either it sat in
    /// the queue too long, or the engine observed the expiry at a check
    /// between profile jobs and plan rows.  No result was produced.
    Expired {
        /// Milliseconds between submission and the expiry being observed.
        waited_ms: u64,
    },
    /// The request failed; no other response was produced.
    Error {
        /// What went wrong.
        error: ServiceError,
    },
}

/// A push event delivered outside the request/response cycle: monitor
/// deltas after ingest publications, and the results of scheduled runs.
/// Every registration owns an event sink: for embedded callers the channel
/// behind the [`Subscription`] from [`TaraService::subscribe`] /
/// [`TaraService::schedule`], for a [`net`] connection its writer's inbox,
/// which writes the events as `{"event":…}` lines.
#[derive(Debug, Serialize, Deserialize)]
pub enum ServiceEvent {
    /// A monitor subscription re-evaluated after an ingest publication.
    /// The series is computed on the just-published snapshot, so it is
    /// bit-identical to a cold monitoring run over the corpus at the
    /// stamped generation (pinned in `tests/service.rs`).
    MonitorDelta {
        /// The subscription this delta answers.
        subscription: u64,
        /// The generation the series was computed at.
        generation: u64,
        /// The re-evaluated monitoring series.
        series: MonitoringSeries,
        /// The alert firings of the series at the subscription's threshold.
        alerts: Vec<SaiAlert>,
    },
    /// One run of a scheduled job.
    ScheduledRun {
        /// The job this run answers.
        job: u64,
        /// The result, exactly as the equivalent direct request would
        /// answer (including `Error` responses).
        response: ServiceResponse,
    },
    /// The final event on a subscribed connection when it drains (graceful
    /// shutdown, or end of stream): no further deltas will arrive.  Pushed
    /// by the [`net`] connection loop before the connection closes.
    Draining {
        /// The generation published when the drain began.
        generation: u64,
    },
}

/// The receiving half of an embedded subscription or scheduled job: a
/// dedicated event channel plus the registration id.
#[derive(Debug)]
pub struct Subscription {
    id: u64,
    generation: u64,
    receiver: mpsc::Receiver<ServiceEvent>,
}

impl Subscription {
    /// The registration id (matches the `subscription` / `job` stamp on
    /// every delivered event; pass to `Unsubscribe` / `Unschedule`).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The generation published when the registration was made — what a
    /// transport echoes in its `Subscribed` response.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A pending event, if one is queued (never blocks).
    #[must_use]
    pub fn try_recv(&self) -> Option<ServiceEvent> {
        self.receiver.try_recv().ok()
    }

    /// Waits up to `timeout` for the next event; `None` on timeout, when
    /// the registration was removed (`Unsubscribe` / `Unschedule`) and its
    /// queued events are drained, or when the service has shut down.
    #[must_use]
    pub fn recv_timeout(&self, timeout: Duration) -> Option<ServiceEvent> {
        self.receiver.recv_timeout(timeout).ok()
    }
}

/// Where one registration's events go: an embedded caller's channel, or a
/// connection's inbox.  A `false` return means the receiver is gone, and the
/// registration is pruned (a subscription) or unscheduled (a job).
struct EventSink(Box<dyn Fn(ServiceEvent) -> bool + Send>);

impl EventSink {
    fn send(&self, event: ServiceEvent) -> bool {
        (self.0)(event)
    }
}

impl From<mpsc::Sender<ServiceEvent>> for EventSink {
    fn from(sender: mpsc::Sender<ServiceEvent>) -> Self {
        Self(Box::new(move |event| sender.send(event).is_ok()))
    }
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EventSink")
    }
}

/// One registered monitor subscription: its spec plus its event sink.
#[derive(Debug)]
struct Subscriber {
    id: u64,
    spec: MonitorSpec,
    sink: EventSink,
}

/// Everything a request needs, shared between the synchronous path, the
/// pool's workers and the scheduler thread.
#[derive(Debug)]
struct ServiceState<E> {
    publisher: SnapshotPublisher<E>,
    registry: ServiceRegistry,
    workers: usize,
    /// Shared with the worker pool so `Status` reports live depths.
    metrics: Arc<PoolMetrics>,
    /// Monitor subscriptions, notified after every successful ingest.
    subscriptions: Mutex<Vec<Subscriber>>,
    /// One id space for subscriptions and scheduled jobs.
    next_id: AtomicU64,
    /// The scheduler's timetable (the thread itself lives on the service).
    scheduler: SchedulerQueue,
    /// The durability plane, when the service owns a data directory:
    /// ingests are journaled write-ahead and `Checkpoint` requests persist
    /// atomic snapshots.
    durable: Option<Arc<DurableStore>>,
    /// Wire-transport counters, shared with every [`net`] connection loop
    /// serving this service so `Status` reports them.
    net: Arc<NetMetrics>,
}

/// The TARA service: request execution over a snapshot-published engine.
///
/// Generic over the engine — anything [`StreamingScorer`] `+ Clone` serves,
/// with [`LiveEngine`] as the default.
///
/// ```
/// use psp::config::PspConfig;
/// use psp::keyword_db::KeywordDatabase;
/// use psp::service::{ServiceRegistry, ServiceRequest, ServiceResponse, TaraService};
/// use psp::engine::LiveEngine;
/// use socialsim::scenario;
///
/// let registry = ServiceRegistry::new()
///     .database("excavator", KeywordDatabase::excavator_seed())
///     .config("excavator", PspConfig::excavator_europe());
/// let service = TaraService::new(LiveEngine::new(scenario::excavator_europe(7)), registry);
/// let response = service.handle(ServiceRequest::Score {
///     db: "excavator".into(),
///     config: "excavator".into(),
/// });
/// match response {
///     ServiceResponse::Score { generation, sai } => {
///         assert_eq!(generation, 0);
///         assert!(!sai.is_empty());
///     }
///     other => panic!("unexpected response: {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct TaraService<E = LiveEngine>
where
    E: StreamingScorer + Clone + Send + Sync + 'static,
{
    state: Arc<ServiceState<E>>,
    pool: WorkerPool,
    /// The `tara-scheduler` thread; signalled and joined on drop.
    scheduler: Option<std::thread::JoinHandle<()>>,
}

impl<E: StreamingScorer + Clone + Send + Sync + 'static> TaraService<E> {
    /// Builds a service over `engine` with one worker per available core.
    #[must_use]
    pub fn new(engine: E, registry: ServiceRegistry) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::with_workers(engine, registry, workers)
    }

    /// Builds a service with an explicit worker-pool size (clamped to at
    /// least one).
    #[must_use]
    pub fn with_workers(engine: E, registry: ServiceRegistry, workers: usize) -> Self {
        Self::build(engine, registry, workers, None)
    }

    /// Builds a durable service: `store` (from [`DurableStore::recover`],
    /// which also reconstructs `engine`) journals every ingest write-ahead
    /// and serves `Checkpoint` requests.  The caller passes the *recovered*
    /// engine — the store and the engine must come from the same `recover`
    /// call, or the journal floor and the served generation disagree.
    #[must_use]
    pub fn with_durability(
        engine: E,
        registry: ServiceRegistry,
        workers: usize,
        store: Arc<DurableStore>,
    ) -> Self {
        Self::build(engine, registry, workers, Some(store))
    }

    fn build(
        engine: E,
        registry: ServiceRegistry,
        workers: usize,
        durable: Option<Arc<DurableStore>>,
    ) -> Self {
        let workers = workers.max(1);
        let metrics = Arc::new(PoolMetrics::default());
        let state = Arc::new(ServiceState {
            publisher: SnapshotPublisher::new(engine),
            registry,
            workers,
            metrics: Arc::clone(&metrics),
            subscriptions: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            scheduler: SchedulerQueue::default(),
            durable,
            net: Arc::new(NetMetrics::default()),
        });
        let scheduler = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("tara-scheduler".into())
                .spawn(move || scheduler::run(&state.scheduler, |request| state.respond(request)))
                .expect("spawning the scheduler thread failed")
        };
        Self {
            state,
            pool: WorkerPool::with_metrics(workers, metrics),
            scheduler: Some(scheduler),
        }
    }

    /// Number of worker threads serving [`submit`](Self::submit) requests.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.state.workers
    }

    /// The currently published engine generation, for callers that want to
    /// score directly (the scoring entry points all deref from the
    /// snapshot).
    #[must_use]
    pub fn snapshot(&self) -> EngineSnapshot<E> {
        self.state.publisher.snapshot()
    }

    /// Executes a request synchronously on the calling thread.  Never panics
    /// on bad input: failures come back as [`ServiceResponse::Error`].
    #[must_use]
    pub fn handle(&self, request: ServiceRequest) -> ServiceResponse {
        self.state.respond(request)
    }

    /// Executes a request synchronously under a caller-held [`CancelToken`]:
    /// cancellation (or the token's deadline) is checked inside the engine
    /// between profile jobs and plan rows and answers
    /// [`ServiceResponse::Expired`].
    #[must_use]
    pub fn handle_with_token(
        &self,
        request: ServiceRequest,
        token: &CancelToken,
    ) -> ServiceResponse {
        self.state.respond_with(request, token)
    }

    /// Enqueues a request on the worker pool and returns a [`Ticket`] to
    /// wait on.  Submissions from one thread are answered in submission
    /// order only when the pool has a single worker; correlate by
    /// generation (or by wire id, at the transport layer) otherwise.
    #[must_use]
    pub fn submit(&self, request: ServiceRequest) -> Ticket {
        self.submit_with_token(request, CancelToken::default())
    }

    /// Enqueues a request that expires `deadline` after submission: if it is
    /// still queued when the deadline passes — or the expiry is checked
    /// inside the engine between profile jobs and plan rows — the ticket
    /// answers [`ServiceResponse::Expired`] instead of a result.  Pair with
    /// [`Ticket::wait_timeout`] to bound the client-side wait too.
    #[must_use]
    pub fn submit_with_deadline(&self, request: ServiceRequest, deadline: Duration) -> Ticket {
        self.submit_with_token(request, CancelToken::with_deadline(deadline))
    }

    /// Enqueues a request under `token` — the one queueing path behind
    /// [`submit`](Self::submit) and
    /// [`submit_with_deadline`](Self::submit_with_deadline).
    fn submit_with_token(&self, request: ServiceRequest, token: CancelToken) -> Ticket {
        let (sender, ticket) = Ticket::new();
        let state = Arc::clone(&self.state);
        // An Err means the pool already shut down; the closure (and with it
        // `sender`) is dropped, which resolves the ticket to a
        // `service-stopped` error response.
        let _ = self.pool.execute(move || {
            // A panicking request must still answer its ticket: catch the
            // unwind here (before it reaches the pool's keep-alive backstop,
            // which can only drop the sender) and resolve to a structured
            // `internal-error` response.
            let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                state.respond_with(request, &token)
            }))
            .unwrap_or_else(|payload| {
                state.metrics.record_panic();
                ServiceResponse::Error {
                    error: PspError::Internal {
                        detail: panic_detail(payload.as_ref()),
                    }
                    .into(),
                }
            });
            let _ = sender.send(response);
        });
        ticket
    }

    /// Registers a monitor subscription with a dedicated event channel (what
    /// a connection's [`ServiceRequest::Subscribe`] runs): after every
    /// successful ingest publication the returned [`Subscription`] receives
    /// a [`ServiceEvent::MonitorDelta`].
    ///
    /// # Errors
    ///
    /// Returns an error when the spec names an unregistered database or
    /// configuration.
    pub fn subscribe(&self, spec: MonitorSpec) -> Result<Subscription, PspError> {
        let (sender, receiver) = mpsc::channel();
        let subscription = |id, generation| Subscription {
            id,
            generation,
            receiver,
        };
        Ok(self.state.subscribe(spec, sender.into(), subscription)?.1)
    }

    /// Registers a recurring job with a dedicated event channel (what a
    /// connection's [`ServiceRequest::Schedule`] runs): `request` is
    /// re-run every `every` against the latest snapshot, each result
    /// arriving as a [`ServiceEvent::ScheduledRun`].
    ///
    /// # Errors
    ///
    /// Returns an error when `request` is not schedulable (only read-only
    /// snapshot consumers are).
    pub fn schedule(
        &self,
        request: ServiceRequest,
        every: Duration,
    ) -> Result<Subscription, PspError> {
        let (sender, receiver) = mpsc::channel();
        let subscription = |id, generation| Subscription {
            id,
            generation,
            receiver,
        };
        Ok(self
            .state
            .schedule(request, every, sender.into(), subscription)?
            .1)
    }

    /// Queue-depth and panic counters of the worker pool, observed now.
    #[must_use]
    pub fn pool_stats(&self) -> runtime::PoolStats {
        self.pool.stats()
    }

    /// Whether the service owns a data directory (journals ingests, serves
    /// `Checkpoint`) — transports use this to decide whether a drain should
    /// write a final checkpoint.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.state.durable.is_some()
    }

    /// Wire-transport counters (the `Status` response's `net` block),
    /// observed now; all zero until a [`net`] connection loop has served.
    #[must_use]
    pub fn net_stats(&self) -> NetStatus {
        self.state.net.status()
    }
}

impl<E: StreamingScorer + Clone + Send + Sync + 'static> Drop for TaraService<E> {
    fn drop(&mut self) {
        self.state.scheduler.shut_down();
        if let Some(scheduler) = self.scheduler.take() {
            let _ = scheduler.join();
        }
    }
}

impl<E: StreamingScorer + Clone + Send + Sync + 'static> ServiceState<E> {
    fn respond(&self, request: ServiceRequest) -> ServiceResponse {
        self.respond_with(request, &CancelToken::default())
    }

    fn respond_with(&self, request: ServiceRequest, token: &CancelToken) -> ServiceResponse {
        // A request whose deadline passed while it sat in the queue is not
        // worth starting at all.
        if token.is_cancelled() {
            return expired(token);
        }
        self.try_respond(request, token)
            .unwrap_or_else(|error| ServiceResponse::Error {
                error: error.into(),
            })
    }

    /// Executes one request against one snapshot.  The snapshot is taken
    /// once, first, and everything — including the stamped generation — is
    /// read from it, so a concurrent ingest can never tear a response.
    ///
    /// Sweeps and matrices hand `token` to the engine as its stop predicate,
    /// checked inside the engine between profile jobs and plan rows; an
    /// expiry observed mid-run answers [`ServiceResponse::Expired`] instead
    /// of finishing work nobody awaits, and an unexpired run is the plain
    /// computation, bit for bit.
    fn try_respond(
        &self,
        request: ServiceRequest,
        token: &CancelToken,
    ) -> Result<ServiceResponse, PspError> {
        let stop = || token.is_cancelled();
        match request {
            ServiceRequest::Score { db, config } => {
                let db = self.registry.lookup_database(&db)?;
                let config = self.registry.lookup_config(&config)?;
                let snapshot = self.publisher.snapshot();
                Ok(ServiceResponse::Score {
                    generation: snapshot.generation(),
                    sai: snapshot.sai_list(db, config),
                })
            }
            ServiceRequest::Sweep {
                db,
                config,
                windows,
            } => {
                let db = self.registry.lookup_database(&db)?;
                let config = self.registry.lookup_config(&config)?;
                let snapshot = self.publisher.snapshot();
                let generation = snapshot.generation();
                Ok(
                    match snapshot.sai_windows_until(db, config, &windows, &stop) {
                        Some(lists) => ServiceResponse::Sweep { generation, lists },
                        None => expired(token),
                    },
                )
            }
            ServiceRequest::Matrix {
                scenarios,
                configs,
                windows,
            } => {
                if scenarios.is_empty() || configs.is_empty() {
                    return Err(PspError::BadRequest {
                        detail: "matrix requests need at least one scenario and one configuration"
                            .into(),
                    });
                }
                let mut spec = MatrixSpec::new();
                for name in &scenarios {
                    spec =
                        spec.scenario(name.clone(), self.registry.lookup_database(name)?.clone());
                }
                for name in &configs {
                    spec = spec.config(name.clone(), self.registry.lookup_config(name)?.clone());
                }
                spec = spec.window_axis(&windows);
                let snapshot = self.publisher.snapshot();
                let generation = snapshot.generation();
                let mut cells = Vec::with_capacity(spec.cell_count());
                let finished = snapshot.sai_matrix_stream_until(&spec, &stop, &mut |id, sai| {
                    cells.push((id, sai));
                });
                Ok(match finished {
                    Some(()) => ServiceResponse::Matrix { generation, cells },
                    None => expired(token),
                })
            }
            ServiceRequest::Ingest { posts } => {
                // On a durable service the batch is journaled (fsync'd)
                // before the publisher swaps the generation: an acked ingest
                // is always on disk, and a failed append publishes nothing.
                // The hook also locks the subscribers, under the ingest lock,
                // so the next writer cannot publish until this ingest's
                // deltas are out: deltas leave in generation order, each
                // computed on the generation its own ingest published.
                let mut subscribers = None;
                let receipt = self.publisher.ingest_logged(posts, |batch, generation| {
                    subscribers = Some(lock(&self.subscriptions));
                    self.durable
                        .as_ref()
                        .map_or(Ok(()), |store| store.log_ingest(batch, generation))
                })?;
                if let Some(subscribers) = subscribers.filter(|_| receipt.appended > 0) {
                    self.notify_subscribers(subscribers);
                }
                Ok(ServiceResponse::Ingested {
                    appended: receipt.appended,
                    generation: receipt.generation,
                })
            }
            ServiceRequest::Checkpoint => {
                let store = self.durable.as_ref().ok_or(PspError::NotDurable)?;
                let snapshot = self.publisher.snapshot();
                let (generation, posts, path) = store.checkpoint(&*snapshot)?;
                Ok(ServiceResponse::Checkpointed {
                    generation,
                    posts,
                    path: path.display().to_string(),
                })
            }
            ServiceRequest::ExportCache => {
                let snapshot = self.publisher.snapshot();
                Ok(ServiceResponse::Cache {
                    generation: snapshot.generation(),
                    cache: snapshot.export_signal_cache(),
                })
            }
            ServiceRequest::Status => {
                let snapshot = self.publisher.snapshot();
                let stats = self.metrics.stats();
                let durability = self.durability_stats();
                Ok(ServiceResponse::Status {
                    posts: snapshot.post_count(),
                    generation: snapshot.generation(),
                    databases: self.registry.database_names(),
                    configs: self.registry.config_names(),
                    workers: self.workers,
                    queued: stats.queued,
                    in_flight: stats.in_flight,
                    panicked: stats.panicked,
                    subscriptions: lock(&self.subscriptions).len(),
                    scheduled: self.scheduler.len(),
                    wal_records: durability.wal_records,
                    wal_bytes: durability.wal_bytes,
                    last_checkpoint_generation: durability.last_checkpoint_generation,
                    recovered_at_start: durability.recovered_at_start,
                    net: self.net.status(),
                })
            }
            // Push registrations need a channel to deliver on: the `net`
            // connection loop intercepts them per connection, and embedded
            // callers hold the `Subscription` the methods return.
            request @ (ServiceRequest::Subscribe { .. } | ServiceRequest::Schedule { .. }) => {
                let kind = request.kind_name();
                Err(PspError::BadRequest {
                    detail: format!(
                        "{kind} delivers events on a channel: call TaraService::{}, \
                         or send it over a net connection",
                        kind.to_lowercase()
                    ),
                })
            }
            ServiceRequest::Unsubscribe { id } => {
                if !self.unregister(id, false) {
                    return Err(PspError::BadRequest {
                        detail: format!("no subscription with id {id}"),
                    });
                }
                Ok(ServiceResponse::Unsubscribed { id })
            }
            ServiceRequest::Unschedule { id } => {
                if !self.unregister(id, true) {
                    return Err(PspError::BadRequest {
                        detail: format!("no scheduled job with id {id}"),
                    });
                }
                Ok(ServiceResponse::Unscheduled { id })
            }
        }
    }

    /// Durability counters, or the all-zero stats when the service runs
    /// without a data directory.
    fn durability_stats(&self) -> DurabilityStats {
        self.durable.as_ref().map_or(
            DurabilityStats {
                wal_records: 0,
                wal_bytes: 0,
                last_checkpoint_generation: None,
                recovered_at_start: false,
            },
            |store| store.stats(),
        )
    }

    /// Registers a monitor subscription delivering into `sink`; returns its
    /// id and what `ack` made of the id and the generation published now.
    /// `ack` runs under the subscriber lock, so whatever it queues comes
    /// before the first delta.
    fn subscribe<T>(
        &self,
        spec: MonitorSpec,
        sink: EventSink,
        ack: impl FnOnce(u64, u64) -> T,
    ) -> Result<(u64, T), PspError> {
        self.registry.lookup_database(&spec.db)?;
        self.registry.lookup_config(&spec.config)?;
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let mut subscribers = lock(&self.subscriptions);
        subscribers.push(Subscriber { id, spec, sink });
        Ok((id, ack(id, self.publisher.snapshot().generation())))
    }

    /// Registers a recurring job delivering into `sink`, returning like
    /// [`subscribe`](Self::subscribe).  `ack` runs under the timetable lock
    /// once the job is on it, so whatever it queues comes before the first
    /// run, and a `Status` that follows the acknowledgement counts the job.
    fn schedule<T>(
        &self,
        request: ServiceRequest,
        every: Duration,
        sink: EventSink,
        ack: impl FnOnce(u64, u64) -> T,
    ) -> Result<(u64, T), PspError> {
        if !request.is_schedulable() {
            return Err(PspError::NotSchedulable {
                request: request.kind_name(),
            });
        }
        if matches!(request, ServiceRequest::Checkpoint) && self.durable.is_none() {
            // A scheduled checkpoint on a non-durable service would tick
            // `not-durable` errors forever; reject at registration instead.
            return Err(PspError::NotDurable);
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let generation = self.publisher.snapshot().generation();
        let acked = self
            .scheduler
            .add(id, request, every, sink, || ack(id, generation));
        Ok((id, acked))
    }

    /// Removes subscription `id`, or scheduled job `id` when `job` is set;
    /// returns whether it was still registered.  This is a fence: the
    /// registration's sink is dropped, and no event reaches it once this
    /// returns (deltas and runs are delivered under the same locks).
    fn unregister(&self, id: u64, job: bool) -> bool {
        if job {
            return self.scheduler.remove(id);
        }
        let mut subscribers = lock(&self.subscriptions);
        let before = subscribers.len();
        subscribers.retain(|subscriber| subscriber.id != id);
        subscribers.len() < before
    }

    /// Re-evaluates every monitor subscription on the latest snapshot and
    /// pushes one [`ServiceEvent::MonitorDelta`] each; called after every
    /// ingest that appended posts, still holding the subscriber lock that
    /// ingest took before it published.  Subscribers whose receiver is gone
    /// are pruned.
    fn notify_subscribers(&self, mut subscribers: MutexGuard<'_, Vec<Subscriber>>) {
        let snapshot = self.publisher.snapshot();
        let generation = snapshot.generation();
        subscribers.retain(|subscriber| {
            let spec = &subscriber.spec;
            // Registration validated the names and the registry is immutable
            // afterwards, so the lookups cannot fail; stay panic-free anyway.
            let (Ok(db), Ok(config)) = (
                self.registry.lookup_database(&spec.db),
                self.registry.lookup_config(&spec.config),
            ) else {
                return false;
            };
            let series = MonitoringSeries::run_on(
                &*snapshot,
                db,
                config,
                &spec.scenario,
                spec.from_year,
                spec.to_year,
                spec.window_years,
            );
            let alerts = series.sai_alerts(spec.alert_threshold);
            subscriber.sink.send(ServiceEvent::MonitorDelta {
                subscription: subscriber.id,
                generation,
                series,
                alerts,
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialsim::scenario;

    fn registry() -> ServiceRegistry {
        ServiceRegistry::new()
            .database("excavator", KeywordDatabase::excavator_seed())
            .config("excavator", PspConfig::excavator_europe())
    }

    fn service() -> TaraService {
        TaraService::with_workers(
            LiveEngine::new(scenario::excavator_europe(7)),
            registry(),
            2,
        )
    }

    #[test]
    fn score_matches_a_standalone_engine_and_stamps_the_generation() {
        let service = service();
        let reference = LiveEngine::new(scenario::excavator_europe(7)).sai_list(
            &KeywordDatabase::excavator_seed(),
            &PspConfig::excavator_europe(),
        );
        match service.handle(ServiceRequest::Score {
            db: "excavator".into(),
            config: "excavator".into(),
        }) {
            ServiceResponse::Score { generation, sai } => {
                assert_eq!(generation, 0);
                assert_eq!(sai, reference);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn unknown_names_answer_with_typed_errors_not_panics() {
        let service = service();
        match service.handle(ServiceRequest::Score {
            db: "nope".into(),
            config: "excavator".into(),
        }) {
            ServiceResponse::Error { error } => {
                assert_eq!(error.kind, "unknown-database");
                assert!(error.detail.contains("nope"));
            }
            other => panic!("unexpected response: {other:?}"),
        }
        match service.handle(ServiceRequest::Sweep {
            db: "excavator".into(),
            config: "missing".into(),
            windows: WindowAxis::default(),
        }) {
            ServiceResponse::Error { error } => assert_eq!(error.kind, "unknown-config"),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn empty_matrix_requests_are_rejected_as_bad_requests() {
        let service = service();
        match service.handle(ServiceRequest::Matrix {
            scenarios: Vec::new(),
            configs: vec!["excavator".into()],
            windows: WindowAxis::default(),
        }) {
            ServiceResponse::Error { error } => assert_eq!(error.kind, "bad-request"),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn ingest_advances_the_generation_seen_by_later_requests() {
        let service = service();
        let batch = scenario::excavator_europe(8).into_posts();
        let appended = batch.len();
        match service.handle(ServiceRequest::Ingest { posts: batch }) {
            ServiceResponse::Ingested {
                appended: got,
                generation,
            } => {
                assert_eq!(got, appended);
                assert_eq!(generation, 1);
            }
            other => panic!("unexpected response: {other:?}"),
        }
        match service.handle(ServiceRequest::Status) {
            ServiceResponse::Status {
                posts,
                generation,
                databases,
                configs,
                workers,
                queued,
                in_flight,
                panicked,
                subscriptions,
                scheduled,
                wal_records,
                wal_bytes,
                last_checkpoint_generation,
                recovered_at_start,
                net,
            } => {
                assert!(posts > 0);
                assert_eq!(generation, 1);
                assert_eq!(databases, vec!["excavator".to_string()]);
                assert_eq!(configs, vec!["excavator".to_string()]);
                assert_eq!(workers, 2);
                assert_eq!((queued, in_flight, panicked), (0, 0, 0));
                assert_eq!((subscriptions, scheduled), (0, 0));
                // Not durable: the durability fields are all zero.
                assert_eq!((wal_records, wal_bytes), (0, 0));
                assert_eq!(last_checkpoint_generation, None);
                assert!(!recovered_at_start);
                // No socket server attached: every net counter is zero.
                assert_eq!(net, net::NetMetrics::default().status());
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn submitted_requests_answer_through_tickets() {
        let service = service();
        let tickets: Vec<_> = (0..4)
            .map(|_| service.submit(ServiceRequest::Status))
            .collect();
        for ticket in tickets {
            match ticket.wait() {
                ServiceResponse::Status { generation, .. } => assert_eq!(generation, 0),
                other => panic!("unexpected response: {other:?}"),
            }
        }
    }

    #[test]
    fn registry_re_registration_replaces_the_entry() {
        let registry = ServiceRegistry::new()
            .config("c", PspConfig::excavator_europe())
            .config("c", PspConfig::passenger_car_europe());
        assert_eq!(registry.config_names(), vec!["c".to_string()]);
        assert_eq!(
            format!("{:?}", registry.lookup_config("c").unwrap()),
            format!("{:?}", PspConfig::passenger_car_europe())
        );
    }

    #[test]
    fn requests_and_responses_round_trip_through_json() {
        let request = ServiceRequest::Sweep {
            db: "excavator".into(),
            config: "excavator".into(),
            windows: WindowAxis::new().window(socialsim::time::DateWindow::years(2020, 2022)),
        };
        let json = serde_json::to_string(&request).unwrap();
        assert_eq!(request, serde_json::from_str(&json).unwrap());

        let response = ServiceResponse::Error {
            error: ServiceError {
                kind: "bad-request".into(),
                detail: "because".into(),
            },
        };
        let json = serde_json::to_string(&response).unwrap();
        assert_eq!(response, serde_json::from_str(&json).unwrap());

        // The recursive Schedule variant (boxed request) round-trips too.
        let request = ServiceRequest::Schedule {
            every_ms: 250,
            request: Box::new(ServiceRequest::Status),
        };
        let json = serde_json::to_string(&request).unwrap();
        assert_eq!(request, serde_json::from_str(&json).unwrap());
    }

    fn monitor_spec() -> MonitorSpec {
        MonitorSpec {
            db: "excavator".into(),
            config: "excavator".into(),
            scenario: "dpf-tampering".into(),
            from_year: 2019,
            to_year: 2023,
            window_years: 2,
            alert_threshold: 0.25,
        }
    }

    /// The `subscriptions` / `scheduled` counts a `Status` reports.
    fn registrations(service: &TaraService) -> (usize, usize) {
        match service.handle(ServiceRequest::Status) {
            ServiceResponse::Status {
                subscriptions,
                scheduled,
                ..
            } => (subscriptions, scheduled),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn embedded_subscriptions_deliver_deltas_and_unsubscribe_through_the_request_path() {
        let service = service();
        // The request path has no channel to deliver on: it refuses instead
        // of registering a subscription nobody drains.
        match service.handle(ServiceRequest::Subscribe {
            spec: monitor_spec(),
        }) {
            ServiceResponse::Error { error } => {
                assert_eq!(error.kind, "bad-request");
                assert!(error.detail.contains("TaraService::subscribe"));
            }
            other => panic!("unexpected response: {other:?}"),
        }
        assert_eq!(registrations(&service), (0, 0));

        let subscription = service.subscribe(monitor_spec()).expect("names resolve");
        assert_eq!(subscription.generation(), 0);
        assert!(subscription.try_recv().is_none(), "no ingest yet");
        let posts = scenario::excavator_europe(9).into_posts();
        let _ = service.handle(ServiceRequest::Ingest { posts });
        match subscription.try_recv() {
            Some(ServiceEvent::MonitorDelta {
                subscription: stamped,
                generation,
                series,
                ..
            }) => {
                assert_eq!(stamped, subscription.id());
                assert_eq!(generation, 1);
                assert_eq!(series.scenario, "dpf-tampering");
            }
            other => panic!("unexpected event: {other:?}"),
        }
        assert!(subscription.try_recv().is_none(), "one delta per ingest");

        let id = subscription.id();
        match service.handle(ServiceRequest::Unsubscribe { id }) {
            ServiceResponse::Unsubscribed { id: gone } => assert_eq!(gone, id),
            other => panic!("unexpected response: {other:?}"),
        }
        match service.handle(ServiceRequest::Unsubscribe { id }) {
            ServiceResponse::Error { error } => assert_eq!(error.kind, "bad-request"),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn subscriptions_validate_registry_names() {
        let service = service();
        let mut spec = monitor_spec();
        spec.db = "nope".into();
        let error = service.subscribe(spec).unwrap_err();
        assert_eq!(error.kind(), "unknown-database");
    }

    #[test]
    fn mutating_requests_cannot_be_scheduled() {
        let service = service();
        let every = Duration::from_millis(10);
        let error = service
            .schedule(ServiceRequest::Ingest { posts: Vec::new() }, every)
            .unwrap_err();
        assert_eq!(error.kind(), "not-schedulable");
        assert!(error.to_string().contains("Ingest"));
        assert!(!ServiceRequest::Unsubscribe { id: 1 }.is_schedulable());
        assert!(ServiceRequest::Status.is_schedulable());
        assert!(ServiceRequest::Checkpoint.is_schedulable());

        // Checkpoint is schedulable in principle, but not on a service
        // without a data directory — that would tick errors forever.
        let error = service
            .schedule(ServiceRequest::Checkpoint, every)
            .unwrap_err();
        assert_eq!(error.kind(), "not-durable");
    }

    #[test]
    fn checkpoint_on_a_non_durable_service_answers_not_durable() {
        let service = service();
        match service.handle(ServiceRequest::Checkpoint) {
            ServiceResponse::Error { error } => {
                assert_eq!(error.kind, "not-durable");
                assert!(error.detail.contains("data directory"));
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn scheduled_jobs_register_embedded_and_unschedule_through_the_request_path() {
        let service = service();
        match service.handle(ServiceRequest::Schedule {
            every_ms: 10,
            request: Box::new(ServiceRequest::Status),
        }) {
            ServiceResponse::Error { error } => {
                assert_eq!(error.kind, "bad-request");
                assert!(error.detail.contains("TaraService::schedule"));
            }
            other => panic!("unexpected response: {other:?}"),
        }
        assert_eq!(registrations(&service), (0, 0));

        // A zero interval is clamped to 1ms, not rejected: the job ticks.
        let job = service
            .schedule(ServiceRequest::Status, Duration::ZERO)
            .expect("Status is schedulable");
        match job.recv_timeout(Duration::from_secs(30)) {
            Some(ServiceEvent::ScheduledRun { job: stamped, .. }) => {
                assert_eq!(stamped, job.id());
            }
            other => panic!("unexpected event: {other:?}"),
        }
        assert_eq!(registrations(&service), (0, 1));
        let id = job.id();
        match service.handle(ServiceRequest::Unschedule { id }) {
            ServiceResponse::Unscheduled { id: gone } => assert_eq!(gone, id),
            other => panic!("unexpected response: {other:?}"),
        }
        match service.handle(ServiceRequest::Unschedule { id }) {
            ServiceResponse::Error { error } => assert_eq!(error.kind, "bad-request"),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn deadline_results_match_the_plain_path_bit_for_bit() {
        // A deadline checked inside the engine between profile jobs and
        // plan rows must not change a single bit of an unexpired answer.
        let service = service();
        let request = ServiceRequest::Sweep {
            db: "excavator".into(),
            config: "excavator".into(),
            windows: WindowAxis::new()
                .window(socialsim::time::DateWindow::years(2019, 2021))
                .full_history()
                .window(socialsim::time::DateWindow::years(2022, 2023)),
        };
        let plain = service.handle(request.clone());
        let under_deadline = service
            .submit_with_deadline(request, Duration::from_secs(600))
            .wait();
        assert_eq!(plain, under_deadline);
    }
}
