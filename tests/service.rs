//! Concurrency suite for the TARA service: snapshot isolation under load.
//!
//! The property being pinned: a response computed while ingest runs is
//! **bit-identical** to what a standalone engine that stopped at the
//! response's stamped generation would produce.  No torn reads, no partially
//! visible batches, no drift between the snapshot path and a cold engine —
//! across forced shim thread counts, through both the synchronous `handle`
//! path and the worker-pool `submit` path.

use psp_suite::psp::classify::AttackOrigin;
use psp_suite::psp::config::PspConfig;
use psp_suite::psp::engine::{
    CellId, IngestReceipt, MatrixSpec, SaiScorer, SignalCacheFile, StreamingScorer, WindowAxis,
};
use psp_suite::psp::keyword_db::{KeywordDatabase, KeywordProfile};
use psp_suite::psp::monitoring::MonitoringSeries;
use psp_suite::psp::sai::SaiList;
use psp_suite::psp::service::{
    MonitorSpec, ServiceEvent, ServiceRegistry, ServiceRequest, ServiceResponse, TaraService,
};
use psp_suite::psp::LiveEngine;
use psp_suite::socialsim::corpus::Corpus;
use psp_suite::socialsim::post::Post;
use psp_suite::socialsim::scenario;
use psp_suite::socialsim::time::DateWindow;
use psp_suite::vehicle::attack_surface::AttackVector;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Runs `f` under a forced shim thread count; a no-op pass-through when the
/// real rayon is swapped in.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    #[cfg(feature = "shim-rayon")]
    {
        rayon::with_thread_count(threads, f)
    }
    #[cfg(not(feature = "shim-rayon"))]
    {
        let _ = threads;
        f()
    }
}

/// The sweep axis every test asks for: full history plus two paper windows.
fn axis() -> WindowAxis {
    WindowAxis::new()
        .full_history()
        .window(DateWindow::years(2019, 2021))
        .window(DateWindow::years(2021, 2023))
}

/// Per-generation reference answers, computed on standalone engines.
struct References {
    score: Vec<SaiList>,
    sweep: Vec<Vec<SaiList>>,
    matrix: Vec<Vec<(CellId, SaiList)>>,
}

fn matrix_spec(db: &KeywordDatabase, config: &PspConfig) -> MatrixSpec {
    MatrixSpec::new()
        .scenario("excavator", db.clone())
        .config("excavator", config.clone())
        .window_axis(&axis())
}

fn references(chunks: &[Vec<Post>], db: &KeywordDatabase, config: &PspConfig) -> References {
    let spec = matrix_spec(db, config);
    let mut refs = References {
        score: Vec::new(),
        sweep: Vec::new(),
        matrix: Vec::new(),
    };
    for generation in 0..=chunks.len() {
        let mut engine = LiveEngine::new(Corpus::new());
        for chunk in &chunks[..generation] {
            engine.ingest_batch(chunk.clone());
        }
        assert_eq!(engine.generation(), generation as u64);
        refs.score.push(engine.sai_list(db, config));
        refs.sweep.push(engine.sai_windows(db, config, &axis()));
        refs.matrix.push(engine.sai_matrix(&spec).into_cells());
    }
    refs
}

/// The stress harness: `readers` reader threads hammer Score/Sweep/Matrix
/// through the synchronous path while the main thread ingests one batch at a
/// time.  Every response must equal the standalone reference at its stamped
/// generation.
#[test]
fn concurrent_responses_are_bit_exact_on_the_live_engine() {
    let posts = scenario::excavator_europe(42).into_posts();
    let chunks: Vec<Vec<Post>> = posts.chunks(520).map(<[Post]>::to_vec).collect();
    let db = KeywordDatabase::excavator_seed();
    let config = PspConfig::excavator_europe();
    let refs = references(&chunks, &db, &config);

    let registry = ServiceRegistry::new()
        .database("excavator", db.clone())
        .config("excavator", config.clone());
    let service = TaraService::with_workers(LiveEngine::new(Corpus::new()), registry, 2);

    let done = AtomicBool::new(false);
    let checked = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for reader in 0..3_usize {
            let (service, refs, done, checked) = (&service, &refs, &done, &checked);
            scope.spawn(move || {
                with_threads(1 + reader % 3, || {
                    let mut rounds = 0_usize;
                    // Keep reading until the writer finishes, then one final
                    // round against the settled engine.
                    while rounds == 0 || !done.load(Ordering::SeqCst) {
                        rounds += 1;
                        match reader % 3 {
                            0 => match service.handle(ServiceRequest::Score {
                                db: "excavator".into(),
                                config: "excavator".into(),
                            }) {
                                ServiceResponse::Score { generation, sai } => {
                                    assert_eq!(sai, refs.score[generation as usize]);
                                }
                                other => panic!("unexpected response: {other:?}"),
                            },
                            1 => match service.handle(ServiceRequest::Sweep {
                                db: "excavator".into(),
                                config: "excavator".into(),
                                windows: axis(),
                            }) {
                                ServiceResponse::Sweep { generation, lists } => {
                                    assert_eq!(lists, refs.sweep[generation as usize]);
                                }
                                other => panic!("unexpected response: {other:?}"),
                            },
                            _ => match service.handle(ServiceRequest::Matrix {
                                scenarios: vec!["excavator".into()],
                                configs: vec!["excavator".into()],
                                windows: axis(),
                            }) {
                                ServiceResponse::Matrix { generation, cells } => {
                                    assert_eq!(cells, refs.matrix[generation as usize]);
                                }
                                other => panic!("unexpected response: {other:?}"),
                            },
                        }
                    }
                    checked.fetch_add(rounds, Ordering::SeqCst);
                });
            });
        }

        // The writer: publish one generation per batch, yielding so readers
        // get scheduled between (and during) publications.
        for (n, chunk) in chunks.iter().enumerate() {
            match service.handle(ServiceRequest::Ingest {
                posts: chunk.clone(),
            }) {
                ServiceResponse::Ingested {
                    appended,
                    generation,
                } => {
                    assert_eq!(appended, chunk.len());
                    assert_eq!(generation, n as u64 + 1);
                }
                other => panic!("unexpected response: {other:?}"),
            }
            std::thread::yield_now();
        }
        done.store(true, Ordering::SeqCst);
    });
    assert!(checked.load(Ordering::SeqCst) >= 3, "every reader ran");

    // After the dust settles the service serves the final generation, and the
    // pooled path answers with the same bits as the synchronous path.
    match service.handle(ServiceRequest::Status) {
        ServiceResponse::Status {
            posts: served,
            generation,
            ..
        } => {
            assert_eq!(served, posts.len());
            assert_eq!(generation, chunks.len() as u64);
        }
        other => panic!("unexpected response: {other:?}"),
    }
    let tickets: Vec<_> = (0..3)
        .map(|n| {
            service.submit(match n {
                0 => ServiceRequest::Score {
                    db: "excavator".into(),
                    config: "excavator".into(),
                },
                1 => ServiceRequest::Sweep {
                    db: "excavator".into(),
                    config: "excavator".into(),
                    windows: axis(),
                },
                _ => ServiceRequest::Matrix {
                    scenarios: vec!["excavator".into()],
                    configs: vec!["excavator".into()],
                    windows: axis(),
                },
            })
        })
        .collect();
    for ticket in tickets {
        match ticket.wait() {
            ServiceResponse::Score { generation, sai } => {
                assert_eq!(sai, refs.score[generation as usize]);
            }
            ServiceResponse::Sweep { generation, lists } => {
                assert_eq!(lists, refs.sweep[generation as usize]);
            }
            ServiceResponse::Matrix { generation, cells } => {
                assert_eq!(cells, refs.matrix[generation as usize]);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
}

#[test]
fn a_snapshot_taken_before_ingest_keeps_answering_its_generation() {
    let db = KeywordDatabase::excavator_seed();
    let config = PspConfig::excavator_europe();
    let registry = ServiceRegistry::new()
        .database("excavator", db.clone())
        .config("excavator", config.clone());
    let service =
        TaraService::with_workers(LiveEngine::new(scenario::excavator_europe(7)), registry, 1);

    let pinned = service.snapshot();
    let before = pinned.sai_list(&db, &config);
    match service.handle(ServiceRequest::Ingest {
        posts: scenario::excavator_europe(8).into_posts(),
    }) {
        ServiceResponse::Ingested { generation, .. } => assert_eq!(generation, 1),
        other => panic!("unexpected response: {other:?}"),
    }
    // The pinned snapshot still serves generation 0 bit-for-bit...
    assert_eq!(pinned.generation(), 0);
    assert_eq!(pinned.sai_list(&db, &config), before);
    assert_eq!(
        before,
        LiveEngine::new(scenario::excavator_europe(7)).sai_list(&db, &config)
    );
    // ...while the service has moved on.
    match service.handle(ServiceRequest::Score {
        db: "excavator".into(),
        config: "excavator".into(),
    }) {
        ServiceResponse::Score { generation, sai } => {
            assert_eq!(generation, 1);
            assert_ne!(sai, before);
        }
        other => panic!("unexpected response: {other:?}"),
    }
}

#[test]
fn the_wire_layer_round_trips_every_request_shape() {
    use psp_suite::psp::service::wire::{
        decode_request, encode_response, WireRequest, WireResponse,
    };

    let requests = vec![
        ServiceRequest::Status,
        ServiceRequest::ExportCache,
        ServiceRequest::Score {
            db: "excavator".into(),
            config: "excavator".into(),
        },
        ServiceRequest::Sweep {
            db: "excavator".into(),
            config: "excavator".into(),
            windows: axis(),
        },
        ServiceRequest::Matrix {
            scenarios: vec!["excavator".into()],
            configs: vec!["excavator".into()],
            windows: axis(),
        },
        ServiceRequest::Ingest {
            posts: scenario::excavator_europe(8).into_posts()[..3].to_vec(),
        },
    ];
    let registry = ServiceRegistry::new()
        .database("excavator", KeywordDatabase::excavator_seed())
        .config("excavator", PspConfig::excavator_europe());
    let service =
        TaraService::with_workers(LiveEngine::new(scenario::excavator_europe(7)), registry, 1);

    for (id, request) in requests.into_iter().enumerate() {
        let id = id as u64 + 1;
        let line = serde_json::to_string(&WireRequest {
            id,
            request: request.clone(),
        })
        .unwrap();
        let decoded = decode_request(&line).unwrap();
        assert_eq!(decoded.id, id);
        assert_eq!(decoded.request, request);

        // Execute and round-trip the response line too: everything the
        // service can answer must survive the wire.
        let response = service.handle(decoded.request);
        let wire = WireResponse { id, response };
        let encoded = encode_response(&wire);
        assert_eq!(
            serde_json::from_str::<WireResponse>(&encoded).unwrap(),
            wire
        );
    }
}

// ---------------------------------------------------------------------------
// Hardening: panic resilience, deadlines, subscriptions, scheduled sweeps.
// ---------------------------------------------------------------------------

/// The keyword that makes [`ChaosEngine`] panic when it appears in the
/// scored database.
const CHAOS_KEYWORD: &str = "panictag";

/// A database whose only profile carries the chaos trigger keyword.
fn chaos_db() -> KeywordDatabase {
    let mut db = KeywordDatabase::new();
    db.insert(KeywordProfile::manual(
        CHAOS_KEYWORD,
        "chaos",
        AttackVector::Local,
        AttackOrigin::Insider,
    ));
    db
}

/// An engine that panics when asked to score the chaos database — the
/// injected fault for the panic-resilience tests.  Everything else
/// delegates to a real [`LiveEngine`].
#[derive(Debug, Clone)]
struct ChaosEngine {
    inner: LiveEngine,
}

impl SaiScorer for ChaosEngine {
    fn sai_list(&self, db: &KeywordDatabase, config: &PspConfig) -> SaiList {
        assert!(!db.contains(CHAOS_KEYWORD), "chaos: injected scoring panic");
        self.inner.sai_list(db, config)
    }
}

impl StreamingScorer for ChaosEngine {
    fn ingest_batch(&mut self, batch: Vec<Post>) -> IngestReceipt {
        self.inner.ingest_batch(batch)
    }

    fn post_count(&self) -> usize {
        self.inner.post_count()
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn export_signal_cache(&self) -> SignalCacheFile {
        self.inner.export_signal_cache()
    }

    fn corpus(&self) -> &Corpus {
        self.inner.corpus()
    }

    fn restore_generation(&mut self, generation: u64) {
        self.inner.restore_generation(generation);
    }
}

/// An engine that sleeps on every scoring call, so a short per-request
/// deadline reliably expires at the engine's check between windows
/// mid-sweep (it implements only `sai_list`, so it sweeps through the
/// trait's per-window default).  When `started` is set, each call signals
/// it before sleeping.
#[derive(Debug, Clone)]
struct SlowEngine {
    inner: LiveEngine,
    delay: Duration,
    started: Option<mpsc::Sender<()>>,
}

impl SaiScorer for SlowEngine {
    fn sai_list(&self, db: &KeywordDatabase, config: &PspConfig) -> SaiList {
        if let Some(started) = &self.started {
            let _ = started.send(());
        }
        std::thread::sleep(self.delay);
        self.inner.sai_list(db, config)
    }
}

impl StreamingScorer for SlowEngine {
    fn ingest_batch(&mut self, batch: Vec<Post>) -> IngestReceipt {
        self.inner.ingest_batch(batch)
    }

    fn post_count(&self) -> usize {
        self.inner.post_count()
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn export_signal_cache(&self) -> SignalCacheFile {
        self.inner.export_signal_cache()
    }

    fn corpus(&self) -> &Corpus {
        self.inner.corpus()
    }

    fn restore_generation(&mut self, generation: u64) {
        self.inner.restore_generation(generation);
    }
}

/// The tentpole regression: a panicking request used to kill its
/// `tara-worker-*` thread for good (and leave its ticket hanging).  It must
/// answer the ticket with a structured `internal-error` response, and the
/// pool must keep serving afterwards.
#[test]
fn a_panicking_request_answers_its_ticket_and_the_worker_survives() {
    let registry = ServiceRegistry::new()
        .database("excavator", KeywordDatabase::excavator_seed())
        .database("chaos", chaos_db())
        .config("excavator", PspConfig::excavator_europe());
    let service = TaraService::with_workers(
        ChaosEngine {
            inner: LiveEngine::new(scenario::excavator_europe(7)),
        },
        registry,
        1,
    );

    let ticket = service.submit(ServiceRequest::Score {
        db: "chaos".into(),
        config: "excavator".into(),
    });
    match ticket.wait() {
        ServiceResponse::Error { error } => {
            assert_eq!(error.kind, "internal-error");
            assert!(error.detail.contains("chaos"), "detail: {}", error.detail);
        }
        other => panic!("unexpected response: {other:?}"),
    }

    // The single worker survived the panic: a normal request still completes.
    match service
        .submit(ServiceRequest::Score {
            db: "excavator".into(),
            config: "excavator".into(),
        })
        .wait()
    {
        ServiceResponse::Score { generation, .. } => assert_eq!(generation, 0),
        other => panic!("unexpected response: {other:?}"),
    }
}

/// A storm of panicking requests — more than there are workers — must not
/// shrink the pool, and `Status` must count every caught panic.
#[test]
fn a_panic_storm_leaves_the_pool_fully_alive() {
    let registry = ServiceRegistry::new()
        .database("excavator", KeywordDatabase::excavator_seed())
        .database("chaos", chaos_db())
        .config("excavator", PspConfig::excavator_europe());
    let service = TaraService::with_workers(
        ChaosEngine {
            inner: LiveEngine::new(scenario::excavator_europe(7)),
        },
        registry,
        2,
    );

    let storm = 6;
    let tickets: Vec<_> = (0..storm)
        .map(|_| {
            service.submit(ServiceRequest::Score {
                db: "chaos".into(),
                config: "excavator".into(),
            })
        })
        .collect();
    for ticket in tickets {
        match ticket.wait() {
            ServiceResponse::Error { error } => assert_eq!(error.kind, "internal-error"),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    // Every worker is still draining: a burst wider than the pool completes.
    let tickets: Vec<_> = (0..4)
        .map(|_| service.submit(ServiceRequest::Status))
        .collect();
    for ticket in tickets {
        match ticket.wait() {
            ServiceResponse::Status { panicked, .. } => assert_eq!(panicked, storm),
            other => panic!("unexpected response: {other:?}"),
        }
    }
}

/// A slow request under a short deadline answers `Expired` (checked inside
/// the engine, here between sweep windows) instead of hanging, and the
/// service keeps serving afterwards.
#[test]
fn deadline_expiry_answers_expired_without_hanging() {
    let registry = ServiceRegistry::new()
        .database("excavator", KeywordDatabase::excavator_seed())
        .config("excavator", PspConfig::excavator_europe());
    let service = TaraService::with_workers(
        SlowEngine {
            inner: LiveEngine::new(scenario::excavator_europe(7)),
            delay: Duration::from_millis(25),
            started: None,
        },
        registry,
        1,
    );

    let ticket = service.submit_with_deadline(
        ServiceRequest::Sweep {
            db: "excavator".into(),
            config: "excavator".into(),
            windows: axis(),
        },
        Duration::from_millis(5),
    );
    match ticket.wait() {
        ServiceResponse::Expired { waited_ms } => assert!(waited_ms >= 5, "waited {waited_ms}ms"),
        other => panic!("unexpected response: {other:?}"),
    }

    // An ample deadline answers normally through the same path.
    match service
        .submit_with_deadline(ServiceRequest::Status, Duration::from_secs(600))
        .wait()
    {
        ServiceResponse::Status { generation, .. } => assert_eq!(generation, 0),
        other => panic!("unexpected response: {other:?}"),
    }
}

/// A deadline is checked inside the engine between profile jobs and plan
/// rows; an unexpired run must not change a single bit of the answer
/// relative to the plain path — including a matrix with an empty window
/// grid, where each configuration's own window applies.
#[test]
fn deadline_path_results_are_bit_identical_to_the_plain_path() {
    let registry = ServiceRegistry::new()
        .database("excavator", KeywordDatabase::excavator_seed())
        .database("passenger-car", KeywordDatabase::passenger_car_seed())
        .config("excavator", PspConfig::excavator_europe())
        .config("passenger-car", PspConfig::passenger_car_europe());
    let service =
        TaraService::with_workers(LiveEngine::new(scenario::excavator_europe(7)), registry, 2);

    let requests = vec![
        ServiceRequest::Sweep {
            db: "excavator".into(),
            config: "excavator".into(),
            windows: axis(),
        },
        ServiceRequest::Matrix {
            scenarios: vec!["excavator".into(), "passenger-car".into()],
            configs: vec!["excavator".into(), "passenger-car".into()],
            windows: axis(),
        },
        ServiceRequest::Matrix {
            scenarios: vec!["excavator".into()],
            configs: vec!["excavator".into(), "passenger-car".into()],
            windows: WindowAxis::new(), // empty grid: each config's own window
        },
    ];
    for request in requests {
        let plain = service.handle(request.clone());
        let under_deadline = service
            .submit_with_deadline(request, Duration::from_secs(600))
            .wait();
        assert_eq!(plain, under_deadline);
    }
}

/// The monitor spec every subscription test watches.
fn dpf_spec() -> MonitorSpec {
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

/// Subscription deltas must be bit-identical to a cold monitoring run on a
/// standalone engine stopped at the delta's stamped generation.
#[test]
fn subscription_deltas_are_bit_exact_on_the_live_engine() {
    let posts = scenario::excavator_europe(42).into_posts();
    let chunks: Vec<Vec<Post>> = posts.chunks(700).map(<[Post]>::to_vec).collect();
    let db = KeywordDatabase::excavator_seed();
    let config = PspConfig::excavator_europe();
    let spec = dpf_spec();

    let registry = ServiceRegistry::new()
        .database("excavator", db.clone())
        .config("excavator", config.clone());
    let service = TaraService::with_workers(LiveEngine::new(Corpus::new()), registry, 1);
    let subscription = service.subscribe(spec.clone()).expect("valid spec");

    let mut reference = LiveEngine::new(Corpus::new());
    for (n, chunk) in chunks.iter().enumerate() {
        match service.handle(ServiceRequest::Ingest {
            posts: chunk.clone(),
        }) {
            ServiceResponse::Ingested { generation, .. } => assert_eq!(generation, n as u64 + 1),
            other => panic!("unexpected response: {other:?}"),
        }
        // The delta was pushed synchronously during the ingest request.
        let event = subscription
            .recv_timeout(Duration::from_secs(10))
            .expect("one delta per ingest");
        let ServiceEvent::MonitorDelta {
            subscription: id,
            generation,
            series,
            alerts,
        } = event
        else {
            panic!("unexpected event");
        };
        assert_eq!(id, subscription.id());
        assert_eq!(generation, n as u64 + 1);

        // Cold reference at the stamped generation.
        reference.ingest(chunk.clone());
        let cold = MonitoringSeries::run_on(
            &reference,
            &db,
            &config,
            &spec.scenario,
            spec.from_year,
            spec.to_year,
            spec.window_years,
        );
        assert_eq!(series, cold, "delta != cold run at generation {generation}");
        assert_eq!(alerts, cold.sai_alerts(spec.alert_threshold));
    }
}

/// An empty ingest publishes nothing and must push no delta.
#[test]
fn empty_ingests_push_no_deltas() {
    let registry = ServiceRegistry::new()
        .database("excavator", KeywordDatabase::excavator_seed())
        .config("excavator", PspConfig::excavator_europe());
    let service =
        TaraService::with_workers(LiveEngine::new(scenario::excavator_europe(7)), registry, 1);
    let subscription = service.subscribe(dpf_spec()).expect("valid spec");
    match service.handle(ServiceRequest::Ingest { posts: Vec::new() }) {
        ServiceResponse::Ingested {
            appended,
            generation,
        } => assert_eq!((appended, generation), (0, 0)),
        other => panic!("unexpected response: {other:?}"),
    }
    assert!(
        subscription.try_recv().is_none(),
        "no publication, no delta"
    );
}

/// Scheduled runs under concurrent ingest: every tick must land on *some*
/// published generation and carry exactly that generation's bits.
#[test]
fn scheduler_ticks_stay_bit_exact_under_concurrent_ingest() {
    let posts = scenario::excavator_europe(42).into_posts();
    let chunks: Vec<Vec<Post>> = posts.chunks(700).map(<[Post]>::to_vec).collect();
    let db = KeywordDatabase::excavator_seed();
    let config = PspConfig::excavator_europe();
    let refs = references(&chunks, &db, &config);

    let registry = ServiceRegistry::new()
        .database("excavator", db.clone())
        .config("excavator", config.clone());
    let service = TaraService::with_workers(LiveEngine::new(Corpus::new()), registry, 1);

    let job = service
        .schedule(
            ServiceRequest::Score {
                db: "excavator".into(),
                config: "excavator".into(),
            },
            Duration::from_millis(10),
        )
        .expect("schedulable request");

    // Ingest while the scheduler ticks, pausing so ticks land between (and
    // during) publications.
    for chunk in &chunks {
        let _ = service.handle(ServiceRequest::Ingest {
            posts: chunk.clone(),
        });
        std::thread::sleep(Duration::from_millis(15));
    }

    // Every tick is bit-identical to the standalone reference at its stamped
    // generation.
    let check = |event: ServiceEvent| {
        let ServiceEvent::ScheduledRun { job: id, response } = event else {
            panic!("unexpected event");
        };
        assert_eq!(id, job.id());
        match response {
            ServiceResponse::Score { generation, sai } => {
                assert_eq!(sai, refs.score[generation as usize]);
            }
            other => panic!("unexpected scheduled response: {other:?}"),
        }
    };
    // At least one tick arrives (10ms interval over >= 45ms of ingesting).
    let mut ticks = 0;
    while let Some(event) = job.recv_timeout(Duration::from_millis(50)) {
        check(event);
        ticks += 1;
        if ticks >= 3 {
            break;
        }
    }
    assert!(ticks >= 1, "the scheduler delivered at least one run");

    // `Unscheduled` is a fence: every run delivered before it is already
    // queued (and bit-exact too), and the job's channel is disconnected — so
    // once the queue is drained a receive answers at once with nothing, where
    // a live job would deliver its next 10 ms tick.  No silence window.
    match service.handle(ServiceRequest::Unschedule { id: job.id() }) {
        ServiceResponse::Unscheduled { id } => assert_eq!(id, job.id()),
        other => panic!("unexpected response: {other:?}"),
    }
    while let Some(event) = job.try_recv() {
        check(event);
    }
    assert!(job.recv_timeout(Duration::from_secs(30)).is_none());
}

/// A job added while the scheduler runs another job's slow request gets its
/// first run on its own interval: the scheduler reads its next deadline from
/// the timetable after the due requests ran, not from before them.
#[test]
fn a_job_added_during_a_slow_scheduled_run_is_not_slept_past() {
    let (started, starts) = mpsc::channel();
    let registry = ServiceRegistry::new()
        .database("excavator", KeywordDatabase::excavator_seed())
        .config("excavator", PspConfig::excavator_europe());
    let service = TaraService::with_workers(
        SlowEngine {
            inner: LiveEngine::new(scenario::excavator_europe(7)),
            delay: Duration::from_millis(300),
            started: Some(started),
        },
        registry,
        1,
    );
    let slow = service
        .schedule(
            ServiceRequest::Score {
                db: "excavator".into(),
                config: "excavator".into(),
            },
            Duration::from_secs(2),
        )
        .expect("schedulable request");
    starts
        .recv_timeout(Duration::from_secs(30))
        .expect("the slow job's first run starts");
    std::thread::sleep(Duration::from_millis(100));

    let added = Instant::now();
    let fast = service
        .schedule(ServiceRequest::Status, Duration::from_millis(10))
        .expect("schedulable request");
    match fast.recv_timeout(Duration::from_secs(30)) {
        Some(ServiceEvent::ScheduledRun { job, .. }) => assert_eq!(job, fast.id()),
        other => panic!("unexpected event: {other:?}"),
    }
    let waited = added.elapsed();
    assert!(
        waited < Duration::from_secs(1),
        "first run of a 10 ms job came {waited:?} after it was added"
    );
    for id in [slow.id(), fast.id()] {
        let _ = service.handle(ServiceRequest::Unschedule { id });
    }
}

/// An engine whose ingest signals `started` and then blocks until `release`
/// answers (or 60 s pass) before appending — the injected slow ingest for
/// the snapshot-isolation test.  Scoring delegates to a real [`LiveEngine`].
#[derive(Debug, Clone)]
struct GatedIngestEngine {
    inner: LiveEngine,
    started: mpsc::Sender<()>,
    release: std::sync::Arc<std::sync::Mutex<mpsc::Receiver<()>>>,
}

impl SaiScorer for GatedIngestEngine {
    fn sai_list(&self, db: &KeywordDatabase, config: &PspConfig) -> SaiList {
        self.inner.sai_list(db, config)
    }
}

impl StreamingScorer for GatedIngestEngine {
    fn ingest_batch(&mut self, batch: Vec<Post>) -> IngestReceipt {
        let _ = self.started.send(());
        let _ = self
            .release
            .lock()
            .expect("one ingest at a time")
            .recv_timeout(Duration::from_secs(60));
        self.inner.ingest_batch(batch)
    }

    fn post_count(&self) -> usize {
        self.inner.post_count()
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn export_signal_cache(&self) -> SignalCacheFile {
        self.inner.export_signal_cache()
    }

    fn corpus(&self) -> &Corpus {
        self.inner.corpus()
    }

    fn restore_generation(&mut self, generation: u64) {
        self.inner.restore_generation(generation);
    }
}

/// Snapshot isolation, deterministically: while an ingest is blocked inside
/// the engine, a `Score` answers at the published generation (0) instead of
/// waiting for the ingest; once released, the ingest answers generation 1
/// and a later `Score` reads it.
#[test]
fn a_read_never_waits_for_an_ingest() {
    let db = KeywordDatabase::excavator_seed();
    let config = PspConfig::excavator_europe();
    let (started, starts) = mpsc::channel();
    let (release, gate) = mpsc::channel();
    let registry = ServiceRegistry::new()
        .database("excavator", db.clone())
        .config("excavator", config.clone());
    let service = TaraService::with_workers(
        GatedIngestEngine {
            inner: LiveEngine::new(scenario::excavator_europe(7)),
            started,
            release: std::sync::Arc::new(std::sync::Mutex::new(gate)),
        },
        registry,
        1,
    );
    let score = || {
        service
            .submit(ServiceRequest::Score {
                db: "excavator".into(),
                config: "excavator".into(),
            })
            .wait_timeout(Duration::from_secs(10))
    };
    let batch = scenario::excavator_europe(8).into_posts();
    std::thread::scope(|scope| {
        let ingest = scope.spawn(|| service.handle(ServiceRequest::Ingest { posts: batch }));
        starts
            .recv_timeout(Duration::from_secs(30))
            .expect("the ingest reached the engine");
        let during = score();
        release.send(()).expect("the ingest waits on the gate");
        match during {
            Ok(ServiceResponse::Score { generation, sai }) => {
                assert_eq!(generation, 0);
                assert_eq!(
                    sai,
                    SaiList::compute_naive(&scenario::excavator_europe(7), &db, &config)
                );
            }
            Ok(other) => panic!("unexpected response: {other:?}"),
            Err(_) => panic!("a Score waited 10 s behind a blocked ingest"),
        }
        match ingest.join().expect("the ingest thread finishes") {
            ServiceResponse::Ingested { generation, .. } => assert_eq!(generation, 1),
            other => panic!("unexpected response: {other:?}"),
        }
    });
    match score() {
        Ok(ServiceResponse::Score { generation, .. }) => assert_eq!(generation, 1),
        Ok(other) => panic!("unexpected response: {other:?}"),
        Err(_) => panic!("a Score after the ingest did not answer"),
    }
}
