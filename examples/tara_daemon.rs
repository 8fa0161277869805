//! The TARA service daemon: the PSP scoring engines served as a long-running
//! process speaking line-JSON over stdin/stdout.
//!
//! Each input line is a `WireRequest` (`{"id":N,"request":{...}}`); each
//! produces exactly one `WireResponse` line, unparseable input included.
//! Requests run on the service's worker pool over snapshot-isolated engine
//! generations: scoring requests never block behind an ingest, and every
//! response stamps the generation it was computed at.
//!
//! ```text
//! cargo run --release --example tara_daemon            # serve stdin, in-memory
//! cargo run --release --example tara_daemon -- --demo  # scripted transcript
//! cargo run --release --example tara_daemon -- --data-dir /var/lib/tara
//! cargo run --release --example tara_daemon -- --data-dir /var/lib/tara --recover
//! cargo run --release --example tara_daemon -- --gen-batch 8   # print an ingest line
//! cargo run --release --example tara_daemon -- --listen 127.0.0.1:4714
//! cargo run --release --example tara_daemon -- --listen 127.0.0.1:0 --data-dir /var/lib/tara
//! echo '{"id":1,"request":"Status"}' | cargo run --release --example tara_daemon
//! ```
//!
//! Both transports run the same connection loop (`psp::service::net`):
//! stdin/stdout through `net::serve_stream`, and `--listen ADDR` over TCP
//! through `SocketServer` — concurrent connections with admission control,
//! per-connection deadlines, slow-consumer disconnection and a connection
//! cap.  Requests pipeline and answer in input order; `Subscribe` /
//! `Schedule` push `{"event":…}` lines on the stream that asked for them.
//! The resolved address is printed to stderr (`listening on …`), so drivers
//! can pass port 0 and parse the port.  SIGTERM (or SIGINT) on the socket,
//! or EOF on stdin, starts a graceful drain: intake stops, every admitted
//! request is answered (a trailing unterminated stdin line included), and a
//! durable daemon writes a final checkpoint before exiting 0.  Both
//! transports bound input lines to `--max-line-bytes` (default 1 MiB),
//! answering a structured `line-too-long` error instead of buffering
//! unboundedly.
//!
//! With `--data-dir` the daemon is durable: ingests append to a checksummed
//! write-ahead journal before they publish, `Checkpoint` requests persist the
//! corpus atomically, and startup recovers the newest valid checkpoint plus
//! the journal tail — so a `kill -9` mid-ingest loses at most the batches
//! whose responses were never sent.  `--recover` makes startup *strict*: it
//! exits non-zero unless prior state was actually found (the CI recovery
//! smoke uses this to assert the restart really replayed).  `--gen-batch N`
//! prints the wire-format ingest line for deterministic batch `N`, so shell
//! drivers can feed the daemon without hand-writing JSON.
//!
//! The registry serves the two paper scenes: databases/configs are named
//! `excavator` and `passenger-car`.

use psp_suite::psp::config::PspConfig;
use psp_suite::psp::engine::{LiveEngine, WindowAxis};
use psp_suite::psp::keyword_db::KeywordDatabase;
use psp_suite::psp::service::durability::{DurableStore, RecoveryReport};
use psp_suite::psp::service::journal::FaultFs;
use psp_suite::psp::service::net::{self, NetConfig, SocketServer};
use psp_suite::psp::service::wire::{encode_request, WireRequest};
use psp_suite::psp::service::{
    MonitorSpec, ServiceEvent, ServiceRegistry, ServiceRequest, ServiceResponse, TaraService,
};
use psp_suite::socialsim::scenario;
use psp_suite::socialsim::time::DateWindow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn build_registry() -> ServiceRegistry {
    ServiceRegistry::new()
        .database("excavator", KeywordDatabase::excavator_seed())
        .database("passenger-car", KeywordDatabase::passenger_car_seed())
        .config("excavator", PspConfig::excavator_europe())
        .config("passenger-car", PspConfig::passenger_car_europe())
}

/// The demo's pool size, fixed so that its transcript is the same on every
/// host.
const DEMO_WORKERS: usize = 2;

/// A service on `workers` pool threads.
fn build_service(workers: usize) -> TaraService {
    TaraService::with_workers(
        LiveEngine::new(scenario::excavator_europe(7)),
        build_registry(),
        workers,
    )
}

/// One worker per core: the pool size of a serving daemon.
fn host_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Recovers (or seeds) a durable service from `dir`: newest valid checkpoint,
/// journal tail replayed, signal cache warmed when the checkpoint carried one.
fn build_durable_service(
    dir: &Path,
    workers: usize,
) -> Result<(TaraService, RecoveryReport), String> {
    let (store, engine, report) = DurableStore::recover(
        dir,
        FaultFs::none(),
        || LiveEngine::new(scenario::excavator_europe(7)),
        |corpus, signals| {
            let engine = LiveEngine::new(corpus);
            if let Some(cache) = signals {
                // The cache is an optimisation: a stale or mismatched one is
                // ignored, signals just recompute lazily.
                let _ = engine.load_signal_cache(&cache);
            }
            engine
        },
    )
    .map_err(|error| error.to_string())?;
    let service = TaraService::with_durability(engine, build_registry(), workers, store);
    Ok((service, report))
}

/// Set by the SIGTERM/SIGINT handler; polled by the socket transport to
/// start a graceful drain.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_signum: i32) {
    TERM.store(true, Ordering::SeqCst);
}

/// Installs the drain handler for SIGTERM and SIGINT via the C `signal`
/// entry point (no signal-handling crate offline; the handler only flips an
/// atomic, which is async-signal-safe).
#[cfg(unix)]
fn install_term_handler() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term);
        signal(SIGINT, on_term);
    }
}

#[cfg(not(unix))]
fn install_term_handler() {}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(seed) = flag_value(&args, "--gen-batch") {
        gen_batch(&seed);
        return;
    }
    if args.iter().any(|arg| arg == "--demo") {
        demo();
        return;
    }
    let mut config = NetConfig::default();
    if let Some(value) = flag_value(&args, "--max-line-bytes") {
        config.max_line_bytes = value.parse().unwrap_or_else(|_| {
            eprintln!("tara_daemon: --max-line-bytes wants a byte count, got `{value}`");
            std::process::exit(2);
        });
    }
    let service = Arc::new(match flag_value(&args, "--data-dir") {
        Some(dir) => recover_durable(
            &PathBuf::from(dir),
            args.iter().any(|arg| arg == "--recover"),
        ),
        None => build_service(host_workers()),
    });
    match flag_value(&args, "--listen") {
        Some(addr) => serve_socket(&service, &addr, config),
        None => {
            eprintln!(
                "tara_daemon: serving line-JSON on stdin ({} workers); send {{\"id\":1,\"request\":\"Status\"}}",
                service.workers()
            );
            net::serve_stream(&service, std::io::stdin().lock(), std::io::stdout(), config);
        }
    }
    final_checkpoint(&service);
}

/// Returns the value following `flag` in `args`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|arg| arg == flag)
        .and_then(|at| args.get(at + 1))
        .cloned()
}

/// Prints the wire-format ingest line for deterministic scenario batch
/// `seed` (correlation id = seed), for shell drivers of a serving daemon.
fn gen_batch(seed: &str) {
    let seed: u64 = seed.parse().unwrap_or_else(|_| {
        eprintln!("tara_daemon: --gen-batch wants an unsigned integer seed, got `{seed}`");
        std::process::exit(2);
    });
    println!(
        "{}",
        encode_request(&WireRequest {
            id: seed,
            request: ServiceRequest::Ingest {
                posts: scenario::excavator_europe(seed).into_posts(),
            },
        })
    );
}

/// Recovers a durable service from `dir` (exiting on failure).  With
/// `strict` set, a fresh start (no prior state on disk) is an error — used
/// after a restart to assert that recovery actually happened.
fn recover_durable(dir: &Path, strict: bool) -> TaraService {
    let (service, report) = build_durable_service(dir, host_workers()).unwrap_or_else(|error| {
        eprintln!(
            "tara_daemon: recovery from {} failed: {error}",
            dir.display()
        );
        std::process::exit(2);
    });
    if strict && report.fresh_start {
        eprintln!(
            "tara_daemon: --recover set but {} held no prior state",
            dir.display()
        );
        std::process::exit(3);
    }
    eprintln!(
        "tara_daemon: data dir {} (checkpoint gen {}, replayed {} journal record(s) / {} post(s), truncated {} torn byte(s))",
        dir.display(),
        report
            .checkpoint_generation
            .map_or("none".to_string(), |generation| generation.to_string()),
        report.replayed_records,
        report.replayed_posts,
        report.truncated_wal_bytes,
    );
    service
}

/// On a durable service, persists a final checkpoint as part of a graceful
/// drain (SIGTERM on the socket transport, EOF on stdin); a non-durable
/// service drains without one.
fn final_checkpoint(service: &TaraService) {
    if !service.is_durable() {
        return;
    }
    match service.handle(ServiceRequest::Checkpoint) {
        ServiceResponse::Checkpointed { generation, .. } => {
            eprintln!("tara_daemon: final checkpoint at gen {generation}");
        }
        other => eprintln!("tara_daemon: final checkpoint failed: {}", describe(&other)),
    }
}

/// Serves the wire format over TCP until SIGTERM/SIGINT, then drains
/// gracefully: the listener stops accepting, every admitted request is
/// answered and subscriptions get a final `Draining` event.
fn serve_socket(service: &Arc<TaraService>, addr: &str, config: NetConfig) {
    install_term_handler();
    let mut server =
        SocketServer::bind(Arc::clone(service), addr, config).unwrap_or_else(|error| {
            eprintln!("tara_daemon: binding {addr} failed: {error}");
            std::process::exit(2);
        });
    // Drivers pass port 0 and parse the resolved address from this line.
    eprintln!(
        "tara_daemon: listening on {} ({} workers)",
        server.local_addr(),
        service.workers()
    );
    while !TERM.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
    }
    eprintln!("tara_daemon: termination signal received, draining");
    server.shutdown();
    let net = service.net_stats();
    eprintln!(
        "tara_daemon: drained ({} admitted / {} answered, peak {} connection(s))",
        net.requests_admitted, net.requests_answered, net.peak_connections
    );
}

/// A deterministic scripted transcript — what the daemon does, without
/// needing a driver on stdin.  Used as the CI smoke test.
fn demo() {
    let service = build_service(DEMO_WORKERS);
    println!(
        "tara_daemon demo: excavator scene, {} workers",
        service.workers()
    );

    let script: Vec<(&str, ServiceRequest)> = vec![
        ("status", ServiceRequest::Status),
        (
            "score excavator",
            ServiceRequest::Score {
                db: "excavator".into(),
                config: "excavator".into(),
            },
        ),
        (
            "ingest next batch",
            ServiceRequest::Ingest {
                posts: scenario::excavator_europe(8).into_posts(),
            },
        ),
        (
            "score excavator again",
            ServiceRequest::Score {
                db: "excavator".into(),
                config: "excavator".into(),
            },
        ),
        (
            "sweep three windows",
            ServiceRequest::Sweep {
                db: "excavator".into(),
                config: "excavator".into(),
                windows: WindowAxis::new()
                    .full_history()
                    .window(DateWindow::years(2019, 2021))
                    .window(DateWindow::years(2021, 2023)),
            },
        ),
        (
            "unknown database",
            ServiceRequest::Score {
                db: "tractor".into(),
                config: "excavator".into(),
            },
        ),
    ];
    for (label, request) in script {
        let response = service.handle(request);
        println!("  {label:<24} -> {}", describe(&response));
    }

    // The same requests ride the worker pool: submit a burst, then wait the
    // tickets in order.  Their queue counters depend on how far the pool
    // got, so only the snapshot each one read is shown.
    let tickets: Vec<_> = (0..4)
        .map(|_| service.submit(ServiceRequest::Status))
        .collect();
    for (n, ticket) in tickets.into_iter().enumerate() {
        let shown = match ticket.wait() {
            ServiceResponse::Status {
                generation, posts, ..
            } => format!("gen {generation}: {posts} posts"),
            other => describe(&other),
        };
        println!("  pooled status #{n:<13} -> {shown}");
    }

    // A request whose deadline already passed answers Expired instead of
    // burning a worker on it.  How long it waited depends on the host.
    let shown = match service
        .submit_with_deadline(ServiceRequest::Status, Duration::ZERO)
        .wait()
    {
        ServiceResponse::Expired { .. } => "expired after a zero deadline".to_string(),
        other => describe(&other),
    };
    println!("  zero deadline            -> {shown}");

    // Monitor subscription: every ingest publication pushes a re-evaluated
    // monitoring series (plus alert firings) down the subscription's own
    // channel instead of being polled for.
    let subscription = service
        .subscribe(MonitorSpec {
            db: "excavator".into(),
            config: "excavator".into(),
            scenario: "dpf-tampering".into(),
            from_year: 2019,
            to_year: 2023,
            window_years: 2,
            alert_threshold: 0.25,
        })
        .expect("demo monitor names are registered");
    println!(
        "  subscribe dpf-tampering  -> subscription #{} at gen {}",
        subscription.id(),
        subscription.generation()
    );
    let response = service.handle(ServiceRequest::Ingest {
        posts: scenario::excavator_europe(9).into_posts(),
    });
    println!("  ingest third batch       -> {}", describe(&response));
    while let Some(event) = subscription.try_recv() {
        println!("  pushed event             -> {}", describe_event(&event));
    }

    // Scheduled sweep: the scheduler thread re-runs the request on its own
    // clock; each tick arrives on the job's channel.
    let job = service
        .schedule(
            ServiceRequest::Sweep {
                db: "excavator".into(),
                config: "excavator".into(),
                windows: WindowAxis::new()
                    .window(DateWindow::years(2019, 2021))
                    .window(DateWindow::years(2021, 2023)),
            },
            Duration::from_millis(25),
        )
        .expect("a sweep is schedulable");
    println!("  schedule 25ms sweep      -> job #{} every 25ms", job.id());
    // Exactly two ticks; a scheduler that stalls fails the demo.
    let ticks: Vec<ServiceEvent> = (0..2)
        .map(|_| {
            job.recv_timeout(Duration::from_secs(10))
                .expect("the scheduler ticks within 10 s")
        })
        .collect();
    println!(
        "  scheduler ticks          -> {} scheduled run(s), first: {}",
        ticks.len(),
        describe_event(&ticks[0]),
    );
    let response = service.handle(ServiceRequest::Unschedule { id: job.id() });
    println!("  unschedule sweep         -> {}", describe(&response));

    // A checkpoint needs a data dir; on this in-memory service it answers a
    // structured not-durable error instead.
    let response = service.handle(ServiceRequest::Checkpoint);
    println!("  checkpoint (no dir)      -> {}", describe(&response));

    // Durability: the same service behind a data dir.  Ingests journal
    // before they publish, checkpoints persist atomically, and a second
    // incarnation recovered from the same dir scores bit-identically.
    let dir = std::env::temp_dir().join(format!("tara-demo-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (durable, _) = build_durable_service(&dir, DEMO_WORKERS).expect("demo data dir usable");
    let response = durable.handle(ServiceRequest::Ingest {
        posts: scenario::excavator_europe(8).into_posts(),
    });
    println!("  durable ingest           -> {}", describe(&response));
    let response = durable.handle(ServiceRequest::Checkpoint);
    println!("  checkpoint               -> {}", describe(&response));
    let response = durable.handle(ServiceRequest::Ingest {
        posts: scenario::excavator_europe(9).into_posts(),
    });
    println!("  durable ingest again     -> {}", describe(&response));
    let score = ServiceRequest::Score {
        db: "excavator".into(),
        config: "excavator".into(),
    };
    let reference = durable.handle(score.clone());
    println!("  durable score            -> {}", describe(&reference));
    println!(
        "  durable status           -> {}",
        describe(&durable.handle(ServiceRequest::Status))
    );
    drop(durable); // the first incarnation dies here; only the disk survives
    let (revived, report) =
        build_durable_service(&dir, DEMO_WORKERS).expect("demo data dir recoverable");
    println!(
        "  restart                  -> checkpoint gen {}, replayed {} record(s) / {} post(s)",
        report
            .checkpoint_generation
            .map_or("none".to_string(), |g| g.to_string()),
        report.replayed_records,
        report.replayed_posts,
    );
    let replayed = revived.handle(score);
    println!(
        "  score after restart      -> {} [{}]",
        describe(&replayed),
        if replayed == reference {
            "bit-identical"
        } else {
            "MISMATCH"
        },
    );
    println!(
        "  status after restart     -> {}",
        describe(&revived.handle(ServiceRequest::Status))
    );
    drop(revived);
    let _ = std::fs::remove_dir_all(&dir);

    println!("demo complete");
}

/// One-line summary of a pushed event for the demo transcript.
fn describe_event(event: &ServiceEvent) -> String {
    match event {
        ServiceEvent::MonitorDelta {
            subscription,
            generation,
            series,
            alerts,
        } => format!(
            "monitor delta #{subscription} gen {generation}: {} [{} windows, {} alert(s)]",
            series.scenario,
            series.observations.len(),
            alerts.len()
        ),
        ServiceEvent::ScheduledRun { job, response } => {
            format!("scheduled run #{job}: {}", describe(response))
        }
        ServiceEvent::Draining { generation } => {
            format!("draining at gen {generation} (final event)")
        }
    }
}

/// One-line summary of a response for the demo transcript (full payloads are
/// wire-format concerns; the demo shows shapes and generations).
fn describe(response: &ServiceResponse) -> String {
    match response {
        ServiceResponse::Score { generation, sai } => {
            let top = sai.top().map_or("none".to_string(), |e| {
                format!("{} (SAI {:.0})", e.keyword, e.sai)
            });
            format!("gen {generation}: {} entries, top {top}", sai.len())
        }
        ServiceResponse::Sweep { generation, lists } => {
            format!("gen {generation}: {} windows scored", lists.len())
        }
        ServiceResponse::Matrix { generation, cells } => {
            format!("gen {generation}: {} cells", cells.len())
        }
        ServiceResponse::Ingested {
            appended,
            generation,
        } => format!("+{appended} posts -> gen {generation}"),
        ServiceResponse::Cache { generation, cache } => {
            format!(
                "gen {generation}: {} cached signal rows",
                cache.post_ids.len()
            )
        }
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
            wal_bytes: _,
            last_checkpoint_generation,
            recovered_at_start,
            net,
        } => format!(
            "gen {generation}: {posts} posts, {} dbs, {} configs, {workers} workers \
             (q{queued}/f{in_flight}/p{panicked}, {subscriptions} subs, {scheduled} jobs), \
             wal {wal_records} rec, ckpt {}, recovered {recovered_at_start}, \
             net {}/{} conn",
            databases.len(),
            configs.len(),
            last_checkpoint_generation.map_or("none".to_string(), |g| g.to_string()),
            net.open_connections,
            net.peak_connections,
        ),
        ServiceResponse::Checkpointed {
            generation,
            posts,
            path,
        } => format!(
            "gen {generation}: {posts} posts -> {}",
            // Only the directory name: absolute paths would make the demo
            // transcript machine-dependent.
            Path::new(path)
                .file_name()
                .map_or_else(|| path.clone(), |name| name.to_string_lossy().into_owned()),
        ),
        ServiceResponse::Subscribed { id, generation } => {
            format!("subscription #{id} at gen {generation}")
        }
        ServiceResponse::Unsubscribed { id } => format!("subscription #{id} removed"),
        ServiceResponse::Scheduled { id, every_ms } => {
            format!("job #{id} every {every_ms}ms")
        }
        ServiceResponse::Unscheduled { id } => format!("job #{id} removed"),
        ServiceResponse::Expired { waited_ms } => {
            format!("expired after {waited_ms}ms (deadline passed)")
        }
        ServiceResponse::Error { error } => format!("error [{}] {}", error.kind, error.detail),
    }
}
