//! The TARA daemon benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read-mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run composes a durable daemon in-process (`DurableStore::recover` →
//! `TaraService::with_durability` → `SocketServer::bind`) in a fresh data dir
//! under `.bench_out/`, drives it over loopback TCP with the workload's
//! seeded traffic, kills it without a final checkpoint and restarts it.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the same
//! traffic in-process with spans around every layer and reports per-layer
//! metrics.  The last stdout line is the JSON result; `perfbench/README.md`
//! documents every metric.

mod daemon;
mod lines;
mod load;
mod replay;
mod stats;
mod trace;

use daemon::{fresh_dir, Daemon};
use load::{Bodies, Conn, Deltas, FeedLog, Kind, Mix, Samples, Tally, UNKNOWN};
use psp::engine::{LiveEngine, SaiScorer};
use psp::service::wire::{encode_request, encode_response, WireRequest, WireResponse};
use psp::service::{ServiceRequest, ServiceResponse};
use stats::{median, percentile};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use trace::{maybe_span, Tracer};

/// After the workload an untraced run restarts the daemon, each time
/// followed by one more set-up, at least `MIN_ROUNDS` times and until
/// `ROUNDS_BUDGET` has passed, at most `MAX_ROUNDS` times; `recover_s` and
/// `setup_s` (which also counts the set-up before the workload) are the
/// medians.  A 100k round takes about two seconds, so it gets the minimum; a
/// 10k round takes a quarter of a second and gets about twenty.  On the
/// shared two-core VM the speed of restarts and set-ups drifts in spells of
/// several seconds; five rounds in a row fell into one spell, and their
/// median moved by a fifth from run to run.
const MIN_ROUNDS: usize = 7;
const MAX_ROUNDS: usize = 25;
const ROUNDS_BUDGET: Duration = Duration::from_secs(6);
/// The open-loop ingest rate, batches per second.  A 100-post ingest into
/// 100k posts takes about 70 ms on two cores.  At 10 per second each
/// delta-paced `feed` read landed on the next batch's arrival or just missed
/// it, and its latency jumped between the two from run to run; and when the
/// host took CPU time away, the ingests outran the schedule and the backlog
/// grew.  At this rate the reads finish between batches, the ingests keep up
/// at half the speed, and the corpus grows 0.5% a second.
const FEED_RATE: f64 = 5.0;
/// Requests a feed may leave unanswered when its last batch is sent; more
/// means the backlog grew and the run is invalid.
const BACKLOG_LIMIT: usize = 5;
/// Correlation id of the Score compared across the kill and restart.
const CHECK_ID: u64 = 999_999_999;

/// End-to-end metrics: (name, unit).  Every workload reports every one.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("recover_s", "s"),
    ("score_p50_ms", "ms"),
    ("sweep_p50_ms", "ms"),
    ("matrix_p50_ms", "ms"),
    ("read_rps", "1/s"),
    ("ingest_p50_ms", "ms"),
    ("delta_p50_ms", "ms"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// 100k posts, reads only, two persistent closed-loop connections.
    ReadMix,
    /// 100k posts, an open-loop ingest feed beside a subscribed reader.
    Feed,
    /// 10k posts, a connect-per-request client and an embedded client.
    Short10k,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "read-mix" => Some(Self::ReadMix),
            "feed" => Some(Self::Feed),
            "short-10k" => Some(Self::Short10k),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ReadMix => "read-mix",
            Self::Feed => "feed",
            Self::Short10k => "short-10k",
        }
    }

    fn posts(self) -> usize {
        match self {
            Self::Short10k => 10_000,
            _ => 100_000,
        }
    }

    /// Batches and rate (per second) of the write probe that follows the
    /// reads of `read-mix` and `short-10k`: eight seconds at a rate the
    /// ingests keep up with.  An ingest into 10k posts takes about 10 ms, so
    /// `short-10k` sends four times as many, and its medians are not left to
    /// a few dozen samples of the up to 25 ms a delta waits for the event
    /// poll.
    fn probe(self) -> (usize, f64) {
        match self {
            Self::Short10k => (160, 20.0),
            _ => (40, FEED_RATE),
        }
    }

    /// Posts per ingest batch.  `short-10k`'s are smaller, so that its 160
    /// probe batches grow the corpus by a quarter, not by 160%, and the
    /// ingests late in the probe cost about what the early ones do.
    fn batch_posts(self) -> usize {
        match self {
            Self::Short10k => 15,
            _ => 100,
        }
    }

    /// Whether sweeps and matrices go through the embedded client.
    fn embedded(self, kind: Kind) -> bool {
        self == Self::Short10k && matches!(kind, Kind::Sweep | Kind::Matrix)
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let value = |flag: &str| -> Result<&str, String> {
            args.iter()
                .position(|arg| arg == flag)
                .and_then(|at| args.get(at + 1))
                .map(String::as_str)
                .ok_or_else(|| format!("missing {flag}"))
        };
        let workload = value("--workload")?;
        let workload = Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}` (read-mix, feed, short-10k)"))?;
        let number = |flag: &str| -> Result<u64, String> {
            value(flag)?
                .parse()
                .map_err(|_| format!("{flag} wants an unsigned integer"))
        };
        let seconds = number("--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        let trace = match number("--trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace wants 0 or 1".into()),
        };
        Ok(Self {
            workload,
            seed: number("--seed")?,
            seconds,
            trace,
        })
    }
}

/// The run's scratch directory, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Fixes glibc malloc's mmap threshold at 32 MiB.  By default glibc serves
/// large blocks with fresh `mmap`s (page-faulted in on first touch) and
/// raises the threshold whenever such a block is freed, so whether the
/// snapshot copy of every publish page-faults depended on the order of
/// earlier frees: the same `feed` seed gave an ingest median of 64 ms in one
/// run and 85 ms in the next, and moved between the two within a run after a
/// checkpoint.  With the threshold fixed, seven runs stayed within 65–71 ms.
/// Setting it also turns off the adaptive trim threshold, as the
/// `glibc.malloc.mmap_threshold` tunable does.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_malloc_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_malloc_threshold() {}

fn main() {
    fix_malloc_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&args).unwrap_or_else(|error| {
        eprintln!("perfbench: {error}");
        eprintln!("usage: perfbench --workload <read-mix|feed|short-10k> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2);
    });
    match run(&args) {
        Ok((tally, metrics)) => {
            let correct = tally.violations.is_empty();
            for violation in &tally.violations {
                eprintln!("perfbench: CORRECTNESS: {violation}");
            }
            println!("{}", result_json(correct, &tally, &metrics));
            if !correct {
                std::process::exit(1);
            }
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(1);
        }
    }
}

fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|metric| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    )
}

/// What the socket phase of a workload measured.
#[derive(Default)]
struct Observed {
    reads: Samples,
    read_seconds: f64,
    ingest_ms: Vec<f64>,
    delta_ms: Vec<f64>,
    feed: FeedLog,
    reads_sent: usize,
    tally: Tally,
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let workload = args.workload;
    let work = WorkDir(PathBuf::from(".bench_out").join(format!(
        "{}-{}",
        workload.name(),
        std::process::id()
    )));
    fresh_dir(&work.0)?;
    let tracer = args.trace.then(Tracer::new);
    let tracer = tracer.as_ref();
    let bodies = Bodies::new();
    let mut tally = Tally::default();

    let dir = work.0.join("data");
    let (daemon, first_setup) = set_up(&dir, workload, args.seed, &bodies, tracer)?;
    let mut setup_s = vec![first_setup];

    gate(&daemon, workload, args.seed, &bodies, &mut tally)?;

    // Socket phase.  A traced run splits its time between this phase (for
    // the end-to-end figures the layers are attributed against) and the
    // in-process replay.
    let socket_seconds = if args.trace {
        (args.seconds as f64 / 2.0).max(1.0)
    } else {
        args.seconds as f64
    };
    let stream = ingest_stream(
        args.seed,
        feed_batches(socket_seconds).max(workload.probe().0) * 2,
        workload.batch_posts(),
    );
    let queued_max = AtomicUsize::new(0);
    let sampling = AtomicBool::new(args.trace);
    let mut observed = std::thread::scope(|scope| {
        if args.trace {
            scope.spawn(|| {
                while sampling.load(Ordering::SeqCst) {
                    queued_max.fetch_max(daemon.service.pool_stats().queued, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        let observed = socket_phase(
            &daemon,
            workload,
            args.seed,
            socket_seconds,
            &bodies,
            &stream,
        );
        sampling.store(false, Ordering::SeqCst);
        observed
    })?;
    let net_before_replay = daemon.service.net_stats();
    tally.merge(std::mem::take(&mut observed.tally));
    if observed.feed.backlog_at_end > BACKLOG_LIMIT {
        tally.violations.push(format!(
            "the ingest backlog grew: {} requests unanswered when the last batch was sent",
            observed.feed.backlog_at_end
        ));
    }

    let mut layers = replay::Counts::new();
    if let Some(tracer) = tracer {
        let batches_used = observed.feed.batches.len();
        let interleave = (workload == Workload::Feed)
            .then(|| (observed.reads_sent / batches_used.max(1)).max(1));
        let replay_ingests = if workload == Workload::Feed {
            &stream[batches_used.min(stream.len())..]
        } else {
            &stream[batches_used..batches_used * 2]
        };
        let scratch = work.0.join("scratch-journal");
        fresh_dir(&scratch)?;
        let replayed = replay::run(&replay::Plan {
            tracer,
            service: &daemon.service,
            bodies: &bodies,
            // Client 0's reads; `short-10k` replays Score beside its
            // embedded kinds, so every read kind is attributed everywhere.
            mix: Mix::new(
                mix_seed(args.seed, 0),
                &[Kind::Score, Kind::Sweep, Kind::Matrix],
            ),
            ingests: replay_ingests,
            interleave,
            deadline: Instant::now() + Duration::from_secs_f64(socket_seconds),
            scratch: &scratch,
        })?;
        tally.violations.extend(replayed.violations);
        layers = replayed.counts;
    }

    // Kill and restart.
    let before_kill = Conn::open(daemon.addr)
        .and_then(|mut conn| conn.request(&bodies.line(Kind::Score, CHECK_ID), None))
        .map_err(|error| format!("pre-kill score: {error}"))?;
    let scan = maybe_span(tracer, "journal.scan", None, || {
        psp::service::journal::scan_wal(&dir.join("wal.log"))
    })
    .map_err(|error| format!("scanning the journal: {error}"))?;
    let net = Daemon::kill(daemon);
    if net.requests_admitted != net.requests_answered {
        tally.violations.push(format!(
            "{} requests admitted but {} answered",
            net.requests_admitted, net.requests_answered
        ));
    }
    // Restarts alternate with further set-ups in a scratch dir, so that both
    // medians are drawn from the same, longer stretch of time.
    let mut recover_s = Vec::new();
    let mut checkpoint_bytes = 0;
    let rounds_started = Instant::now();
    for round in 0.. {
        if rounds_done(args.trace, round, rounds_started) {
            break;
        }
        let started = Instant::now();
        let (restarted, report) = Daemon::start(&dir, None, tracer)?;
        let after = Conn::open(restarted.addr)
            .and_then(|mut conn| conn.request(&bodies.line(Kind::Score, CHECK_ID), None))
            .map_err(|error| format!("post-restart score: {error}"))?;
        recover_s.push(started.elapsed().as_secs_f64());
        if report.checkpoint_generation.is_none() {
            tally.violations.push("restart found no checkpoint".into());
        }
        if after != before_kill {
            tally.violations.push(
                "the recovered Score differs from the pre-kill Score at the same generation".into(),
            );
        }
        if let Some(tracer) = tracer {
            let response = tracer.span("durability.checkpoint", 0, None, || {
                restarted.service.handle(ServiceRequest::Checkpoint)
            });
            match response {
                ServiceResponse::Checkpointed { path, .. } => {
                    checkpoint_bytes = daemon::dir_bytes(Path::new(&path));
                }
                other => tally
                    .violations
                    .push(format!("checkpoint answered {other:?}")),
            }
        }
        Daemon::kill(restarted);
        if args.trace {
            continue;
        }
        let extra = work.0.join("setup");
        let (fresh, seconds) = set_up(&extra, workload, args.seed, &bodies, None)?;
        Daemon::kill(fresh);
        setup_s.push(seconds);
        let _ = std::fs::remove_dir_all(&extra);
    }

    report_human(
        workload,
        &observed,
        &setup_s,
        &recover_s,
        &tally,
        scan.records.len(),
    );

    let metrics = match tracer {
        None => end_to_end(&observed, &setup_s, &recover_s)?,
        Some(tracer) => {
            let layer_metrics = replay::layer_metrics(&replay::Attribution {
                tracer,
                workload_name: workload.name(),
                embedded: &|kind| workload.embedded(kind),
                socket: &observed.reads,
                ingest_ms: &observed.ingest_ms,
                counts: &layers,
                queued_max: queued_max.load(Ordering::SeqCst),
                net: net_before_replay,
                gen_late_ms: &observed.feed.late_ms,
                checkpoint_bytes,
            })?;
            let path = PathBuf::from(".bench_out").join(format!("trace-{}.jsonl", workload.name()));
            tracer
                .write_jsonl(&path)
                .map_err(|error| format!("writing {}: {error}", path.display()))?;
            eprintln!("perfbench: spans written to {}", path.display());
            layer_metrics
        }
    };
    Ok((tally, metrics))
}

fn mix_seed(seed: u64, client: u64) -> u64 {
    seed.wrapping_mul(31).wrapping_add(client)
}

/// The reads a workload's reader number `client` sends.  `feed` reads each
/// new generation in a fixed order: `Score` first, right after the delta,
/// then `Sweep`, then `Matrix`.  In a shuffled order a `Score` late in its
/// block met the next batch's ingest in some runs more than in others, and
/// its median moved with their share.
fn read_mix(workload: Workload, seed: u64, client: u64) -> Mix {
    let seed = mix_seed(seed, client);
    match workload {
        Workload::Short10k => Mix::new(seed, &[Kind::Sweep, Kind::Matrix]),
        Workload::Feed => Mix::fixed(&[Kind::Score, Kind::Sweep, Kind::Matrix]),
        Workload::ReadMix => Mix::new(seed, &[Kind::Score, Kind::Sweep, Kind::Matrix]),
    }
}

/// Whether a run has restarted the daemon often enough, after `rounds`
/// rounds begun at `started`: once when traced.
fn rounds_done(trace: bool, rounds: usize, started: Instant) -> bool {
    if trace {
        return rounds >= 1;
    }
    rounds >= MAX_ROUNDS || (rounds >= MIN_ROUNDS && started.elapsed() >= ROUNDS_BUDGET)
}

/// One set-up in the fresh data dir `dir`: corpus generation, fresh recover
/// (which publishes the seed checkpoint), bind, and the first Score with its
/// lazy mining.  Returns the serving daemon and the seconds it took.
fn set_up(
    dir: &Path,
    workload: Workload,
    seed: u64,
    bodies: &Bodies,
    tracer: Option<&Tracer>,
) -> Result<(Daemon, f64), String> {
    fresh_dir(dir)?;
    let started = Instant::now();
    let corpus = maybe_span(tracer, "setup.corpus", None, || {
        psp_bench::scaled_excavator_corpus(workload.posts(), seed)
    });
    // Only the restart's recovery is traced: it is the one that loads a
    // checkpoint and replays the journal.
    let (daemon, _) = Daemon::start(dir, Some(corpus), None)?;
    let answer = maybe_span(tracer, "setup.first_score", None, || {
        Conn::open(daemon.addr)
            .and_then(|mut conn| conn.request(&bodies.line(Kind::Score, 1), None))
    })
    .map_err(|error| format!("first score: {error}"))?;
    if !answer.contains("\"Score\"") {
        return Err(format!(
            "first score answered {}",
            &answer[..answer.len().min(200)]
        ));
    }
    Ok((daemon, started.elapsed().as_secs_f64()))
}

/// Batches `feed` sends in `seconds`.
fn feed_batches(seconds: f64) -> usize {
    ((seconds * FEED_RATE) as usize).max(5)
}

/// `batches` pre-encoded ingest lines (ids `1..`) of `batch_posts` posts
/// each, from a post stream disjoint from the base corpus: enough for the
/// feed, the probe and a traced replay.
fn ingest_stream(seed: u64, batches: usize, batch_posts: usize) -> Vec<String> {
    let posts =
        psp_bench::scaled_excavator_corpus(batches * batch_posts * 6 / 5, seed ^ 0x5EED_F00D)
            .into_posts();
    posts
        .chunks(batch_posts)
        .filter(|chunk| chunk.len() == batch_posts)
        .take(batches)
        .enumerate()
        .map(|(i, chunk)| {
            encode_request(&WireRequest {
                id: i as u64 + 1,
                request: ServiceRequest::Ingest {
                    posts: chunk.to_vec(),
                },
            })
        })
        .collect()
}

/// The correctness gate: served Score, Sweep and Matrix must be
/// bit-identical to a standalone engine over an independently generated
/// copy of the corpus, at generation 0.
fn gate(
    daemon: &Daemon,
    workload: Workload,
    seed: u64,
    bodies: &Bodies,
    tally: &mut Tally,
) -> Result<(), String> {
    let reference = LiveEngine::new(psp_bench::scaled_excavator_corpus(workload.posts(), seed));
    let inputs = daemon::Inputs::new();
    let expected = [
        (
            Kind::Score,
            ServiceResponse::Score {
                generation: 0,
                sai: reference.sai_list(&inputs.db, &inputs.config),
            },
        ),
        (
            Kind::Sweep,
            ServiceResponse::Sweep {
                generation: 0,
                lists: reference.sai_windows(&inputs.db, &inputs.config, &inputs.windows),
            },
        ),
        (
            Kind::Matrix,
            ServiceResponse::Matrix {
                generation: 0,
                cells: reference.sai_matrix(&inputs.spec).into_cells(),
            },
        ),
    ];
    let mut conn = Conn::open(daemon.addr).map_err(|error| format!("gate connect: {error}"))?;
    for (id, (kind, response)) in (1..).zip(expected) {
        let served = conn
            .request(&bodies.line(kind, id), None)
            .map_err(|error| format!("gate {}: {error}", kind.name()))?;
        if served != encode_response(&WireResponse { id, response }) {
            tally.violations.push(format!(
                "served {} differs from a standalone engine at generation 0",
                kind.name()
            ));
        }
    }
    Ok(())
}

/// Drives the daemon over the socket for `seconds` with the workload's
/// traffic (plus the write probe on the read workloads).
fn socket_phase(
    daemon: &Daemon,
    workload: Workload,
    seed: u64,
    seconds: f64,
    bodies: &Bodies,
    stream: &[String],
) -> Result<Observed, String> {
    let addr = daemon.addr;
    let mut observed = Observed::default();
    let mut tally = Tally::default();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    match workload {
        Workload::ReadMix => {
            let mut conns = (0..2)
                .map(|_| Conn::open(addr))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|error| format!("connect: {error}"))?;
            let results: Vec<(Samples, Tally)> = std::thread::scope(|scope| {
                let handles: Vec<_> = conns
                    .iter_mut()
                    .zip(0..)
                    .map(|(conn, client)| {
                        scope.spawn(move || {
                            load::closed_loop(
                                conn,
                                read_mix(workload, seed, client),
                                bodies,
                                deadline,
                                1,
                                None,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("reader thread panicked"))
                    .collect()
            });
            for (samples, client) in results {
                observed.reads.merge(samples);
                tally.merge(client);
            }
            observed.read_seconds = started.elapsed().as_secs_f64();
        }
        Workload::Short10k => {
            let (fresh, embedded) = std::thread::scope(|scope| {
                let fresh = scope.spawn(|| load::connect_per_request(addr, bodies, deadline, 1));
                let embedded =
                    load::embedded(&daemon.service, read_mix(workload, seed, 0), deadline);
                (fresh.join().expect("client thread panicked"), embedded)
            });
            for (samples, client) in [fresh, embedded] {
                observed.reads.merge(samples);
                tally.merge(client);
            }
            observed.read_seconds = started.elapsed().as_secs_f64();
        }
        Workload::Feed => {}
    }

    // The writes: the whole phase on `feed`, a short probe after the reads
    // elsewhere.  A subscribed connection receives the deltas; on `feed` it
    // also runs the closed-loop reads.
    let (batches, rate, checkpoint_every) = match workload {
        Workload::Feed => {
            let batches = feed_batches(seconds);
            (batches, FEED_RATE, Some(batches * 2 / 5))
        }
        _ => {
            let (batches, rate) = workload.probe();
            (batches, rate, None)
        }
    };
    let mut subscriber = Conn::open(addr).map_err(|error| format!("connect: {error}"))?;
    subscriber.subscribe(1)?;
    let deltas = Deltas::default();
    let final_generation = AtomicU64::new(UNKNOWN);
    let write_started = Instant::now();
    let (reads, feed) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let reads = (workload == Workload::Feed).then(|| {
                load::closed_loop(
                    &mut subscriber,
                    read_mix(workload, seed, 0),
                    bodies,
                    deadline,
                    2,
                    Some(&deltas),
                )
            });
            load::await_deltas(&mut subscriber, &deltas, &final_generation);
            reads
        });
        let feed = load::open_loop_feed(
            addr,
            &stream[..batches],
            rate,
            seed ^ 0xFEED,
            checkpoint_every,
        );
        let last = feed
            .batches
            .iter()
            .filter_map(|(_, ack)| ack.map(|(_, generation)| generation))
            .max()
            .unwrap_or(0);
        final_generation.store(last, Ordering::SeqCst);
        (reader.join().expect("subscriber thread panicked"), feed)
    });
    if let Some((samples, client)) = reads {
        observed.reads_sent = samples.reads();
        observed.reads.merge(samples);
        tally.merge(client);
        observed.read_seconds = write_started.elapsed().as_secs_f64();
    }

    // One delta per acknowledged ingest, timed from the batch's due time.
    let mut acked = 0;
    for (due, ack) in &feed.batches {
        let Some((at, generation)) = ack else {
            continue;
        };
        acked += 1;
        observed
            .ingest_ms
            .push(load::ms(at.saturating_duration_since(*due)));
        tally.attempted += 1;
        match deltas.arrival(*generation) {
            Some(arrived) => observed
                .delta_ms
                .push(load::ms(arrived.saturating_duration_since(*due))),
            None => {
                tally.failed += 1;
                eprintln!("perfbench: failed request: no delta for generation {generation}");
            }
        }
    }
    if deltas.received() > acked {
        tally.violations.push(format!(
            "{} deltas for {acked} acknowledged ingests",
            deltas.received()
        ));
    }
    if deltas.regressions() > 0 {
        tally
            .violations
            .push("a delta's generation went backwards".into());
    }
    let mut feed = feed;
    tally.merge(std::mem::take(&mut feed.tally));
    observed.feed = feed;
    observed.tally = tally;
    Ok(observed)
}

fn end_to_end(
    observed: &Observed,
    setup_s: &[f64],
    recover_s: &[f64],
) -> Result<Vec<Metric>, String> {
    let reads = &observed.reads;
    let mut values = Vec::new();
    for (name, unit) in END_TO_END {
        let samples = match name {
            "setup_s" => setup_s,
            "recover_s" => recover_s,
            "score_p50_ms" => reads.get(Kind::Score),
            "sweep_p50_ms" => reads.get(Kind::Sweep),
            "matrix_p50_ms" => reads.get(Kind::Matrix),
            "ingest_p50_ms" => &observed.ingest_ms,
            "delta_p50_ms" => &observed.delta_ms,
            _ => &[],
        };
        let value = if name == "read_rps" {
            reads.reads() as f64 / observed.read_seconds.max(1e-9)
        } else {
            median(samples).ok_or_else(|| format!("{name}: no samples"))?
        };
        values.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
    Ok(values)
}

/// The human-readable report: every sample count and tail the run allows.
fn report_human(
    workload: Workload,
    observed: &Observed,
    setup_s: &[f64],
    recover_s: &[f64],
    tally: &Tally,
    wal_records: usize,
) {
    let name = workload.name();
    let show = |label: &str, samples: &[f64]| {
        let mut line = format!("{name} {label:<8} n={:<6}", samples.len());
        for p in [50.0, 90.0, 95.0, 99.0] {
            if p == 50.0 || stats::beyond(samples.len(), p) >= stats::MIN_TAIL_SAMPLES {
                if let Some(value) = percentile(samples, p) {
                    line.push_str(&format!(" p{p}={value:.3}ms"));
                }
            }
        }
        println!("{line}");
    };
    for kind in [Kind::Score, Kind::Sweep, Kind::Matrix] {
        show(kind.name(), observed.reads.get(kind));
    }
    show("ingest", &observed.ingest_ms);
    show("delta", &observed.delta_ms);
    show("late", &observed.feed.late_ms);
    show("ckpt", &observed.feed.checkpoint_ms);
    println!(
        "{name} setup_s={setup_s:?} recover_s={recover_s:?} read_rps={:.2} wal_tail={wal_records} backlog_at_end={}",
        observed.reads.reads() as f64 / observed.read_seconds.max(1e-9),
        observed.feed.backlog_at_end
    );
    println!(
        "{name} failed_frac={:.6} ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
}
