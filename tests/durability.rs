//! The durability plane end to end: crash recovery is **bit-identical**.
//!
//! The property being pinned: kill the process at an arbitrary byte of the
//! write-ahead journal and recovery reconstructs exactly the engine whose
//! batches survived on disk — same SAI lists, same window sweeps, same
//! matrix cells as a never-crashed engine fed the surviving prefix — across
//! random corpora, batch splits, crash points and forced shim thread counts.
//! Torn or bit-flipped journal tails are detected by checksum and truncated,
//! never panicked on; injected checkpoint/fsync faults answer structured
//! errors and leave the previous on-disk state authoritative.

use proptest::prelude::*;
use psp_suite::psp::config::PspConfig;
use psp_suite::psp::engine::{
    LiveEngine, MatrixSpec, SaiScorer, SignalCacheFile, StreamingScorer, WindowAxis,
};
use psp_suite::psp::keyword_db::KeywordDatabase;
use psp_suite::psp::service::durability::{DurableStore, RecoveryReport};
use psp_suite::psp::service::journal::FaultFs;
use psp_suite::psp::service::{ServiceRegistry, ServiceRequest, ServiceResponse, TaraService};
use psp_suite::socialsim::corpus::Corpus;
use psp_suite::socialsim::engagement::Engagement;
use psp_suite::socialsim::post::{Post, Region, TargetApplication};
use psp_suite::socialsim::scenario;
use psp_suite::socialsim::time::{DateWindow, SimDate};
use psp_suite::socialsim::user::User;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

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

static DIRS: AtomicUsize = AtomicUsize::new(0);

/// A fresh (pre-wiped) data directory unique to this process and call.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "psp_durability_{name}_{}_{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn db_and_config() -> (KeywordDatabase, PspConfig) {
    (
        KeywordDatabase::excavator_seed(),
        PspConfig::excavator_europe(),
    )
}

fn axis() -> WindowAxis {
    WindowAxis::new()
        .full_history()
        .window(DateWindow::years(2019, 2021))
        .window(DateWindow::years(2021, 2023))
}

fn matrix_spec(db: &KeywordDatabase, config: &PspConfig) -> MatrixSpec {
    MatrixSpec::new()
        .scenario("excavator", db.clone())
        .config("excavator", config.clone())
        .window_axis(&axis())
}

/// Builds a durable TARA service over `dir` the way the daemon does: recover
/// the newest checkpoint, replay the journal tail, warm the signal cache.
fn durable_service(dir: &Path, faults: FaultFs) -> (TaraService, RecoveryReport) {
    let (store, engine, report) = DurableStore::recover(
        dir,
        faults,
        || LiveEngine::new(scenario::excavator_europe(7)),
        |corpus, signals| {
            let engine = LiveEngine::new(corpus);
            if let Some(cache) = signals {
                let _ = engine.load_signal_cache(&cache);
            }
            engine
        },
    )
    .expect("recovery succeeds");
    let registry = ServiceRegistry::new()
        .database("excavator", KeywordDatabase::excavator_seed())
        .config("excavator", PspConfig::excavator_europe());
    (
        TaraService::with_durability(engine, registry, 2, store),
        report,
    )
}

fn batch(seed: u64) -> Vec<Post> {
    scenario::excavator_europe(seed).posts().to_vec()
}

fn score_request() -> ServiceRequest {
    ServiceRequest::Score {
        db: "excavator".into(),
        config: "excavator".into(),
    }
}

/// The core crash property: journal `batches` one record at a time, cut the
/// file at an arbitrary byte (`cut_permille` of the journal body — a kill -9
/// mid-append lands anywhere), recover, and demand the result is
/// bit-identical to a never-crashed engine fed exactly the batches whose
/// records survived the cut.
fn assert_crash_recovery_bit_identical(dir: &Path, batches: &[Vec<Post>], cut_permille: u64) {
    let seed = || LiveEngine::new(Corpus::default());
    let build = |corpus, signals: Option<SignalCacheFile>| {
        let engine = LiveEngine::new(corpus);
        if let Some(cache) = signals {
            let _ = engine.load_signal_cache(&cache);
        }
        engine
    };
    let (db, config) = db_and_config();
    let (store, mut engine, report) =
        DurableStore::recover(dir, FaultFs::none(), seed, build).expect("first recovery");
    assert!(report.fresh_start);

    // The service's ingest path in miniature: journal first, publish second.
    let mut bytes_after = Vec::with_capacity(batches.len());
    for posts in batches {
        let generation = engine.generation() + 1;
        store
            .log_ingest(posts, generation)
            .expect("append journals");
        engine.ingest(posts.clone());
        bytes_after.push(store.stats().wal_bytes);
    }
    drop(store);
    drop(engine); // the crash: only the disk survives

    let wal = dir.join("wal.log");
    let len = std::fs::metadata(&wal).expect("journal exists").len();
    let header = 8_u64;
    let cut = header + (len - header) * cut_permille / 1000;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .expect("journal reopens")
        .set_len(cut)
        .expect("journal cuts");

    // Exactly the records that fit below the cut survive; a frame the cut
    // bisects is torn and must be truncated, not replayed.
    let survivors = bytes_after.iter().filter(|&&end| end <= cut).count();
    let valid = survivors
        .checked_sub(1)
        .map_or(header, |last| bytes_after[last]);

    let (store, recovered, report) =
        DurableStore::recover(dir, FaultFs::none(), seed, build).expect("crash recovery");
    assert!(!report.fresh_start);
    assert_eq!(report.checkpoint_generation, Some(0));
    assert_eq!(report.replayed_records, survivors);
    assert_eq!(report.truncated_wal_bytes, cut - valid);
    assert_eq!(recovered.generation(), survivors as u64);

    let mut expected = seed();
    for posts in &batches[..survivors] {
        expected.ingest(posts.clone());
    }
    assert_eq!(recovered.snapshot_corpus(), expected.snapshot_corpus());
    assert_eq!(
        recovered.sai_list(&db, &config),
        expected.sai_list(&db, &config)
    );
    assert_eq!(
        recovered.sai_windows(&db, &config, &axis()),
        expected.sai_windows(&db, &config, &axis())
    );
    let spec = matrix_spec(&db, &config);
    assert_eq!(
        recovered.sai_matrix(&spec).into_cells(),
        expected.sai_matrix(&spec).into_cells()
    );
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

/// A compact random-corpus generator (same shape as the signal-cache one).
fn arb_corpus() -> impl Strategy<Value = Corpus> {
    const TEXTS: [&str; 8] = [
        "#dpfdelete kit for sale 360 EUR",
        "#egrdelete how-to guide",
        "stock machine is fine",
        "was €420, now 359,99 EUR",
        "authorities warn this is illegal",
        "ÖLWECHSEL am #jobsite",
        "",
        "#chiptuning stage 1 adds 40 hp",
    ];
    prop::collection::vec(
        (
            0usize..TEXTS.len(),
            2015i32..2024,
            0u64..50_000,
            prop_oneof![Just(Region::Europe), Just(Region::AsiaPacific)],
        ),
        0..20,
    )
    .prop_map(|rows| {
        Corpus::from_posts(
            rows.into_iter()
                .enumerate()
                .map(|(id, (text, year, views, region))| {
                    Post::new(
                        id as u64 + 1,
                        User::new("durability_prop_user", views / 100, 24),
                        TEXTS[text],
                        vec![],
                        SimDate::new(year, 6, 15),
                        region,
                        TargetApplication::Excavator,
                        Engagement::new(views, views / 50, views / 200, views / 400),
                    )
                }),
        )
    })
}

proptest! {
    /// LiveEngine: random corpora × batch splits × crash points × thread
    /// counts ⇒ recovery reconstructs the surviving prefix bit-identically.
    #[test]
    fn live_engine_recovery_is_bit_identical_at_random_crash_points(
        corpus in arb_corpus(),
        chunk in 1usize..7,
        cut_permille in 0u64..1001,
        threads in 1usize..4,
    ) {
        let batches: Vec<Vec<Post>> =
            corpus.posts().chunks(chunk).map(<[Post]>::to_vec).collect();
        with_threads(threads, || {
            assert_crash_recovery_bit_identical(&temp_dir("live_prop"), &batches, cut_permille);
        });
    }
}

/// The daemon lifecycle: ingest → checkpoint → ingest → kill → restart.
/// The restart loads the checkpoint, replays only the post-checkpoint tail,
/// and answers `Score` bit-identically to the pre-kill service.
#[test]
fn service_restart_after_checkpoint_replays_only_the_tail_bit_identically() {
    let dir = temp_dir("service_lifecycle");
    let (service, report) = durable_service(&dir, FaultFs::none());
    assert!(report.fresh_start);

    match service.handle(ServiceRequest::Ingest { posts: batch(8) }) {
        ServiceResponse::Ingested {
            appended,
            generation,
        } => {
            assert_eq!((appended, generation), (2080, 1));
        }
        other => panic!("unexpected: {other:?}"),
    }
    match service.handle(ServiceRequest::Checkpoint) {
        ServiceResponse::Checkpointed {
            generation, posts, ..
        } => assert_eq!((generation, posts), (1, 4160)),
        other => panic!("unexpected: {other:?}"),
    }
    match service.handle(ServiceRequest::Ingest { posts: batch(9) }) {
        ServiceResponse::Ingested { generation, .. } => assert_eq!(generation, 2),
        other => panic!("unexpected: {other:?}"),
    }
    match service.handle(ServiceRequest::Status) {
        ServiceResponse::Status {
            wal_records,
            last_checkpoint_generation,
            recovered_at_start,
            ..
        } => {
            // The checkpoint compacted the first record away; only the
            // post-checkpoint ingest remains journaled.
            assert_eq!(wal_records, 1);
            assert_eq!(last_checkpoint_generation, Some(1));
            assert!(!recovered_at_start);
        }
        other => panic!("unexpected: {other:?}"),
    }
    let reference = service.handle(score_request());
    assert!(matches!(reference, ServiceResponse::Score { .. }));
    drop(service); // kill the first incarnation

    let (revived, report) = durable_service(&dir, FaultFs::none());
    assert!(!report.fresh_start);
    assert_eq!(report.checkpoint_generation, Some(1));
    assert_eq!(report.replayed_records, 1);
    assert_eq!(report.replayed_posts, 2080);
    assert_eq!(revived.handle(score_request()), reference);
    match revived.handle(ServiceRequest::Status) {
        ServiceResponse::Status {
            posts,
            generation,
            recovered_at_start,
            last_checkpoint_generation,
            ..
        } => {
            assert_eq!((posts, generation), (6240, 2));
            assert!(recovered_at_start);
            assert_eq!(last_checkpoint_generation, Some(1));
        }
        other => panic!("unexpected: {other:?}"),
    }
    drop(revived);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An ingest whose journal fsync fails answers a structured durability error
/// and is **invisible**: not published, not replayed after restart.  Later
/// ingests append cleanly and do survive.
#[test]
fn errored_ingests_are_invisible_and_later_ingests_survive_restart() {
    let dir = temp_dir("service_fsync_fault");
    let faults = FaultFs::none();
    let (service, _) = durable_service(&dir, faults.clone());

    match service.handle(ServiceRequest::Ingest { posts: batch(8) }) {
        ServiceResponse::Ingested { generation, .. } => assert_eq!(generation, 1),
        other => panic!("unexpected: {other:?}"),
    }
    faults.fail_sync(0);
    match service.handle(ServiceRequest::Ingest { posts: batch(9) }) {
        ServiceResponse::Error { error } => {
            assert_eq!(error.kind, "durability");
            assert!(error.detail.contains("fsync"), "{}", error.detail);
        }
        other => panic!("unexpected: {other:?}"),
    }
    match service.handle(ServiceRequest::Status) {
        ServiceResponse::Status {
            posts,
            generation,
            wal_records,
            ..
        } => {
            // The failed batch never published: generation and corpus are
            // exactly as before it, and its frame was rolled back.
            assert_eq!((posts, generation, wal_records), (4160, 1, 1));
        }
        other => panic!("unexpected: {other:?}"),
    }
    // The fault disarmed; the same batch ingests cleanly now.
    match service.handle(ServiceRequest::Ingest { posts: batch(9) }) {
        ServiceResponse::Ingested { generation, .. } => assert_eq!(generation, 2),
        other => panic!("unexpected: {other:?}"),
    }
    let reference = service.handle(score_request());
    drop(service);

    let (revived, report) = durable_service(&dir, FaultFs::none());
    assert_eq!(report.replayed_records, 2);
    assert_eq!(revived.handle(score_request()), reference);
    drop(revived);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint whose directory rename fails answers a structured durability
/// error, leaves the previous checkpoint authoritative, and succeeds when
/// retried after the fault clears.
#[test]
fn checkpoint_faults_answer_structured_errors_and_keep_the_previous_checkpoint() {
    let dir = temp_dir("service_rename_fault");
    let faults = FaultFs::none();
    let (service, _) = durable_service(&dir, faults.clone());

    let _ = service.handle(ServiceRequest::Ingest { posts: batch(8) });
    faults.fail_rename(0);
    match service.handle(ServiceRequest::Checkpoint) {
        ServiceResponse::Error { error } => assert_eq!(error.kind, "durability"),
        other => panic!("unexpected: {other:?}"),
    }
    match service.handle(ServiceRequest::Status) {
        ServiceResponse::Status {
            last_checkpoint_generation,
            ..
        } => assert_eq!(last_checkpoint_generation, Some(0), "seed checkpoint stays"),
        other => panic!("unexpected: {other:?}"),
    }
    // Retry with the fault disarmed: the checkpoint lands.
    match service.handle(ServiceRequest::Checkpoint) {
        ServiceResponse::Checkpointed { generation, .. } => assert_eq!(generation, 1),
        other => panic!("unexpected: {other:?}"),
    }
    let reference = service.handle(score_request());
    drop(service);

    let (revived, report) = durable_service(&dir, FaultFs::none());
    assert_eq!(report.checkpoint_generation, Some(1));
    assert_eq!(report.replayed_records, 0);
    assert_eq!(revived.handle(score_request()), reference);
    drop(revived);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bit flip inside an earlier journal frame severs the replay chain at the
/// damage: recovery keeps exactly the records before it, truncates the rest,
/// and never panics.
#[test]
fn bitflipped_journal_frames_truncate_the_suffix_without_panicking() {
    let dir = temp_dir("bitflip");
    let seed = || LiveEngine::new(Corpus::default());
    let build = |corpus: Corpus, _: Option<SignalCacheFile>| LiveEngine::new(corpus);
    let (store, mut engine, _) =
        DurableStore::recover(&dir, FaultFs::none(), seed, build).expect("first recovery");
    let mut bytes_after = Vec::new();
    for generation in 1..=3_u64 {
        let posts = batch(7 + generation)[..4].to_vec();
        store
            .log_ingest(&posts, generation)
            .expect("append journals");
        engine.ingest_batch(posts);
        bytes_after.push(store.stats().wal_bytes);
    }
    drop(store);

    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).expect("journal readable");
    // Flip one payload byte inside the second frame.
    let at = bytes_after[0] as usize + 10;
    bytes[at] ^= 0x40;
    std::fs::write(&wal, &bytes).expect("journal writable");

    let (_store, recovered, report) =
        DurableStore::recover(&dir, FaultFs::none(), seed, build).expect("recovery never panics");
    assert_eq!(report.replayed_records, 1);
    assert!(report.truncated_wal_bytes > 0);
    let mut expected = seed();
    expected.ingest_batch(batch(8)[..4].to_vec());
    assert_eq!(recovered.snapshot_corpus(), expected.snapshot_corpus());
    let _ = std::fs::remove_dir_all(&dir);
}
