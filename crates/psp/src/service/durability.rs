//! The durability plane: atomic checkpoints + write-ahead journal + startup
//! recovery for the TARA service.
//!
//! A data directory owned by a [`DurableStore`] looks like:
//!
//! ```text
//! <data-dir>/
//!   wal.log                      write-ahead ingest journal (see `journal`)
//!   checkpoints/
//!     ckpt-<generation>/
//!       manifest.json            generation, post count, per-file byte counts + CRC32s
//!       corpus.json              the full corpus at the checkpointed generation
//!       signals.json             the engine's exported signal cache (warm restart)
//! ```
//!
//! **Invariants**
//!
//! * *WAL-append happens-before publish*: an `Ingest` is journaled and
//!   fsync'd before its generation swaps in
//!   ([`SnapshotPublisher::ingest_logged`](super::snapshot::SnapshotPublisher::ingest_logged)),
//!   so every acknowledged batch is on disk.
//! * *Checkpoints are atomic*: all three files are written and fsync'd into
//!   a `.tmp-ckpt-<generation>` sibling, then one directory rename publishes
//!   them.  A crash at any point leaves either the old set of valid
//!   checkpoints or the old set plus one complete new checkpoint — never a
//!   partial one (partials are swept on the next recovery).
//! * *Recovery never trusts bytes it cannot verify*: a checkpoint must pass
//!   manifest + CRC32 + parse + post-count validation to be loaded (newest
//!   valid wins, older ones are fallbacks); the WAL is replayed up to its
//!   valid prefix and the torn tail is physically truncated.
//! * *Bit-identical reconstruction*: rebuild-over-snapshot-corpus plus
//!   [`StreamingScorer::restore_generation`] reproduces the pre-crash
//!   engine's responses exactly (property-tested in `tests/durability.rs`).

use super::journal::{crc32, scan_wal, FaultFs, WalRecord, WalWriter};
use crate::engine::{SignalCacheFile, StreamingScorer};
use crate::error::PspError;
use serde::{Deserialize, Serialize};
use socialsim::corpus::Corpus;
use socialsim::post::Post;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The journal file name inside a data directory.
const WAL_FILE: &str = "wal.log";
/// The checkpoint subdirectory name.
const CHECKPOINT_DIR: &str = "checkpoints";
/// Published checkpoint directories: `ckpt-<generation>`.
const CHECKPOINT_PREFIX: &str = "ckpt-";
/// In-flight checkpoint directories, swept at recovery: `.tmp-ckpt-<generation>`.
const CHECKPOINT_TMP_PREFIX: &str = ".tmp-ckpt-";
/// How many published checkpoints [`DurableStore::checkpoint`] retains.
const CHECKPOINTS_KEPT: usize = 2;
/// Sentinel for "no checkpoint yet" in the atomic generation cell.
const NO_CHECKPOINT: u64 = u64::MAX;

/// The self-describing half of a checkpoint: what the data files must hash
/// and count to, so recovery validates before parsing a byte of payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CheckpointManifest {
    /// Engine generation the checkpoint captures.
    generation: u64,
    /// Posts in `corpus.json`.
    posts: u64,
    /// Byte length of `corpus.json`.
    corpus_bytes: u64,
    /// CRC-32 (IEEE) of `corpus.json`.
    corpus_crc32: u32,
    /// Byte length of `signals.json`.
    signals_bytes: u64,
    /// CRC-32 (IEEE) of `signals.json`.
    signals_crc32: u32,
}

/// What startup recovery found and did — surfaced by the daemon's
/// `--recover` logging and asserted by the fault-injection tests.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Generation of the checkpoint that was loaded (`None` = fresh start,
    /// no valid checkpoint existed).
    pub checkpoint_generation: Option<u64>,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: usize,
    /// Posts those records carried.
    pub replayed_posts: usize,
    /// Bytes of torn/corrupt WAL tail that were truncated away.
    pub truncated_wal_bytes: u64,
    /// Whether the data directory held no prior state at all.
    pub fresh_start: bool,
}

/// Durability counters for `Status` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Records currently in the journal (since the last compaction).
    pub wal_records: u64,
    /// Bytes currently in the journal.
    pub wal_bytes: u64,
    /// Generation of the newest published checkpoint, if any.
    pub last_checkpoint_generation: Option<u64>,
    /// Whether this store restored prior state at startup (checkpoint
    /// loaded or WAL records replayed).
    pub recovered_at_start: bool,
}

/// The durability plane of one data directory: the WAL writer, the
/// checkpoint publisher and the recovery bookkeeping.  Shared `Arc`'d
/// between the service state and embedding callers.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    faults: FaultFs,
    wal: Mutex<WalWriter>,
    /// Newest published checkpoint generation ([`NO_CHECKPOINT`] = none).
    last_checkpoint: AtomicU64,
    recovered_at_start: AtomicBool,
}

impl DurableStore {
    /// Opens (or initialises) the data directory at `dir` and reconstructs
    /// the engine it last served:
    ///
    /// 1. sweep in-flight checkpoint temp directories (crash residue);
    /// 2. load the newest checkpoint that passes full validation, handing
    ///    its corpus (and best-effort signal cache) to `build`; when none
    ///    exists, start from `seed()` and immediately publish generation
    ///    zero as the initial checkpoint;
    /// 3. replay the WAL's valid prefix — every record with a generation
    ///    beyond the checkpoint floor, in file order — and truncate the torn
    ///    tail.
    ///
    /// Returns the store, the reconstructed engine and a [`RecoveryReport`].
    ///
    /// # Errors
    ///
    /// [`PspError::Durability`] on filesystem failures.  Corruption is never
    /// an error: damaged checkpoints are skipped (older ones are fallbacks)
    /// and damaged WAL tails are truncated.
    pub fn recover<E: StreamingScorer>(
        dir: &Path,
        faults: FaultFs,
        seed: impl FnOnce() -> E,
        build: impl FnOnce(Corpus, Option<SignalCacheFile>) -> E,
    ) -> Result<(Arc<Self>, E, RecoveryReport), PspError> {
        let checkpoints = dir.join(CHECKPOINT_DIR);
        std::fs::create_dir_all(&checkpoints).map_err(|err| PspError::Durability {
            detail: format!("create {}: {err}", checkpoints.display()),
        })?;
        sweep_tmp_checkpoints(&checkpoints);

        let loaded = newest_valid_checkpoint(&checkpoints);
        let fresh_start = loaded.is_none() && !dir.join(WAL_FILE).exists();
        let (mut engine, checkpoint_generation) = match loaded {
            Some((generation, corpus, signals)) => {
                let mut engine = build(corpus, signals);
                engine.restore_generation(generation);
                (engine, Some(generation))
            }
            None => (seed(), None),
        };

        // Replay the journal's valid prefix beyond the checkpoint floor.
        let wal_path = dir.join(WAL_FILE);
        let scan = scan_wal(&wal_path)?;
        let floor = checkpoint_generation.unwrap_or(0);
        let mut replayed_records = 0;
        let mut replayed_posts = 0;
        for record in &scan.records {
            if record.generation <= floor && checkpoint_generation.is_some() {
                continue; // Already inside the checkpoint (compaction lag).
            }
            replayed_records += 1;
            replayed_posts += record.posts.len();
            engine.ingest_batch(record.posts.clone());
            // Stamp the journaled generation, so recovered responses match
            // the pre-crash service even if the journal has gaps.
            engine.restore_generation(record.generation);
        }
        let truncated_wal_bytes = scan.truncated_bytes();
        let wal = WalWriter::open(&wal_path, &scan, faults.clone())?;

        let store = Arc::new(Self {
            dir: dir.to_path_buf(),
            faults,
            wal: Mutex::new(wal),
            last_checkpoint: AtomicU64::new(checkpoint_generation.unwrap_or(NO_CHECKPOINT)),
            recovered_at_start: AtomicBool::new(
                checkpoint_generation.is_some() || replayed_records > 0,
            ),
        });
        if checkpoint_generation.is_none() {
            // First start on this directory: make the seed corpus durable
            // immediately, so from here on the directory alone reconstructs
            // the engine.
            store.checkpoint(&engine)?;
        }
        let report = RecoveryReport {
            checkpoint_generation,
            replayed_records,
            replayed_posts,
            truncated_wal_bytes,
            fresh_start,
        };
        Ok((store, engine, report))
    }

    /// Appends one ingest batch to the journal and fsyncs — the write-ahead
    /// hook [`SnapshotPublisher::ingest_logged`](super::snapshot::SnapshotPublisher::ingest_logged)
    /// calls before publishing `generation`.
    ///
    /// # Errors
    ///
    /// [`PspError::Durability`] when the append could not be made durable;
    /// the caller must not publish the batch.
    pub fn log_ingest(&self, posts: &[Post], generation: u64) -> Result<(), PspError> {
        let record = WalRecord {
            generation,
            posts: posts.to_vec(),
        };
        self.wal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(&record)
    }

    /// Publishes an atomic checkpoint of `engine`: corpus + signal cache +
    /// manifest written into a temp directory, fsync'd, renamed into place;
    /// then the journal is compacted past the checkpointed generation and
    /// all but the newest two checkpoints are pruned.
    ///
    /// Idempotent per generation: if this generation (or a newer one) is
    /// already checkpointed, nothing is written.
    ///
    /// Returns `(generation, posts, path)` of the covering checkpoint.
    ///
    /// # Errors
    ///
    /// [`PspError::Durability`] on filesystem failures (including injected
    /// faults).  On error nothing was published: the previous checkpoints
    /// and the journal are untouched.
    pub fn checkpoint<E: StreamingScorer>(
        &self,
        engine: &E,
    ) -> Result<(u64, usize, PathBuf), PspError> {
        let generation = engine.generation();
        let last = self.last_checkpoint.load(Ordering::SeqCst);
        if last != NO_CHECKPOINT && last >= generation {
            let path = self
                .dir
                .join(CHECKPOINT_DIR)
                .join(format!("{CHECKPOINT_PREFIX}{last}"));
            return Ok((last, engine.post_count(), path));
        }

        let corpus = engine.snapshot_corpus();
        let posts = corpus.len();
        let corpus_json = serde_json::to_string(&corpus).map_err(|err| PspError::Durability {
            detail: format!("serialise checkpoint corpus: {err:?}"),
        })?;
        let signals_json = serde_json::to_string(&engine.export_signal_cache()).map_err(|err| {
            PspError::Durability {
                detail: format!("serialise checkpoint signal cache: {err:?}"),
            }
        })?;
        let manifest = CheckpointManifest {
            generation,
            posts: posts as u64,
            corpus_bytes: corpus_json.len() as u64,
            corpus_crc32: crc32(corpus_json.as_bytes()),
            signals_bytes: signals_json.len() as u64,
            signals_crc32: crc32(signals_json.as_bytes()),
        };
        let manifest_json =
            serde_json::to_string(&manifest).map_err(|err| PspError::Durability {
                detail: format!("serialise checkpoint manifest: {err:?}"),
            })?;

        let checkpoints = self.dir.join(CHECKPOINT_DIR);
        let tmp = checkpoints.join(format!("{CHECKPOINT_TMP_PREFIX}{generation}"));
        let target = checkpoints.join(format!("{CHECKPOINT_PREFIX}{generation}"));
        let write_all = || -> Result<(), PspError> {
            std::fs::create_dir_all(&tmp).map_err(|err| PspError::Durability {
                detail: format!("create {}: {err}", tmp.display()),
            })?;
            for (name, content) in [
                ("corpus.json", corpus_json.as_str()),
                ("signals.json", signals_json.as_str()),
                ("manifest.json", manifest_json.as_str()),
            ] {
                let path = tmp.join(name);
                let mut file = File::create(&path).map_err(|err| PspError::Durability {
                    detail: format!("create {}: {err}", path.display()),
                })?;
                file.write_all(content.as_bytes())
                    .map_err(|err| PspError::Durability {
                        detail: format!("write {}: {err}", path.display()),
                    })?;
                self.faults.sync(&file, name)?;
            }
            Ok(())
        };
        if let Err(err) = write_all() {
            let _ = std::fs::remove_dir_all(&tmp);
            return Err(err);
        }
        if let Err(err) = self.faults.rename(&tmp, &target) {
            let _ = std::fs::remove_dir_all(&tmp);
            return Err(err);
        }
        // Make the rename itself durable (directory fsync; best-effort on
        // filesystems that refuse to open directories).
        if let Ok(dir) = File::open(&checkpoints) {
            let _ = dir.sync_all();
        }
        self.last_checkpoint.store(generation, Ordering::SeqCst);

        // The journal prefix up to this generation is now redundant; a
        // failed compaction is not a failed checkpoint (the WAL just stays
        // longer until the next one).
        let _ = self
            .wal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .compact(generation);
        prune_checkpoints(&checkpoints, CHECKPOINTS_KEPT);
        Ok((generation, posts, target))
    }

    /// Durability counters, observed now.
    #[must_use]
    pub fn stats(&self) -> DurabilityStats {
        let wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        let last = self.last_checkpoint.load(Ordering::SeqCst);
        DurabilityStats {
            wal_records: wal.records(),
            wal_bytes: wal.bytes(),
            last_checkpoint_generation: (last != NO_CHECKPOINT).then_some(last),
            recovered_at_start: self.recovered_at_start.load(Ordering::SeqCst),
        }
    }

    /// The data directory this store owns.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Removes in-flight checkpoint temp directories (crash residue) —
/// best-effort, recovery proceeds regardless.
fn sweep_tmp_checkpoints(checkpoints: &Path) {
    let Ok(entries) = std::fs::read_dir(checkpoints) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        if name.to_string_lossy().starts_with(CHECKPOINT_TMP_PREFIX) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Generations of the published checkpoint directories, unvalidated,
/// descending.
fn checkpoint_generations(checkpoints: &Path) -> Vec<u64> {
    let Ok(entries) = std::fs::read_dir(checkpoints) else {
        return Vec::new();
    };
    let mut generations: Vec<u64> = entries
        .flatten()
        .filter_map(|entry| {
            entry
                .file_name()
                .to_string_lossy()
                .strip_prefix(CHECKPOINT_PREFIX)?
                .parse()
                .ok()
        })
        .collect();
    generations.sort_unstable_by(|a, b| b.cmp(a));
    generations
}

/// Loads the newest checkpoint that passes full validation (manifest parse,
/// byte counts, CRC32s, corpus parse, post count).  Invalid ones are
/// skipped, never deleted — they are evidence.
fn newest_valid_checkpoint(checkpoints: &Path) -> Option<(u64, Corpus, Option<SignalCacheFile>)> {
    for generation in checkpoint_generations(checkpoints) {
        let dir = checkpoints.join(format!("{CHECKPOINT_PREFIX}{generation}"));
        if let Some(loaded) = load_checkpoint(&dir, generation) {
            return Some(loaded);
        }
    }
    None
}

/// Validates and loads one checkpoint directory; `None` on any mismatch.
fn load_checkpoint(dir: &Path, generation: u64) -> Option<(u64, Corpus, Option<SignalCacheFile>)> {
    let manifest_text = std::fs::read_to_string(dir.join("manifest.json")).ok()?;
    let manifest: CheckpointManifest = serde_json::from_str(&manifest_text).ok()?;
    if manifest.generation != generation {
        return None;
    }
    let corpus_bytes = std::fs::read(dir.join("corpus.json")).ok()?;
    if corpus_bytes.len() as u64 != manifest.corpus_bytes
        || crc32(&corpus_bytes) != manifest.corpus_crc32
    {
        return None;
    }
    let mut corpus: Corpus = serde_json::from_str(std::str::from_utf8(&corpus_bytes).ok()?).ok()?;
    if corpus.len() as u64 != manifest.posts {
        return None;
    }
    corpus.rebuild_index();
    // The signal cache is an optimisation, not state: a damaged one costs
    // re-mining, never correctness, so it degrades to `None` instead of
    // invalidating the checkpoint.
    let signals = std::fs::read(dir.join("signals.json"))
        .ok()
        .filter(|bytes| {
            bytes.len() as u64 == manifest.signals_bytes && crc32(bytes) == manifest.signals_crc32
        })
        .and_then(|bytes| serde_json::from_str(std::str::from_utf8(&bytes).ok()?).ok());
    Some((generation, corpus, signals))
}

/// Removes published checkpoints beyond the newest `keep` — best-effort.
fn prune_checkpoints(checkpoints: &Path, keep: usize) {
    for generation in checkpoint_generations(checkpoints).into_iter().skip(keep) {
        let _ =
            std::fs::remove_dir_all(checkpoints.join(format!("{CHECKPOINT_PREFIX}{generation}")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PspConfig;
    use crate::engine::LiveEngine;
    use crate::keyword_db::KeywordDatabase;
    use socialsim::scenario;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("psp_durability_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn seed_engine() -> LiveEngine {
        LiveEngine::new(scenario::excavator_europe(7))
    }

    fn build_engine(corpus: Corpus, signals: Option<SignalCacheFile>) -> LiveEngine {
        let engine = LiveEngine::new(corpus);
        if let Some(cache) = signals {
            let _ = engine.load_signal_cache(&cache);
        }
        engine
    }

    fn sai(engine: &LiveEngine) -> crate::sai::SaiList {
        engine.sai_list(
            &KeywordDatabase::excavator_seed(),
            &PspConfig::excavator_europe(),
        )
    }

    #[test]
    fn first_start_checkpoints_the_seed_and_recovers_it_bit_identically() {
        let dir = temp_dir("first_start");
        let (_, engine, report) =
            DurableStore::recover(&dir, FaultFs::none(), seed_engine, build_engine).unwrap();
        assert!(report.fresh_start);
        assert_eq!(report.checkpoint_generation, None);
        assert_eq!(report.replayed_records, 0);

        // A second recovery loads the initial checkpoint instead of seeding.
        let (store, recovered, report) = DurableStore::recover(
            &dir,
            FaultFs::none(),
            || panic!("seed must not be called when a checkpoint exists"),
            build_engine,
        )
        .unwrap();
        assert!(!report.fresh_start);
        assert_eq!(report.checkpoint_generation, Some(0));
        assert_eq!(recovered.generation(), engine.generation());
        assert_eq!(sai(&recovered), sai(&engine));
        assert!(store.stats().recovered_at_start);
    }

    #[test]
    fn logged_ingests_replay_after_a_simulated_crash() {
        let dir = temp_dir("replay");
        let batch8 = scenario::excavator_europe(8).posts().to_vec();
        let batch9 = scenario::excavator_europe(9).posts().to_vec();

        let (store, mut engine, _) =
            DurableStore::recover(&dir, FaultFs::none(), seed_engine, build_engine).unwrap();
        store.log_ingest(&batch8, 1).unwrap();
        engine.ingest(batch8.clone());
        store.log_ingest(&batch9, 2).unwrap();
        engine.ingest(batch9.clone());
        drop(store); // "crash": no checkpoint since the ingests

        let (store, recovered, report) = DurableStore::recover(
            &dir,
            FaultFs::none(),
            || panic!("must recover from disk"),
            build_engine,
        )
        .unwrap();
        assert_eq!(report.checkpoint_generation, Some(0));
        assert_eq!(report.replayed_records, 2);
        assert_eq!(report.replayed_posts, batch8.len() + batch9.len());
        assert_eq!(recovered.generation(), 2);
        assert_eq!(recovered.post_count(), engine.post_count());
        assert_eq!(sai(&recovered), sai(&engine));
        assert_eq!(store.stats().wal_records, 2);
    }

    #[test]
    fn checkpoints_compact_the_wal_and_are_idempotent() {
        let dir = temp_dir("compacting");
        let (store, mut engine, _) =
            DurableStore::recover(&dir, FaultFs::none(), seed_engine, build_engine).unwrap();
        let batch = scenario::excavator_europe(8).posts().to_vec();
        store.log_ingest(&batch, 1).unwrap();
        engine.ingest(batch);
        assert_eq!(store.stats().wal_records, 1);

        let (generation, posts, path) = store.checkpoint(&engine).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(posts, engine.post_count());
        assert!(path.ends_with("ckpt-1"));
        let stats = store.stats();
        assert_eq!(
            stats.wal_records, 0,
            "journal compacted past the checkpoint"
        );
        assert_eq!(stats.last_checkpoint_generation, Some(1));

        // Same generation again: nothing new is written.
        let again = store.checkpoint(&engine).unwrap();
        assert_eq!(again.0, 1);

        // Recovery prefers the checkpoint; nothing left to replay.
        drop(store);
        let (_, recovered, report) = DurableStore::recover(
            &dir,
            FaultFs::none(),
            || panic!("must recover from disk"),
            build_engine,
        )
        .unwrap();
        assert_eq!(report.checkpoint_generation, Some(1));
        assert_eq!(report.replayed_records, 0);
        assert_eq!(recovered.generation(), engine.generation());
        assert_eq!(sai(&recovered), sai(&engine));
    }

    #[test]
    fn a_failed_checkpoint_rename_leaves_prior_state_authoritative() {
        let dir = temp_dir("ckpt_rename_fault");
        let faults = FaultFs::none();
        let (store, mut engine, _) =
            DurableStore::recover(&dir, faults.clone(), seed_engine, build_engine).unwrap();
        let batch = scenario::excavator_europe(8).posts().to_vec();
        store.log_ingest(&batch, 1).unwrap();
        engine.ingest(batch);

        faults.fail_rename(0);
        assert_eq!(store.checkpoint(&engine).unwrap_err().kind(), "durability");
        // The WAL still holds the batch and no tmp residue survives.
        assert_eq!(store.stats().wal_records, 1);
        assert_eq!(store.stats().last_checkpoint_generation, Some(0));
        drop(store);
        let (_, recovered, report) = DurableStore::recover(
            &dir,
            FaultFs::none(),
            || panic!("must recover from disk"),
            build_engine,
        )
        .unwrap();
        assert_eq!(report.checkpoint_generation, Some(0));
        assert_eq!(report.replayed_records, 1);
        assert_eq!(recovered.generation(), 1);
        assert_eq!(sai(&recovered), sai(&engine));
    }

    #[test]
    fn a_corrupted_newest_checkpoint_falls_back_to_the_previous_one() {
        let dir = temp_dir("ckpt_fallback");
        let (store, mut engine, _) =
            DurableStore::recover(&dir, FaultFs::none(), seed_engine, build_engine).unwrap();
        let batch = scenario::excavator_europe(8).posts().to_vec();
        store.log_ingest(&batch, 1).unwrap();
        engine.ingest(batch.clone());
        store.checkpoint(&engine).unwrap();

        // Damage the newest checkpoint's corpus payload.
        let corpus_path = dir.join("checkpoints/ckpt-1/corpus.json");
        let mut bytes = std::fs::read(&corpus_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&corpus_path, &bytes).unwrap();

        drop(store);
        // ckpt-1 fails CRC validation; ckpt-0 (the initial one) still loads,
        // and the WAL no longer holds gen-1 (compacted) — recovery restores
        // the gen-0 state rather than trusting damaged bytes.
        let (_, recovered, report) = DurableStore::recover(
            &dir,
            FaultFs::none(),
            || panic!("must recover from disk"),
            build_engine,
        )
        .unwrap();
        assert_eq!(report.checkpoint_generation, Some(0));
        assert_eq!(recovered.generation(), 0);
        let seeded = seed_engine();
        assert_eq!(recovered.post_count(), seeded.post_count());
        assert_eq!(sai(&recovered), sai(&seeded));
    }

    #[test]
    fn old_checkpoints_are_pruned_to_the_retention_limit() {
        let dir = temp_dir("prune");
        let (store, mut engine, _) =
            DurableStore::recover(&dir, FaultFs::none(), seed_engine, build_engine).unwrap();
        for seed in 8..12 {
            let batch = scenario::excavator_europe(seed).posts().to_vec();
            let generation = engine.generation() + 1;
            store.log_ingest(&batch, generation).unwrap();
            engine.ingest(batch);
            store.checkpoint(&engine).unwrap();
        }
        let generations = checkpoint_generations(&dir.join(CHECKPOINT_DIR));
        assert_eq!(generations, vec![4, 3]);
    }
}
