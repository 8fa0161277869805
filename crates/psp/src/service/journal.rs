//! The write-ahead ingest journal: a length-prefixed, checksummed append-only
//! log of every ingested batch, fsync'd **before** the batch is published.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! file   := HEADER frame*
//! HEADER := b"PSPWAL01"                      (8 bytes, layout version in the magic)
//! frame  := len:u32  crc:u32  payload[len]   (crc = CRC-32/IEEE of payload)
//! payload:= JSON of WalRecord { generation, posts }
//! ```
//!
//! The format is deliberately *recoverable by construction*: a crash can only
//! ever damage the **tail** of the file (appends are sequential and fsync'd in
//! order), so [`scan_wal`] reads frames front to back and stops at the first
//! one that fails any check — short header, short frame, CRC mismatch,
//! implausible length, trailing garbage.  Everything before that point is the
//! valid prefix; everything after is a torn write and is physically truncated
//! away when the writer reopens the file ([`WalWriter::open`]).  No record is
//! ever half-applied: a frame either checksums as a whole or is discarded as
//! a whole.
//!
//! [`FaultFs`] is the fail-point layer the durability tests drive: it can
//! tear an append mid-frame (the on-disk effect of powering off mid-write),
//! fail an fsync, or suppress a rename, each after a configurable countdown.
//! Production code paths run with [`FaultFs::none`], which compiles down to a
//! few relaxed atomic loads.

use crate::error::PspError;
use serde::{Deserialize, Serialize};
use socialsim::post::Post;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The journal file magic; doubles as the layout version (bump the trailing
/// digits on any format change so old readers reject new files wholesale).
pub const WAL_MAGIC: &[u8; 8] = b"PSPWAL01";

/// Frames longer than this are treated as corruption, not data: the length
/// prefix of a torn frame can decode to garbage, and trusting it would make
/// recovery allocate gigabytes before the CRC check ever runs.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

/// One journaled ingest batch: the posts plus the generation their
/// publication stamps.  Replay applies records whose generation lies beyond
/// the checkpoint floor, in file order.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// The engine generation this batch publishes (checkpoint floor filter).
    pub generation: u64,
    /// The ingested posts, in ingest order.
    pub posts: Vec<Post>,
}

/// [`WalRecord`]'s payload shape over a borrowed batch, so journaling an
/// ingest copies no post.  Written by hand: the derive has no lifetimes.
struct WalRecordRef<'a> {
    generation: u64,
    posts: &'a [Post],
}

impl Serialize for WalRecordRef<'_> {
    fn serialize<S: serde::Serializer>(&self, s: &mut S) {
        s.serialize_struct("WalRecord");
        s.serialize_field("generation", &self.generation);
        s.serialize_field("posts", self.posts);
        s.end_struct();
    }
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over `bytes` — the checksum
/// guarding every WAL frame and checkpoint manifest entry.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    // One lazily built 256-entry table; the polynomial is reflected 0x04C11DB7.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0_u32; 256];
        for (n, entry) in table.iter_mut().enumerate() {
            let mut c = n as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    });
    let mut c = 0xFFFF_FFFF_u32;
    for byte in bytes {
        c = table[((c ^ u32::from(*byte)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// What a front-to-back scan of a WAL file found: the valid record prefix and
/// where it ends.
#[derive(Debug)]
pub struct WalScan {
    /// The records of the valid prefix, in file order.
    pub records: Vec<WalRecord>,
    /// File offset one past the last valid frame (truncation point).
    pub valid_bytes: u64,
    /// Total bytes in the file as scanned.
    pub file_bytes: u64,
}

impl WalScan {
    /// Whether the file carried damage past the valid prefix.
    #[must_use]
    pub fn truncated_bytes(&self) -> u64 {
        self.file_bytes - self.valid_bytes
    }
}

/// Reads the valid prefix of the WAL at `path`.  A missing file scans as
/// empty; a file whose header does not match [`WAL_MAGIC`] scans as fully
/// torn (valid prefix of zero records) — nothing in it can be trusted.
///
/// # Errors
///
/// [`PspError::Durability`] only on I/O failures reading an existing file;
/// corruption is never an error, it is a shorter valid prefix.
pub fn scan_wal(path: &Path) -> Result<WalScan, PspError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalScan {
                records: Vec::new(),
                valid_bytes: 0,
                file_bytes: 0,
            })
        }
        Err(err) => {
            return Err(PspError::Durability {
                detail: format!("read WAL {}: {err}", path.display()),
            })
        }
    };
    let file_bytes = bytes.len() as u64;
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Ok(WalScan {
            records: Vec::new(),
            valid_bytes: 0,
            file_bytes,
        });
    }
    let mut records = Vec::new();
    let mut at = WAL_MAGIC.len();
    while let Some(frame) = bytes.get(at..at + 8) {
        let len = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
        if len > MAX_FRAME_BYTES {
            break;
        }
        let Some(payload) = bytes.get(at + 8..at + 8 + len as usize) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        // The checksum passed but the payload may still not decode: a
        // foreign or future record shape.  Trusting anything after it would
        // re-order history, so the prefix ends there too.
        let Ok(record) = serde_json::from_str::<WalRecord>(text) else {
            break;
        };
        records.push(record);
        at += 8 + len as usize;
    }
    Ok(WalScan {
        records,
        valid_bytes: at as u64,
        file_bytes,
    })
}

/// Injectable filesystem faults for durability tests: tear an append
/// mid-frame, fail an fsync, suppress a rename.  Cloning shares the fault
/// state, so a test can keep a handle while the store owns another.
///
/// Each fault is armed as a countdown: `after` = 0 triggers on the next
/// matching operation, 1 on the one after that, and so on.  A triggered
/// fault disarms itself.
#[derive(Debug, Clone, Default)]
pub struct FaultFs {
    inner: Arc<FaultState>,
}

#[derive(Debug)]
struct FaultState {
    /// Appends left before one is torn (-1 = disarmed).
    tear_in: AtomicI64,
    /// How many frame bytes the torn append leaves on disk.
    tear_keep: AtomicUsize,
    /// Syncs left before one fails (-1 = disarmed).
    sync_fail_in: AtomicI64,
    /// Renames left before one is suppressed (-1 = disarmed).
    rename_fail_in: AtomicI64,
}

impl Default for FaultState {
    fn default() -> Self {
        Self {
            tear_in: AtomicI64::new(-1),
            tear_keep: AtomicUsize::new(0),
            sync_fail_in: AtomicI64::new(-1),
            rename_fail_in: AtomicI64::new(-1),
        }
    }
}

/// Decrements an armed countdown; returns whether it hit zero (trigger).
fn countdown(counter: &AtomicI64) -> bool {
    // Not a race in practice: faults are armed by a test thread before the
    // operation under test runs; production runs never arm them at all.
    let value = counter.load(Ordering::SeqCst);
    if value < 0 {
        return false;
    }
    counter.store(value - 1, Ordering::SeqCst);
    value == 0
}

impl FaultFs {
    /// A fault layer with nothing armed — the production configuration.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Arms a torn append: after `after` successful appends, the next one
    /// writes only the first `keep_bytes` bytes of its frame and fails — the
    /// on-disk state a power cut mid-write leaves behind.
    pub fn tear_append(&self, after: u64, keep_bytes: usize) {
        self.inner.tear_keep.store(keep_bytes, Ordering::SeqCst);
        self.inner.tear_in.store(after as i64, Ordering::SeqCst);
    }

    /// Arms an fsync failure after `after` successful syncs.
    pub fn fail_sync(&self, after: u64) {
        self.inner
            .sync_fail_in
            .store(after as i64, Ordering::SeqCst);
    }

    /// Arms a rename suppression after `after` successful renames: the
    /// rename does not happen and the caller sees an error — the state a
    /// crash immediately before the rename leaves behind.
    pub fn fail_rename(&self, after: u64) {
        self.inner
            .rename_fail_in
            .store(after as i64, Ordering::SeqCst);
    }

    /// Writes one WAL frame through the tear fault point.
    fn write_frame(&self, file: &mut File, frame: &[u8]) -> Result<(), PspError> {
        if countdown(&self.inner.tear_in) {
            let keep = self.inner.tear_keep.load(Ordering::SeqCst).min(frame.len());
            file.write_all(&frame[..keep])
                .map_err(|err| PspError::Durability {
                    detail: format!("torn WAL append (injected) failed to write: {err}"),
                })?;
            let _ = file.sync_data();
            return Err(PspError::Durability {
                detail: format!(
                    "injected torn append: {keep} of {} bytes reached disk",
                    frame.len()
                ),
            });
        }
        file.write_all(frame).map_err(|err| PspError::Durability {
            detail: format!("append WAL frame: {err}"),
        })
    }

    /// Fsyncs `file` through the sync fault point.
    pub(crate) fn sync(&self, file: &File, what: &str) -> Result<(), PspError> {
        if countdown(&self.inner.sync_fail_in) {
            return Err(PspError::Durability {
                detail: format!("injected fsync failure on {what}"),
            });
        }
        file.sync_data().map_err(|err| PspError::Durability {
            detail: format!("fsync {what}: {err}"),
        })
    }

    /// Renames `from` to `to` through the rename fault point.
    pub(crate) fn rename(&self, from: &Path, to: &Path) -> Result<(), PspError> {
        if countdown(&self.inner.rename_fail_in) {
            return Err(PspError::Durability {
                detail: format!(
                    "injected rename failure: {} never became {}",
                    from.display(),
                    to.display()
                ),
            });
        }
        std::fs::rename(from, to).map_err(|err| PspError::Durability {
            detail: format!("rename {} -> {}: {err}", from.display(), to.display()),
        })
    }
}

/// Encodes one record as a WAL frame, `len:u32 crc:u32 payload` (see the
/// module docs): the one frame encoder behind appends and compaction.
fn encode_frame(generation: u64, posts: &[Post]) -> Result<Vec<u8>, PspError> {
    let record = WalRecordRef { generation, posts };
    let payload = serde_json::to_string(&record).map_err(|err| PspError::Durability {
        detail: format!("serialise WAL record: {err:?}"),
    })?;
    let payload = payload.as_bytes();
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// The appending half of the journal.  One writer exists per
/// [`DurableStore`](super::durability::DurableStore), serialized by the
/// store's WAL mutex; every append is fsync'd before it returns `Ok`.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: File,
    faults: FaultFs,
    records: u64,
    bytes: u64,
    /// Set when a failed append could not be rolled back: the file may end
    /// mid-frame, so further appends would strand every later record behind
    /// a CRC break.  A poisoned writer refuses to append.
    poisoned: bool,
}

impl WalWriter {
    /// Opens (or creates) the WAL at `path` for appending, first truncating
    /// any torn tail `scan` found — the only mutation recovery ever performs
    /// on the journal.
    ///
    /// # Errors
    ///
    /// [`PspError::Durability`] on any filesystem failure.
    pub fn open(path: &Path, scan: &WalScan, faults: FaultFs) -> Result<Self, PspError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|err| PspError::Durability {
                detail: format!("open WAL {}: {err}", path.display()),
            })?;
        let io = |err: std::io::Error, what: &str| PspError::Durability {
            detail: format!("{what} {}: {err}", path.display()),
        };
        if scan.valid_bytes == 0 {
            // Fresh file, or a header so damaged nothing was salvageable:
            // start the journal over.
            file.set_len(0).map_err(|err| io(err, "truncate WAL"))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|err| io(err, "seek WAL"))?;
            file.write_all(WAL_MAGIC)
                .map_err(|err| io(err, "write WAL header"))?;
            faults.sync(&file, "WAL header")?;
        } else if scan.valid_bytes < scan.file_bytes {
            // Torn tail: drop it so the next append starts on a frame
            // boundary instead of extending garbage.
            file.set_len(scan.valid_bytes)
                .map_err(|err| io(err, "truncate torn WAL tail of"))?;
            faults.sync(&file, "truncated WAL")?;
        }
        let end = file
            .seek(SeekFrom::End(0))
            .map_err(|err| io(err, "seek WAL"))?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            faults,
            records: scan.records.len() as u64,
            bytes: end,
            poisoned: false,
        })
    }

    /// Appends one record, the batch `posts` publishing `generation`, and
    /// fsyncs.  On `Ok`, the record is durable; on `Err`, the caller must
    /// treat the batch as not ingested, and the partial frame is rolled back
    /// so a *surviving* writer keeps appending on a frame boundary — without
    /// the rollback, the next successful append would land after garbage and
    /// be unreachable on replay.  (A crash mid-append leaves the torn frame
    /// instead; the next open truncates it.)
    ///
    /// # Errors
    ///
    /// [`PspError::Durability`] when serialisation, the write or the fsync
    /// fails (including injected faults), or when an earlier failed append
    /// could not be rolled back (poisoned writer).
    pub fn append(&mut self, generation: u64, posts: &[Post]) -> Result<(), PspError> {
        if self.poisoned {
            return Err(PspError::Durability {
                detail: format!(
                    "WAL {} is poisoned: an earlier failed append could not be rolled back",
                    self.path.display()
                ),
            });
        }
        let frame = encode_frame(generation, posts)?;
        let outcome = self
            .faults
            .clone()
            .write_frame(&mut self.file, &frame)
            .and_then(|()| self.faults.sync(&self.file, "WAL append"));
        if let Err(error) = outcome {
            self.rollback_partial_append();
            return Err(error);
        }
        self.records += 1;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Truncates back to the last durable record after a failed append and
    /// re-seats the cursor there.  Best-effort: if the truncation itself
    /// fails the writer poisons itself rather than append after a partial
    /// frame.
    fn rollback_partial_append(&mut self) {
        let rolled_back = self.file.set_len(self.bytes).is_ok()
            && self.file.seek(SeekFrom::Start(self.bytes)).is_ok();
        if rolled_back {
            let _ = self.file.sync_data();
        } else {
            self.poisoned = true;
        }
    }

    /// Rewrites the journal keeping only records with `generation >
    /// checkpoint_generation` — called after a checkpoint makes the prefix
    /// redundant.  Atomic: the surviving records are written to a sibling
    /// temp file, fsync'd, and renamed over the journal; on any failure the
    /// original journal is untouched and stays in use.
    ///
    /// # Errors
    ///
    /// [`PspError::Durability`] on filesystem failures (including injected
    /// faults); the writer keeps appending to the uncompacted journal.
    pub fn compact(&mut self, checkpoint_generation: u64) -> Result<(), PspError> {
        let scan = scan_wal(&self.path)?;
        let survivors: Vec<&WalRecord> = scan
            .records
            .iter()
            .filter(|record| record.generation > checkpoint_generation)
            .collect();
        let tmp = self.path.with_extension("log.tmp");
        let write_tmp = || -> Result<(u64, u64), PspError> {
            let mut file = File::create(&tmp).map_err(|err| PspError::Durability {
                detail: format!("create {}: {err}", tmp.display()),
            })?;
            let mut bytes = WAL_MAGIC.len() as u64;
            file.write_all(WAL_MAGIC)
                .map_err(|err| PspError::Durability {
                    detail: format!("write {}: {err}", tmp.display()),
                })?;
            for record in &survivors {
                let frame = encode_frame(record.generation, &record.posts)?;
                file.write_all(&frame).map_err(|err| PspError::Durability {
                    detail: format!("write {}: {err}", tmp.display()),
                })?;
                bytes += frame.len() as u64;
            }
            self.faults.sync(&file, "compacted WAL")?;
            Ok((survivors.len() as u64, bytes))
        };
        let (records, bytes) = match write_tmp() {
            Ok(counts) => counts,
            Err(err) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(err);
            }
        };
        if let Err(err) = self.faults.rename(&tmp, &self.path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(err);
        }
        // Swap the handle to the new file; on failure the old handle still
        // points at the (now-renamed-over) inode, so reopen errors are fatal
        // for compaction but not for correctness — reopen lazily instead of
        // appending to a dead inode.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|err| PspError::Durability {
                detail: format!("reopen compacted WAL {}: {err}", self.path.display()),
            })?;
        file.seek(SeekFrom::End(0))
            .map_err(|err| PspError::Durability {
                detail: format!("seek compacted WAL {}: {err}", self.path.display()),
            })?;
        self.file = file;
        self.records = records;
        self.bytes = bytes;
        // The rewrite dropped any partial frame a failed rollback left
        // behind, so a poisoned writer is healthy again.
        self.poisoned = false;
        Ok(())
    }

    /// Records currently in the journal.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes currently in the journal (header included).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialsim::engagement::Engagement;
    use socialsim::post::{Region, TargetApplication};
    use socialsim::time::SimDate;
    use socialsim::user::User;

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("psp_journal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn post(id: u64, text: &str) -> Post {
        Post::new(
            id,
            User::new("journal_user", 120, 24),
            text,
            vec![],
            SimDate::new(2021, 6, 15),
            Region::Europe,
            TargetApplication::Excavator,
            Engagement::new(1000, 20, 5, 2),
        )
    }

    fn posts(ids: &[u64]) -> Vec<Post> {
        ids.iter()
            .map(|id| post(*id, "#dpfdelete kit 360 EUR"))
            .collect()
    }

    fn record(generation: u64, ids: &[u64]) -> WalRecord {
        WalRecord {
            generation,
            posts: posts(ids),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_scan_round_trips_records() {
        let path = temp_wal("round_trip");
        let scan = scan_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        let mut writer = WalWriter::open(&path, &scan, FaultFs::none()).unwrap();
        writer.append(1, &posts(&[1, 2])).unwrap();
        writer.append(2, &posts(&[3])).unwrap();
        assert_eq!(writer.records(), 2);

        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records, vec![record(1, &[1, 2]), record(2, &[3])]);
        assert_eq!(scan.valid_bytes, scan.file_bytes);
    }

    #[test]
    fn a_torn_tail_is_detected_and_truncated_on_reopen() {
        let path = temp_wal("torn_tail");
        let mut writer =
            WalWriter::open(&path, &scan_wal(&path).unwrap(), FaultFs::none()).unwrap();
        writer.append(1, &posts(&[1])).unwrap();
        let valid = writer.bytes();
        // A crash mid-append: half a frame of garbage at the end.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0x55, 0x00, 0x00, 0x00, 0xAA, 0xBB]);
        std::fs::write(&path, &bytes).unwrap();

        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_bytes, valid);
        assert_eq!(scan.truncated_bytes(), 6);

        // Reopening truncates; the next scan is clean and appends work.
        let mut writer = WalWriter::open(&path, &scan, FaultFs::none()).unwrap();
        writer.append(2, &posts(&[2])).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.truncated_bytes(), 0);
    }

    #[test]
    fn a_corrupt_byte_invalidates_exactly_the_damaged_suffix() {
        let path = temp_wal("bitflip");
        let mut writer =
            WalWriter::open(&path, &scan_wal(&path).unwrap(), FaultFs::none()).unwrap();
        writer.append(1, &posts(&[1])).unwrap();
        let first_end = writer.bytes();
        writer.append(2, &posts(&[2])).unwrap();

        // Flip one payload byte in the second frame.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = first_end as usize + 10;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records, vec![record(1, &[1])]);
        assert_eq!(scan.valid_bytes, first_end);
        assert_eq!(scan.truncated_bytes(), bytes.len() as u64 - first_end);
    }

    #[test]
    fn a_foreign_header_scans_as_fully_torn_and_resets() {
        let path = temp_wal("foreign");
        std::fs::write(&path, b"NOTAWAL!garbage").unwrap();
        let scan = scan_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_bytes, 0);
        // Reopen resets to an empty journal.
        let writer = WalWriter::open(&path, &scan, FaultFs::none()).unwrap();
        assert_eq!(writer.records(), 0);
        let scan = scan_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.truncated_bytes(), 0);
    }

    #[test]
    fn implausible_frame_lengths_stop_the_scan() {
        let path = temp_wal("implausible");
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0_u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_bytes, WAL_MAGIC.len() as u64);
        assert_eq!(scan.truncated_bytes(), 8);
    }

    #[test]
    fn injected_torn_appends_fail_and_roll_back_their_partial_frame() {
        let path = temp_wal("fault_tear");
        let faults = FaultFs::none();
        let mut writer = WalWriter::open(&path, &scan_wal(&path).unwrap(), faults.clone()).unwrap();
        writer.append(1, &posts(&[1])).unwrap();
        let valid = writer.bytes();
        faults.tear_append(0, 5);
        let err = writer.append(2, &posts(&[2])).unwrap_err();
        assert_eq!(err.kind(), "durability");

        // The surviving writer rolled the partial frame back: the journal
        // ends on a frame boundary holding exactly record 1.
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records, vec![record(1, &[1])]);
        assert_eq!(scan.truncated_bytes(), 0);
        assert_eq!(scan.file_bytes, valid);

        // The fault disarmed itself and the SAME writer keeps appending on
        // the boundary — the later record must stay replayable.
        writer.append(2, &posts(&[2])).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records, vec![record(1, &[1]), record(2, &[2])]);
        assert_eq!(scan.truncated_bytes(), 0);
    }

    #[test]
    fn injected_sync_failures_surface_as_durability_errors_and_roll_back() {
        let path = temp_wal("fault_sync");
        let faults = FaultFs::none();
        let mut writer = WalWriter::open(&path, &scan_wal(&path).unwrap(), faults.clone()).unwrap();
        faults.fail_sync(0);
        let err = writer.append(1, &posts(&[1])).unwrap_err();
        assert_eq!(err.kind(), "durability");
        assert!(err.to_string().contains("fsync"));
        // The fully written but unsynced frame was rolled back; the same
        // writer appends cleanly afterwards.
        assert_eq!(scan_wal(&path).unwrap().records.len(), 0);
        writer.append(1, &posts(&[1])).unwrap();
        assert_eq!(scan_wal(&path).unwrap().records, vec![record(1, &[1])]);
    }

    #[test]
    fn compaction_drops_checkpointed_records_atomically() {
        let path = temp_wal("compact");
        let mut writer =
            WalWriter::open(&path, &scan_wal(&path).unwrap(), FaultFs::none()).unwrap();
        for generation in 1..=4 {
            writer.append(generation, &posts(&[generation])).unwrap();
        }
        writer.compact(2).unwrap();
        assert_eq!(writer.records(), 2);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(
            scan.records
                .iter()
                .map(|r| r.generation)
                .collect::<Vec<_>>(),
            vec![3, 4]
        );
        // The writer keeps appending on the compacted file.
        writer.append(5, &posts(&[5])).unwrap();
        assert_eq!(scan_wal(&path).unwrap().records.len(), 3);
    }

    #[test]
    fn failed_compaction_leaves_the_journal_untouched() {
        let path = temp_wal("compact_fail");
        let faults = FaultFs::none();
        let mut writer = WalWriter::open(&path, &scan_wal(&path).unwrap(), faults.clone()).unwrap();
        for generation in 1..=3 {
            writer.append(generation, &posts(&[generation])).unwrap();
        }
        faults.fail_rename(0);
        assert_eq!(writer.compact(2).unwrap_err().kind(), "durability");
        // All three records still present; appends continue to work.
        assert_eq!(scan_wal(&path).unwrap().records.len(), 3);
        writer.append(4, &posts(&[4])).unwrap();
        assert_eq!(scan_wal(&path).unwrap().records.len(), 4);
    }
}
