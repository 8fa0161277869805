//! Snapshot isolation: an epoch/`Arc`-swap publication point between one
//! writer (ingest) and many readers (score/sweep/matrix requests).
//!
//! The engines' `&mut self` ingest path serializes everything behind one
//! borrow.  [`SnapshotPublisher`] breaks that coupling: the currently
//! published engine lives behind an `Arc` inside an `RwLock`, readers take an
//! [`EngineSnapshot`] (an `Arc` clone — O(1), no data copied) and score
//! against that immutable generation for as long as they like, while the
//! writer builds the *next* generation on a private deep copy and publishes
//! it with a single pointer swap.
//!
//! Guarantees:
//!
//! * **readers never block on ingest** — the write lock is held only for the
//!   pointer swap, never while the batch is being indexed or mined;
//! * **no torn reads** — a snapshot is immutable for its whole lifetime, so
//!   every result computed from it is bit-identical to a standalone engine at
//!   the snapshot's generation (property-tested in `tests/service.rs`);
//! * **writer serialization** — a dedicated ingest mutex orders concurrent
//!   writers, so generations advance one batch at a time.
//!
//! The cost model is copy-on-publish: each non-empty batch deep-clones the
//! published engine (O(corpus), off the reader path) before appending.  The
//! clone starts from the *published* engine, so per-post signals that readers
//! have lazily warmed carry into the next generation instead of being
//! re-mined — as copies, not shared cells: the engine derives `Clone`, so
//! every publish copies the corpus, the inverted index and each memoised
//! per-post signal (its mined `prices` vector included).  Only the sweep
//! plans are shared (`Arc`): the new generation's first read extends its own
//! copy with the batch, while readers pinned to the old generation keep the
//! old plan.

use crate::engine::{IngestReceipt, StreamingScorer};
use crate::error::PspError;
use socialsim::post::Post;
use std::ops::Deref;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// An immutable handle on one published engine generation.
///
/// Cloning is O(1) (an `Arc` clone) and the snapshot derefs to the engine, so
/// every scoring entry point (`sai_list`, `sai_windows`, `sai_matrix`, cache
/// export) works directly on it.  A snapshot taken before an ingest keeps
/// answering for its own generation even after newer generations publish.
#[derive(Debug)]
pub struct EngineSnapshot<E> {
    engine: Arc<E>,
}

impl<E> Clone for EngineSnapshot<E> {
    fn clone(&self) -> Self {
        Self {
            engine: Arc::clone(&self.engine),
        }
    }
}

impl<E> Deref for EngineSnapshot<E> {
    type Target = E;

    fn deref(&self) -> &E {
        &self.engine
    }
}

/// The publication point: one writer ingests, any number of readers snapshot.
#[derive(Debug)]
pub struct SnapshotPublisher<E> {
    /// The currently published generation.  Readers hold the lock only long
    /// enough to clone the `Arc`; the writer only long enough to swap it.
    published: RwLock<Arc<E>>,
    /// Serializes writers: the next generation is built outside any lock on
    /// `published`, but one batch at a time.
    ingest_lock: Mutex<()>,
}

impl<E: StreamingScorer + Clone> SnapshotPublisher<E> {
    /// Publishes `engine` as the initial generation.
    #[must_use]
    pub fn new(engine: E) -> Self {
        Self {
            published: RwLock::new(Arc::new(engine)),
            ingest_lock: Mutex::new(()),
        }
    }

    /// The currently published generation, as an immutable snapshot.
    ///
    /// Lock poisoning is recovered, not propagated: the protected value is
    /// only ever a fully-formed `Arc` (swapped atomically in
    /// [`ingest_logged`](Self::ingest_logged)), so a panic elsewhere can
    /// never leave it torn, and a poisoned-lock panic here would cascade one
    /// bad request into service-wide failure.
    #[must_use]
    pub fn snapshot(&self) -> EngineSnapshot<E> {
        let published = self
            .published
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        EngineSnapshot {
            engine: Arc::clone(&published),
        }
    }

    /// Ingests a batch by building and publishing the next generation:
    /// deep-clone the published engine, append the batch into the clone, swap
    /// the published pointer.  Readers keep scoring the old generation
    /// throughout; the new one becomes visible atomically.
    ///
    /// An empty batch publishes nothing (no clone, no swap) and returns a
    /// receipt at the current generation, mirroring the engines' own
    /// empty-ingest behaviour.
    ///
    /// `log` is the write-ahead hook: it runs under the ingest lock with the
    /// batch and the generation it will publish, **before** the new
    /// generation is built or swapped.  If `log` errors
    /// (e.g. a WAL append could not be made durable), nothing is published
    /// and the error is returned — the durability invariant is exactly
    /// "acked batches are on disk first".
    ///
    /// # Errors
    ///
    /// Whatever `log` returns; the publisher itself never fails.
    pub fn ingest_logged(
        &self,
        batch: Vec<Post>,
        log: impl FnOnce(&[Post], u64) -> Result<(), PspError>,
    ) -> Result<IngestReceipt, PspError> {
        let _writer = super::lock(&self.ingest_lock);
        let current = self.snapshot();
        if batch.is_empty() {
            return Ok(IngestReceipt {
                appended: 0,
                generation: current.generation(),
            });
        }
        // WAL-append happens-before publish: a crash after this point
        // replays the batch; a crash (or log failure) before it means the
        // batch was never acked, so losing it is correct.
        log(&batch, current.generation() + 1)?;
        let mut next = (*current.engine).clone();
        let receipt = next.ingest_batch(batch);
        let mut published = self
            .published
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        *published = Arc::new(next);
        Ok(receipt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PspConfig;
    use crate::engine::LiveEngine;
    use crate::keyword_db::KeywordDatabase;
    use socialsim::scenario;

    fn ingest(publisher: &SnapshotPublisher<LiveEngine>, batch: Vec<Post>) -> IngestReceipt {
        publisher
            .ingest_logged(batch, |_, _| Ok(()))
            .expect("no-op log cannot fail")
    }

    #[test]
    fn snapshots_pin_their_generation_across_ingest() {
        let seed = scenario::excavator_europe(7);
        let extra = scenario::excavator_europe(8).posts().to_vec();
        let db = KeywordDatabase::excavator_seed();
        let config = PspConfig::excavator_europe();

        let publisher = SnapshotPublisher::new(LiveEngine::new(seed.clone()));
        let old = publisher.snapshot();
        let before = old.sai_list(&db, &config);

        let receipt = ingest(&publisher, extra.clone());
        assert_eq!(receipt.appended, extra.len());
        assert_eq!(receipt.generation, 1);

        // The old snapshot still answers for generation 0, bit for bit...
        assert_eq!(old.generation(), 0);
        assert_eq!(old.sai_list(&db, &config), before);
        assert_eq!(before, LiveEngine::new(seed.clone()).sai_list(&db, &config));
        // ...while a fresh snapshot serves the grown corpus.
        let new = publisher.snapshot();
        assert_eq!(new.generation(), 1);
        let mut grown = LiveEngine::new(seed);
        grown.ingest(extra);
        assert_eq!(new.sai_list(&db, &config), grown.sai_list(&db, &config));
    }

    #[test]
    fn empty_ingest_publishes_nothing() {
        let publisher = SnapshotPublisher::new(LiveEngine::new(scenario::excavator_europe(7)));
        let before = publisher.snapshot();
        let receipt = ingest(&publisher, Vec::new());
        assert_eq!(receipt.appended, 0);
        assert_eq!(receipt.generation, 0);
        // Same Arc — nothing was cloned or swapped.
        assert!(Arc::ptr_eq(&before.engine, &publisher.snapshot().engine));
    }
}
