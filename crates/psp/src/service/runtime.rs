//! The hand-rolled thread-pool + channel runtime the service runs on.
//!
//! Offline constraint: no async executor is available, and the honest
//! offline alternative (per the roadmap) is plain threads and channels.  A
//! [`WorkerPool`] owns N worker threads draining one shared job queue; a
//! submitted request runs as one job and answers through a one-shot channel
//! ([`Ticket`]).  [`WorkerPool::stop`] (also run on drop, followed by a join)
//! makes shutdown deterministic *and bounded*: in-flight jobs finish, but
//! jobs still queued are discarded — dropping a job drops its ticket sender,
//! so every pending [`Ticket`] resolves to a structured `service-stopped`
//! error instead of hanging (or instead of shutdown blocking arbitrarily
//! long behind a saturated queue).
//!
//! Two hardening guarantees live here:
//!
//! * **Panic resilience.**  Every job runs under `catch_unwind`, so a
//!   panicking request can never kill a `tara-worker-*` thread: the worker
//!   records the panic in the pool's [`PoolStats`] and keeps draining the
//!   queue.  (The service layer additionally converts the panic into a
//!   structured `internal-error` response before the unwind even reaches the
//!   pool — the pool-level catch is the backstop that keeps the thread alive
//!   no matter what.)  This requires `panic = "unwind"`; the workspace
//!   profile pins it and a test below asserts it, because under
//!   `panic = "abort"` the first bad request would take the whole daemon
//!   down.
//! * **Deadlines.**  A [`CancelToken`] travels with a request submitted via
//!   a deadline; sweeps and matrices check it inside the engine between
//!   profile jobs and plan rows and bail out with an `Expired` response
//!   instead of burning a worker on an answer nobody is waiting for.  [`Ticket::wait_timeout`] is the client-side half: bound
//!   the wait without losing the ticket.

use super::ServiceResponse;
use crate::error::PspError;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One unit of work for the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Live queue-depth and panic counters for a [`WorkerPool`], shared with the
/// workers and readable at any time (the service's `Status` response reports
/// them).
#[derive(Debug, Default)]
pub(super) struct PoolMetrics {
    queued: AtomicUsize,
    in_flight: AtomicUsize,
    panicked: AtomicUsize,
}

/// A point-in-time snapshot of a pool's internal metrics.
#[derive(Debug, Clone, Copy)]
pub struct PoolStats {
    /// Jobs accepted but not yet picked up by a worker.
    pub queued: usize,
    /// Jobs currently executing on a worker.
    pub in_flight: usize,
    /// Jobs that panicked (and were caught) since the pool started.
    pub panicked: usize,
}

impl PoolMetrics {
    /// Counts a panic the service layer caught itself (and answered with a
    /// structured response) — the unwind never reaches the pool's backstop
    /// catch, so the pool would otherwise under-report.
    pub(super) fn record_panic(&self) {
        self.panicked.fetch_add(1, Ordering::SeqCst);
    }

    pub(super) fn stats(&self) -> PoolStats {
        PoolStats {
            queued: self.queued.load(Ordering::SeqCst),
            in_flight: self.in_flight.load(Ordering::SeqCst),
            panicked: self.panicked.load(Ordering::SeqCst),
        }
    }
}

/// A fixed-size worker pool over one shared job queue.
#[derive(Debug)]
pub struct WorkerPool {
    /// `None` once shutdown has begun; dropping the sender closes the queue.
    sender: Mutex<Option<mpsc::Sender<Job>>>,
    workers: Vec<JoinHandle<()>>,
    metrics: Arc<PoolMetrics>,
    /// Once set, workers discard queued jobs instead of running them —
    /// discarding drops each job's ticket sender, which answers the waiting
    /// [`Ticket`] with `service-stopped`.
    stopping: Arc<AtomicBool>,
}

impl WorkerPool {
    /// Spawns `threads` workers (clamped to at least one) draining a shared
    /// queue, around caller-shared metrics (the service keeps a handle so
    /// `Status` can report depths without reaching into the pool).
    pub(super) fn with_metrics(threads: usize, metrics: Arc<PoolMetrics>) -> Self {
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let stopping = Arc::new(AtomicBool::new(false));
        let workers = (0..threads.max(1))
            .map(|index| {
                let receiver = Arc::clone(&receiver);
                let metrics = Arc::clone(&metrics);
                let stopping = Arc::clone(&stopping);
                std::thread::Builder::new()
                    .name(format!("tara-worker-{index}"))
                    .spawn(move || loop {
                        // Take the next job while holding the queue lock, then
                        // release the lock before running it so other workers
                        // keep draining.  A poisoned lock means a sibling
                        // worker panicked between recv and unlock — the
                        // receiver itself is still sound, so recover it.
                        let job = {
                            let queue = super::lock(&receiver);
                            queue.recv()
                        };
                        match job {
                            Ok(job) => {
                                metrics.queued.fetch_sub(1, Ordering::SeqCst);
                                // Shutdown ordering: once `stop` has been
                                // called, queued work is *discarded*, not
                                // run — dropping the job drops its ticket
                                // sender, so the submitter's `Ticket::wait`
                                // resolves to `service-stopped` immediately
                                // instead of hanging behind a queue nobody
                                // will ever fully drain.
                                if stopping.load(Ordering::SeqCst) {
                                    drop(job);
                                    continue;
                                }
                                metrics.in_flight.fetch_add(1, Ordering::SeqCst);
                                // The worker survives a panicking job: catch
                                // the unwind, count it, keep draining.  The
                                // pool never silently shrinks.
                                let outcome =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                                metrics.in_flight.fetch_sub(1, Ordering::SeqCst);
                                if outcome.is_err() {
                                    metrics.panicked.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                            // Sender dropped: queue drained, shut down.
                            Err(mpsc::RecvError) => break,
                        }
                    })
                    .expect("spawning a service worker thread failed")
            })
            .collect();
        Self {
            sender: Mutex::new(Some(sender)),
            workers,
            metrics,
            stopping,
        }
    }

    /// Begins shutdown: no new jobs are accepted, in-flight jobs finish, and
    /// jobs still queued are discarded so their [`Ticket`]s resolve to
    /// `service-stopped` rather than waiting on work that will never start.
    /// Idempotent; `Drop` calls it before joining the workers.
    pub fn stop(&self) {
        // Order matters: flip the flag *before* closing the queue so a worker
        // can never observe "queue closed" without also observing "stopping".
        self.stopping.store(true, Ordering::SeqCst);
        let mut sender = super::lock(&self.sender);
        sender.take();
    }

    /// Queue-depth and panic counters, observed now.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        self.metrics.stats()
    }

    /// Enqueues a job for the next free worker.
    ///
    /// The sender is cloned out of the lock's critical section so concurrent
    /// submitters serialize only on the `Option` check, not on the whole
    /// channel send — an `mpsc::Sender` clone is itself a valid producer.
    ///
    /// # Errors
    ///
    /// Returns [`PspError::ServiceStopped`] when the pool has shut down.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), PspError> {
        let sender = {
            let guard = super::lock(&self.sender);
            guard.clone()
        };
        match sender {
            Some(sender) => {
                self.metrics.queued.fetch_add(1, Ordering::SeqCst);
                sender.send(Box::new(job)).map_err(|_| {
                    self.metrics.queued.fetch_sub(1, Ordering::SeqCst);
                    PspError::ServiceStopped
                })
            }
            None => Err(PspError::ServiceStopped),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Begin shutdown (in-flight jobs finish, queued jobs are discarded
        // with their tickets answered), then join: each worker exits on
        // RecvError once the closed queue is empty.
        self.stop();
        for worker in self.workers.drain(..) {
            // A worker that panicked already reported; don't double-panic in
            // the destructor.
            let _ = worker.join();
        }
    }
}

/// A request's deadline.  Sweeps and matrices hand it to the engine as their
/// stop predicate, checked inside the engine between profile jobs and plan
/// rows; a token without a deadline (the plain request path) never stops the
/// execution.
#[derive(Debug)]
pub struct CancelToken {
    deadline: Option<Instant>,
    started: Instant,
}

impl CancelToken {
    fn build(deadline: Option<Instant>) -> Self {
        Self {
            deadline,
            started: Instant::now(),
        }
    }

    /// A token that expires `after` the current instant.
    #[must_use]
    pub fn with_deadline(after: Duration) -> Self {
        Self::build(Instant::now().checked_add(after))
    }

    /// Whether the token's deadline has passed.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// Milliseconds elapsed since the token was created — what an
    /// `Expired { waited_ms }` response reports.
    #[must_use]
    pub fn waited_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// The default token has no deadline: it never expires.
impl Default for CancelToken {
    fn default() -> Self {
        Self::build(None)
    }
}

/// The pending response of one submitted request — a one-shot channel the
/// pool's worker answers on.
#[derive(Debug)]
pub struct Ticket {
    receiver: mpsc::Receiver<ServiceResponse>,
}

impl Ticket {
    /// Pairs a ticket with the sender its job answers on.
    pub(super) fn new() -> (mpsc::Sender<ServiceResponse>, Self) {
        let (sender, receiver) = mpsc::channel();
        (sender, Self { receiver })
    }

    /// Blocks until the response arrives.  If the job was dropped unanswered
    /// (pool shut down before it ran), this resolves to a
    /// [`PspError::ServiceStopped`] error response instead of hanging.
    #[must_use]
    pub fn wait(self) -> ServiceResponse {
        self.receiver
            .recv()
            .unwrap_or_else(|_| ServiceResponse::Error {
                error: PspError::ServiceStopped.into(),
            })
    }

    /// Waits at most `timeout` for the response.  On timeout the ticket
    /// comes back unconsumed, so the caller can keep waiting (or drop it to
    /// abandon the answer — the worker's send to an abandoned ticket is a
    /// no-op).
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when the response did not arrive in time.
    pub fn wait_timeout(self, timeout: Duration) -> Result<ServiceResponse, Self> {
        match self.receiver.recv_timeout(timeout) {
            Ok(response) => Ok(response),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(self),
            Err(mpsc::RecvTimeoutError::Disconnected) => Ok(ServiceResponse::Error {
                error: PspError::ServiceStopped.into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool(threads: usize) -> WorkerPool {
        WorkerPool::with_metrics(threads, Arc::default())
    }

    #[test]
    fn jobs_run_and_drop_joins_cleanly() {
        let counter = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = mpsc::channel();
        let pool = pool(3);
        assert_eq!(pool.workers.len(), 3);
        for _ in 0..20 {
            let counter = Arc::clone(&counter);
            let done_tx = done_tx.clone();
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                let _ = done_tx.send(());
            })
            .expect("pool accepts jobs");
        }
        // Wait for every job to complete *before* dropping: drop discards
        // still-queued work by design, and this test is about the happy path.
        for _ in 0..20 {
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("job completes");
        }
        drop(pool); // joins workers
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    /// Satellite regression: stopping a pool whose queue is saturated must
    /// answer every still-queued `Ticket` with `service-stopped` — before the
    /// fix, `stop`/drop ran the queued jobs, so shutdown blocked arbitrarily
    /// long behind whatever was stuck in front of them (and a receiver whose
    /// job never got to run hung forever).
    #[test]
    fn stop_with_saturated_queue_answers_every_pending_ticket() {
        let pool = pool(1);
        // Occupy the only worker so everything behind it stays queued.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (running_tx, running_rx) = mpsc::channel::<()>();
        pool.execute(move || {
            running_tx.send(()).expect("test alive");
            gate_rx.recv().expect("gate opens");
        })
        .expect("pool accepts jobs");
        running_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("blocker job starts");
        // Saturate the queue with ticket-answering jobs that will never run.
        let tickets: Vec<Ticket> = (0..16)
            .map(|_| {
                let (sender, ticket) = Ticket::new();
                pool.execute(move || {
                    let _ = sender.send(ServiceResponse::Error {
                        error: PspError::Internal {
                            detail: "should have been discarded".into(),
                        }
                        .into(),
                    });
                })
                .expect("pool accepts jobs");
                ticket
            })
            .collect();
        pool.stop();
        // New work is refused immediately.
        assert!(matches!(pool.execute(|| {}), Err(PspError::ServiceStopped)));
        // The blocker is still holding the worker, yet every queued ticket
        // resolves promptly (bounded wait) to `service-stopped`: the worker
        // discards queued jobs as it reaches them, dropping their senders.
        gate_tx.send(()).expect("worker alive");
        for ticket in tickets {
            match ticket
                .wait_timeout(Duration::from_secs(10))
                .expect("ticket answered, not hung")
            {
                ServiceResponse::Error { error } => assert_eq!(error.kind, "service-stopped"),
                other => panic!("queued job ran after stop: {other:?}"),
            }
        }
        drop(pool);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = pool(0);
        assert_eq!(pool.workers.len(), 1);
        let (sender, receiver) = mpsc::channel();
        pool.execute(move || sender.send(7_usize).expect("receiver alive"))
            .expect("pool accepts jobs");
        assert_eq!(receiver.recv().unwrap(), 7);
    }

    #[test]
    fn unanswered_tickets_resolve_to_service_stopped() {
        let (sender, ticket) = Ticket::new();
        drop(sender);
        match ticket.wait() {
            ServiceResponse::Error { error } => assert_eq!(error.kind, "service-stopped"),
            other => panic!("expected an error response, got {other:?}"),
        }
    }

    /// The regression the tentpole fixes: a panicking job used to kill its
    /// worker thread for good; after one panic per worker the pool was
    /// empty and every later job hung.  Now the worker catches the unwind
    /// and keeps draining.
    #[test]
    fn workers_survive_more_panics_than_there_are_threads() {
        let pool = pool(2);
        for _ in 0..6 {
            pool.execute(|| panic!("injected job failure"))
                .expect("pool accepts jobs");
        }
        // Every worker would be dead by now under the old runtime; these
        // jobs would never run and recv() below would hang forever.
        let (sender, receiver) = mpsc::channel();
        for n in 0..4_usize {
            let sender = sender.clone();
            pool.execute(move || sender.send(n).expect("receiver alive"))
                .expect("pool accepts jobs");
        }
        drop(sender);
        let mut answered: Vec<usize> = receiver.iter().collect();
        answered.sort_unstable();
        assert_eq!(answered, vec![0, 1, 2, 3]);
        // A worker records its panic, and leaves `in_flight`, *after* the
        // job returns, so both counters can trail the completion channel
        // briefly; wait for them, bounded.
        let deadline = Instant::now() + Duration::from_secs(5);
        let settled = |stats: PoolStats| stats.panicked == 6 && stats.in_flight == 0;
        while !settled(pool.stats()) && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let stats = pool.stats();
        assert_eq!(stats.panicked, 6);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.queued, 0);
    }

    /// `catch_unwind` only works when unwinding exists; the workspace pins
    /// `panic = "unwind"` and this guard fails loudly if a profile change
    /// ever compiles the recovery path away.
    #[test]
    #[allow(clippy::assertions_on_constants)] // cfg!() is the point: a profile guard
    fn panic_strategy_is_unwind_so_workers_can_recover() {
        assert!(
            cfg!(panic = "unwind"),
            "psp::service::runtime requires panic = \"unwind\"; \
             a panic = \"abort\" profile would turn every caught request \
             panic into whole-process death"
        );
    }

    /// Satellite: `execute` must not hold the sender lock across the send —
    /// many submitters racing a slow queue should all get through promptly.
    #[test]
    fn concurrent_submitters_all_enqueue() {
        let pool = Arc::new(pool(2));
        let counter = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                let counter = Arc::clone(&counter);
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let counter = Arc::clone(&counter);
                        let done_tx = done_tx.clone();
                        pool.execute(move || {
                            counter.fetch_add(1, Ordering::SeqCst);
                            let _ = done_tx.send(());
                        })
                        .expect("pool accepts jobs");
                    }
                });
            }
        });
        // Every submission made it into the queue; wait for completion before
        // dropping (drop discards queued work by design).
        for _ in 0..8 * 50 {
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("job completes");
        }
        drop(Arc::try_unwrap(pool).expect("all submitters done")); // join workers
        assert_eq!(counter.load(Ordering::SeqCst), 8 * 50);
    }

    #[test]
    fn wait_timeout_returns_the_ticket_then_the_answer() {
        let pool = pool(1);
        let (sender, ticket) = Ticket::new();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.execute(move || {
            gate_rx.recv().expect("gate opens");
            sender
                .send(ServiceResponse::Error {
                    error: PspError::ServiceStopped.into(),
                })
                .expect("ticket alive");
        })
        .expect("pool accepts jobs");
        // The job is gated: the first bounded wait must time out and hand
        // the ticket back...
        let ticket = match ticket.wait_timeout(Duration::from_millis(20)) {
            Err(ticket) => ticket,
            Ok(other) => panic!("expected a timeout, got {other:?}"),
        };
        // ...then the answer arrives once the gate opens.
        gate_tx.send(()).expect("worker alive");
        match ticket.wait() {
            ServiceResponse::Error { error } => assert_eq!(error.kind, "service-stopped"),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn cancel_tokens_expire_by_deadline() {
        let token = CancelToken::with_deadline(Duration::from_millis(5));
        assert!(!token.is_cancelled());
        std::thread::sleep(Duration::from_millis(10));
        assert!(token.is_cancelled(), "deadline passed");
        assert!(token.waited_ms() >= 5);

        assert!(
            !CancelToken::default().is_cancelled(),
            "no deadline, no expiry"
        );
    }
}
