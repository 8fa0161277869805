//! Scheduled recurring sweeps: one timer thread driving read-only requests
//! at fixed intervals against the latest published snapshot.
//!
//! The paper's dynamic-TARA loop re-assesses risk *continuously*; with
//! subscriptions covering the push-on-ingest half, the scheduler covers the
//! clock-driven half — "re-run this `Sweep`/`Matrix` every N milliseconds
//! and deliver the result like a subscription event".  One
//! `tara-scheduler` thread owns the timetable: it sleeps until the next
//! job is due (condvar with timeout, woken early when a job is added,
//! removed or the service shuts down), executes due requests through the
//! same snapshot-isolated `respond` path every other request uses, and
//! sends each result as a [`ServiceEvent::ScheduledRun`] on the job's event
//! channel.  Removing a job is a fence: a run is delivered under the
//! timetable lock and only while its job is still scheduled, and the job
//! holds the only sender, so once the removal returns no later run arrives
//! and the channel is disconnected.  A job whose receiver is gone unschedules
//! itself; a job whose request panics answers with the structured
//! `internal-error` response and stays scheduled (the scheduler thread
//! survives, same contract as the worker pool).

use super::{ServiceEvent, ServiceRequest, ServiceResponse};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A recurring job on the timetable.
#[derive(Debug)]
struct ScheduledJob {
    id: u64,
    request: ServiceRequest,
    every: Duration,
    next_due: Instant,
    sender: mpsc::Sender<ServiceEvent>,
}

/// The shared timetable between requesters (who add/remove jobs) and the
/// scheduler thread (which runs them).
#[derive(Debug, Default)]
pub(super) struct SchedulerQueue {
    jobs: Mutex<Vec<ScheduledJob>>,
    wake: Condvar,
    shutdown: AtomicBool,
}

/// The longest the scheduler sleeps with an empty timetable (it still wakes
/// promptly via the condvar when a job is added).
const IDLE_WAIT: Duration = Duration::from_secs(1);

impl SchedulerQueue {
    /// Adds a recurring job; the first run is due one full interval from
    /// now.  Intervals are clamped to at least one millisecond so a
    /// zero-interval job cannot spin the scheduler thread.
    pub(super) fn add(
        &self,
        id: u64,
        request: ServiceRequest,
        every: Duration,
        sender: mpsc::Sender<ServiceEvent>,
    ) {
        let every = every.max(Duration::from_millis(1));
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        jobs.push(ScheduledJob {
            id,
            request,
            every,
            next_due: Instant::now() + every,
            sender,
        });
        drop(jobs);
        self.wake.notify_all();
    }

    /// Removes a job by id; returns whether it existed.  This is a fence:
    /// no run of the job is delivered after it returns (see
    /// [`deliver`](Self::deliver)), and dropping the job's sender
    /// disconnects its channel.
    pub(super) fn remove(&self, id: u64) -> bool {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        let before = jobs.len();
        jobs.retain(|job| job.id != id);
        let removed = jobs.len() != before;
        drop(jobs);
        if removed {
            self.wake.notify_all();
        }
        removed
    }

    /// Number of scheduled jobs.
    pub(super) fn len(&self) -> usize {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Signals the scheduler thread to exit and wakes it.
    pub(super) fn shut_down(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }

    pub(super) fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Collects the requests due now — bumping each job's `next_due` by
    /// whole intervals past `now`, so a stalled scheduler (one slow tick)
    /// coalesces missed runs instead of bursting to catch up — and returns
    /// how long to sleep until the next one.
    fn take_due(&self, now: Instant) -> (Vec<(u64, ServiceRequest)>, Duration) {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        let mut due = Vec::new();
        for job in jobs.iter_mut() {
            if job.next_due <= now {
                due.push((job.id, job.request.clone()));
                while job.next_due <= now {
                    job.next_due += job.every;
                }
            }
        }
        let wait = jobs
            .iter()
            .map(|job| job.next_due.saturating_duration_since(now))
            .min()
            .unwrap_or(IDLE_WAIT);
        (due, wait)
    }

    /// Sends one run's event to job `id`, under the timetable lock and only
    /// while the job is still scheduled — a run taken before
    /// [`remove`](Self::remove) is dropped, not delivered after it.  A send
    /// error (the receiver is gone) unschedules the job.
    fn deliver(&self, id: u64, event: ServiceEvent) {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(index) = jobs.iter().position(|job| job.id == id) {
            if jobs[index].sender.send(event).is_err() {
                jobs.remove(index);
            }
        }
    }

    /// Sleeps until `wait` elapses or the timetable changes.
    fn sleep(&self, wait: Duration) {
        let jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        let _unused = self
            .wake
            .wait_timeout(jobs, wait)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// The scheduler thread body: `respond` executes one request against the
/// latest snapshot (the same path every service request takes).  Runs until
/// [`SchedulerQueue::shut_down`].
pub(super) fn run(queue: &SchedulerQueue, respond: impl Fn(ServiceRequest) -> ServiceResponse) {
    loop {
        if queue.is_shut_down() {
            break;
        }
        let (due, wait) = queue.take_due(Instant::now());
        for (id, request) in due {
            // The scheduler thread survives a panicking request exactly like
            // a pool worker: catch, answer structured, carry on.
            let response =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| respond(request)))
                    .unwrap_or_else(|payload| ServiceResponse::Error {
                        error: crate::error::PspError::Internal {
                            detail: super::panic_detail(payload.as_ref()),
                        }
                        .into(),
                    });
            queue.deliver(id, ServiceEvent::ScheduledRun { job: id, response });
        }
        if queue.is_shut_down() {
            break;
        }
        queue.sleep(wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn due_jobs_fire_and_coalesce_missed_intervals() {
        let queue = SchedulerQueue::default();
        let (tx, _rx) = mpsc::channel();
        queue.add(1, ServiceRequest::Status, Duration::from_millis(10), tx);
        assert_eq!(queue.len(), 1);

        // Well past several intervals: exactly one due entry, next_due in
        // the future.
        let later = Instant::now() + Duration::from_millis(100);
        let (due, _) = queue.take_due(later);
        assert_eq!(due.len(), 1);
        let (due_again, wait) = queue.take_due(later);
        assert!(due_again.is_empty(), "missed runs coalesce");
        assert!(wait <= Duration::from_millis(10));
    }

    #[test]
    fn remove_unschedules_and_reports_unknown_ids() {
        let queue = SchedulerQueue::default();
        let (tx, _rx) = mpsc::channel();
        queue.add(7, ServiceRequest::Status, Duration::from_millis(5), tx);
        assert!(queue.remove(7));
        assert!(!queue.remove(7), "already gone");
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn a_run_taken_before_remove_is_never_delivered() {
        let queue = SchedulerQueue::default();
        let (tx, rx) = mpsc::channel();
        queue.add(3, ServiceRequest::Status, Duration::from_millis(1), tx);
        let (due, _) = queue.take_due(Instant::now() + Duration::from_millis(5));
        assert_eq!(due.len(), 1, "the run is in flight");
        assert!(queue.remove(3));
        let response = ServiceResponse::Unscheduled { id: 3 };
        queue.deliver(3, ServiceEvent::ScheduledRun { job: 3, response });
        // Nothing arrives, and the job's only sender went with it.
        assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
    }

    #[test]
    fn a_run_for_a_vanished_receiver_unschedules_the_job() {
        let queue = SchedulerQueue::default();
        let (tx, rx) = mpsc::channel();
        queue.add(4, ServiceRequest::Status, Duration::from_millis(1), tx);
        drop(rx);
        let response = ServiceResponse::Unscheduled { id: 4 };
        queue.deliver(4, ServiceEvent::ScheduledRun { job: 4, response });
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn the_run_loop_delivers_events_and_survives_panicking_requests() {
        let queue = Arc::new(SchedulerQueue::default());
        let (tx, rx) = mpsc::channel();
        queue.add(
            1,
            ServiceRequest::Status,
            Duration::from_millis(5),
            tx.clone(),
        );
        queue.add(2, ServiceRequest::ExportCache, Duration::from_millis(5), tx);
        let thread = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                run(&queue, |request| match request {
                    ServiceRequest::Status => panic!("injected scheduler failure"),
                    _ => ServiceResponse::Unscheduled { id: 0 },
                });
            })
        };
        // Both jobs keep firing: the panicking one answers internal-error,
        // the other its mapped response — the thread survives the panic.
        let mut internal = 0;
        let mut ok = 0;
        while internal == 0 || ok == 0 {
            match rx
                .recv_timeout(Duration::from_secs(5))
                .expect("events flow")
            {
                ServiceEvent::ScheduledRun { job: 1, response } => match response {
                    ServiceResponse::Error { error } => {
                        assert_eq!(error.kind, "internal-error");
                        assert!(error.detail.contains("injected scheduler failure"));
                        internal += 1;
                    }
                    other => panic!("unexpected response: {other:?}"),
                },
                ServiceEvent::ScheduledRun { job: 2, response } => {
                    assert_eq!(response, ServiceResponse::Unscheduled { id: 0 });
                    ok += 1;
                }
                other => panic!("unexpected event: {other:?}"),
            }
        }
        queue.shut_down();
        thread.join().expect("scheduler thread exits cleanly");
    }
}
