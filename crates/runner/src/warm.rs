//! The stack's one executor: a long-lived worker pool whose threads
//! persist across submissions.
//!
//! * workers are spawned once at construction and reused for every job
//!   until the pool is dropped — no per-job thread spawn;
//! * [`WarmPool::submit`] enqueues a [`Job`] and returns a [`Ticket`]
//!   that the submitter can [`wait`](Ticket::wait) on;
//! * panics are contained per job ([`JobStatus::Crashed`]);
//! * deadlines are cancellation-only: a job is never abandoned, so the
//!   caller enforces a deadline by tripping a [`Cancel`]
//!   token the job polls, typically from a shared
//!   [`DeadlineTimer`](crate::DeadlineTimer), and then waits for the (now
//!   fast-exiting) job as usual — a ticket has no wait-with-timeout, since
//!   giving up on a job that keeps running is exactly the abandonment this
//!   model rules out. [`run_jobs`](crate::run_jobs) is the batch helper
//!   that arms a deadline per job.
//!
//! Queueing is FIFO and [`WarmPool::queue_depth`] exposes the backlog, so
//! an admission-control layer can shed load before the queue grows
//! unboundedly.

use crate::cancel::Cancel;
use crate::pool::{Job, JobResult, JobStatus};
use crate::timing::measure;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A queued unit of work: the erased job body plus bookkeeping. The
/// closure carries its own result channel, so the queue is homogeneous
/// even though submitted jobs produce different output types. Running the
/// body returns the *publish* step separately, so the worker can mark the
/// job finished before its result becomes observable — a submitter that
/// sees the ticket resolve must also see `in_flight` decremented.
type QueuedJob = Box<dyn FnOnce() -> Publish + Send + 'static>;
type Publish = Box<dyn FnOnce() + Send + 'static>;

/// The state shared between submitters and workers.
struct Shared {
    state: Mutex<QueueState>,
    /// Signalled on every push and on shutdown.
    wake: Condvar,
    /// Mirror of `queue.len() + running` as a lock-free metric handle.
    in_flight_gauge: obs::Gauge,
    /// Mirror of `queue.len()` as a lock-free metric handle.
    queue_depth_gauge: obs::Gauge,
    /// Distribution of time jobs spent queued before a worker picked
    /// them up.
    queue_wait_hist: obs::Histogram,
}

struct QueueState {
    queue: VecDeque<QueuedJob>,
    /// The number of jobs currently executing on a worker (admitted but
    /// not yet finished); `queue.len() + running` is the pool's in-flight
    /// load.
    running: usize,
    shutdown: bool,
}

/// A persistent worker pool; see the [module docs](self).
///
/// Dropping the pool shuts it down: workers finish the jobs they are
/// running, drain nothing further, and are joined. Tickets of jobs still
/// queued at shutdown resolve as [`JobStatus::Crashed`] (their closures
/// are dropped unrun and the result channel disconnects).
pub struct WarmPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WarmPool {
    /// Spawns `workers` persistent worker threads (clamped to at least 1).
    pub fn new(workers: usize) -> WarmPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                running: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            in_flight_gauge: obs::Gauge::new(),
            queue_depth_gauge: obs::Gauge::new(),
            queue_wait_hist: obs::Histogram::new(),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("warm-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a warm worker thread")
            })
            .collect();
        WarmPool {
            shared,
            workers: handles,
        }
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs admitted but not yet finished: queued plus currently running.
    /// This is the load an admission controller compares against its bound
    /// before accepting more work.
    pub fn in_flight(&self) -> usize {
        let state = self.shared.state.lock().unwrap();
        state.queue.len() + state.running
    }

    /// Jobs waiting in the queue (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Lock-free gauge mirroring [`WarmPool::in_flight`], suitable for
    /// registration in an [`obs::Registry`]. The gauge and the locked
    /// count move together (both updated while holding the queue lock),
    /// so a quiescent pool always reads 0 on both.
    pub fn in_flight_gauge(&self) -> obs::Gauge {
        self.shared.in_flight_gauge.clone()
    }

    /// Lock-free gauge mirroring [`WarmPool::queue_depth`].
    pub fn queue_depth_gauge(&self) -> obs::Gauge {
        self.shared.queue_depth_gauge.clone()
    }

    /// Histogram of queue-wait times (submission → worker pickup) across
    /// every job this pool has run.
    pub fn queue_wait_hist(&self) -> obs::Histogram {
        self.shared.queue_wait_hist.clone()
    }

    /// Enqueues a job and returns the ticket its result arrives on.
    ///
    /// The job runs on the next free worker, FIFO. Its wall-clock
    /// `elapsed` measures the job body only — queueing time is visible to
    /// the submitter as the gap between `submit` and the ticket
    /// resolving, which is exactly the latency a serving layer reports.
    pub fn submit<T: Send + 'static>(&self, job: Job<T>) -> Ticket<T> {
        let (id, run) = job.into_parts();
        let (tx, rx) = channel();
        let enqueued = Instant::now();
        let queue_wait_hist = self.shared.queue_wait_hist.clone();
        let body: QueuedJob = Box::new(move || {
            // The body runs the moment a worker picks it up, so the gap
            // since submission is exactly the queue wait.
            let queue_wait = enqueued.elapsed();
            queue_wait_hist.observe(queue_wait);
            let (outcome, elapsed) =
                measure(|| catch_unwind(AssertUnwindSafe(|| run(&Cancel::never()))));
            Box::new(move || {
                // The submitter may have dropped the ticket (e.g. a request
                // whose deadline expired); the result is simply discarded.
                let _ = tx.send((outcome.ok(), elapsed, queue_wait));
            })
        });
        {
            let mut state = self.shared.state.lock().unwrap();
            if state.shutdown {
                // The pool is shutting down: drop the body unrun; the
                // receiver disconnects and the ticket resolves Crashed.
                drop(body);
            } else {
                state.queue.push_back(body);
                self.shared.in_flight_gauge.inc();
                self.shared.queue_depth_gauge.inc();
            }
        }
        self.shared.wake.notify_one();
        Ticket {
            id,
            rx,
            submitted: Instant::now(),
        }
    }
}

impl Drop for WarmPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
            // Queued-but-unstarted jobs are dropped; their tickets resolve
            // as Crashed via channel disconnect. The gauges must not keep
            // counting them.
            let dropped = state.queue.len() as i64;
            state.queue.clear();
            self.shared.in_flight_gauge.add(-dropped);
            self.shared.queue_depth_gauge.add(-dropped);
        }
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let body = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(body) = state.queue.pop_front() {
                    state.running += 1;
                    shared.queue_depth_gauge.dec();
                    break body;
                }
                if state.shutdown {
                    return;
                }
                state = shared.wake.wait(state).unwrap();
            }
        };
        let publish = body();
        // Decrement before publishing: once a waiter observes the result,
        // the pool must already account the job as finished.
        {
            let mut state = shared.state.lock().unwrap();
            state.running -= 1;
            shared.in_flight_gauge.dec();
        }
        publish();
    }
}

/// The submitter's handle to one queued job's eventual result.
pub struct Ticket<T> {
    id: String,
    rx: Receiver<(Option<T>, Duration, Duration)>,
    submitted: Instant,
}

impl<T> Ticket<T> {
    /// Blocks until the job finishes and returns its result.
    ///
    /// `status` is [`JobStatus::Ok`] or [`JobStatus::Crashed`] (panic, or
    /// pool shutdown before the job ran) — never `TimedOut`: deadlines
    /// belong to the caller's token, see the [module docs](self).
    pub fn wait(self) -> JobResult<T> {
        let (status, output, elapsed, queue_wait) = match self.rx.recv() {
            Ok((Some(output), elapsed, wait)) => (JobStatus::Ok, Some(output), elapsed, Some(wait)),
            Ok((None, elapsed, wait)) => (JobStatus::Crashed, None, elapsed, Some(wait)),
            Err(_) => (JobStatus::Crashed, None, self.submitted.elapsed(), None),
        };
        JobResult {
            id: self.id,
            status,
            output,
            elapsed,
            queue_wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_run_and_results_come_back() {
        let pool = WarmPool::new(2);
        let tickets: Vec<Ticket<usize>> = (0..16)
            .map(|i| pool.submit(Job::new(format!("job-{i}"), move || i * i)))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let result = ticket.wait();
            assert_eq!(result.status, JobStatus::Ok);
            assert_eq!(result.output, Some(i * i));
            assert_eq!(result.id, format!("job-{i}"));
        }
    }

    #[test]
    fn workers_persist_across_submissions() {
        let pool = WarmPool::new(1);
        for round in 0..8 {
            let result = pool.submit(Job::new("round", move || round)).wait();
            assert_eq!(result.output, Some(round));
        }
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn panics_are_contained() {
        let pool = WarmPool::new(1);
        let boom: Ticket<()> = pool.submit(Job::new("boom", || panic!("contained")));
        assert_eq!(boom.wait().status, JobStatus::Crashed);
        // the worker survives and keeps serving
        let after = pool.submit(Job::new("after", || 7)).wait();
        assert_eq!(after.output, Some(7));
    }

    #[test]
    fn in_flight_counts_queued_and_running() {
        let pool = WarmPool::new(1);
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().unwrap();
        let blocker = {
            let gate = Arc::clone(&gate);
            pool.submit(Job::new("blocker", move || {
                let _released = gate.lock().unwrap();
            }))
        };
        // Wait until the worker has actually picked the blocker up.
        while pool.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let queued = pool.submit(Job::new("queued", || ()));
        assert!(pool.in_flight() >= 1);
        assert_eq!(pool.queue_depth(), 1);
        drop(held);
        assert_eq!(blocker.wait().status, JobStatus::Ok);
        assert_eq!(queued.wait().status, JobStatus::Ok);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn gauges_track_the_locked_counts() {
        let pool = WarmPool::new(1);
        let in_flight = pool.in_flight_gauge();
        let queue_depth = pool.queue_depth_gauge();
        assert_eq!(in_flight.get(), 0);
        assert_eq!(queue_depth.get(), 0);

        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().unwrap();
        let blocker = {
            let gate = Arc::clone(&gate);
            pool.submit(Job::new("blocker", move || {
                let _released = gate.lock().unwrap();
            }))
        };
        while pool.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let queued = pool.submit(Job::new("queued", || ()));
        // One job running, one queued: the gauges mirror the locked view.
        assert_eq!(in_flight.get(), 2);
        assert_eq!(queue_depth.get(), 1);

        drop(held);
        assert_eq!(blocker.wait().status, JobStatus::Ok);
        assert_eq!(queued.wait().status, JobStatus::Ok);
        // A resolved ticket implies the job was already accounted
        // finished (decrement-before-publish), so both gauges read 0.
        assert_eq!(in_flight.get(), 0);
        assert_eq!(queue_depth.get(), 0);
        assert_eq!(pool.queue_wait_hist().count(), 2);
    }

    #[test]
    fn queue_wait_is_reported_on_results() {
        let pool = WarmPool::new(1);
        let result = pool.submit(Job::new("quick", || 1)).wait();
        let wait = result
            .queue_wait
            .expect("warm-pool results carry queue_wait");
        assert!(wait < Duration::from_secs(5));
        // The queued job behind a blocker waits at least as long as the
        // blocker holds the worker.
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().unwrap();
        let blocker = {
            let gate = Arc::clone(&gate);
            pool.submit(Job::new("blocker", move || {
                let _released = gate.lock().unwrap();
            }))
        };
        while pool.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let queued = pool.submit(Job::new("queued", || 2));
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        let _ = blocker.wait();
        let waited = queued.wait().queue_wait.expect("queued job has queue_wait");
        assert!(
            waited >= Duration::from_millis(10),
            "queued job should have waited, got {waited:?}"
        );
    }
}
