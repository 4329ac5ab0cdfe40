//! Jobs, their results, and [`run_jobs`]: the batch helper over a
//! [`WarmPool`].
//!
//! A batch runs on a fresh [`WarmPool`] of `config.jobs` workers. Each job
//! gets its own [`Cancel`] token; when a worker picks the job up, the
//! batch's [`DeadlineTimer`] arms the token to trip after
//! [`PoolConfig::timeout`]. A job that polls its token winds down at the
//! deadline and is reported as [`JobStatus::TimedOut`]; a job that panics
//! is reported as [`JobStatus::Crashed`]; its siblings keep going either
//! way. No job is ever abandoned: `run_jobs` returns only after every job
//! body has returned.

use crate::cancel::Cancel;
use crate::deadline::DeadlineTimer;
use crate::warm::WarmPool;
use std::sync::Arc;
use std::time::Duration;

/// How [`run_jobs`] executes a batch of jobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolConfig {
    /// Number of worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Per-job deadline, counted from the moment a worker picks the job
    /// up; `None` means unlimited. Enforced by tripping the job's
    /// [`Cancel`] token, so only jobs that poll it stop early.
    pub timeout: Option<Duration>,
}

impl PoolConfig {
    /// One worker, no timeout — equivalent to the old serial harness loop.
    pub fn serial() -> Self {
        PoolConfig {
            jobs: 1,
            timeout: None,
        }
    }

    /// Overrides the per-job timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

/// The erased body of a job: it receives the token its executor trips at
/// the job's deadline.
type Body<T> = Box<dyn FnOnce(&Cancel) -> T + Send + 'static>;

/// A unit of work: an identifier plus a closure producing a `T`.
pub struct Job<T> {
    /// Identifier echoed into the [`JobResult`] (e.g. `benchmark::tool`).
    pub id: String,
    run: Body<T>,
}

impl<T> Job<T> {
    /// Wraps a closure that ignores deadlines as a job.
    pub fn new(id: impl Into<String>, run: impl FnOnce() -> T + Send + 'static) -> Self {
        Job::cancellable(id, move |_| run())
    }

    /// Wraps a closure that polls the job's [`Cancel`] token. [`run_jobs`]
    /// trips the token at the job's deadline; a bare [`WarmPool`] never
    /// does (its callers cancel through tokens of their own).
    pub fn cancellable(
        id: impl Into<String>,
        run: impl FnOnce(&Cancel) -> T + Send + 'static,
    ) -> Self {
        Job {
            id: id.into(),
            run: Box::new(run),
        }
    }

    /// Splits the job into its identifier and body.
    pub(crate) fn into_parts(self) -> (String, Body<T>) {
        (self.id, self.run)
    }
}

/// How a job's execution ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// The job ran to completion.
    Ok,
    /// The job returned after its deadline had tripped its token.
    TimedOut,
    /// The job panicked (or never ran because its pool shut down); the
    /// panic was contained to the job.
    Crashed,
}

impl JobStatus {
    /// Stable serialization name used by the JSON report.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::TimedOut => "timed_out",
            JobStatus::Crashed => "crashed",
        }
    }

    /// The more severe of two statuses (`Crashed` > `TimedOut` > `Ok`):
    /// the roll-up used when one entry reports on several jobs, e.g. a
    /// race's two engines or a family aggregate.
    pub fn worst(self, other: JobStatus) -> JobStatus {
        match (self, other) {
            (JobStatus::Crashed, _) | (_, JobStatus::Crashed) => JobStatus::Crashed,
            (JobStatus::TimedOut, _) | (_, JobStatus::TimedOut) => JobStatus::TimedOut,
            (JobStatus::Ok, JobStatus::Ok) => JobStatus::Ok,
        }
    }

    /// Inverse of [`JobStatus::as_str`].
    pub fn parse(s: &str) -> Option<JobStatus> {
        match s {
            "ok" => Some(JobStatus::Ok),
            "timed_out" => Some(JobStatus::TimedOut),
            "crashed" => Some(JobStatus::Crashed),
            _ => None,
        }
    }
}

/// The outcome of one job.
#[derive(Clone, Debug)]
pub struct JobResult<T> {
    /// The job's identifier.
    pub id: String,
    /// How execution ended.
    pub status: JobStatus,
    /// The job's value, present exactly when `status` is [`JobStatus::Ok`].
    pub output: Option<T>,
    /// Wall-clock time of the job body (a timed-out job's body runs past
    /// its deadline by its cancellation latency).
    pub elapsed: Duration,
    /// Time the job spent queued before a worker picked it up; `None` when
    /// it never ran.
    pub queue_wait: Option<Duration>,
}

/// Runs every job on a fresh [`WarmPool`] and returns the results in
/// submission order.
///
/// Results are position-stable: `results[i]` corresponds to `jobs[i]`
/// regardless of worker count, which is what makes the JSON report
/// deterministic across `--jobs 1` and `--jobs 8`. A job is reported
/// [`JobStatus::TimedOut`] exactly when it returns with its token tripped
/// by the deadline; its output is then dropped.
pub fn run_jobs<T: Send + 'static>(jobs: Vec<Job<T>>, config: &PoolConfig) -> Vec<JobResult<T>> {
    let pool = WarmPool::new(config.jobs.max(1).min(jobs.len().max(1)));
    let deadline = config
        .timeout
        .map(|timeout| (Arc::new(DeadlineTimer::new()), timeout));
    let tickets: Vec<_> = jobs
        .into_iter()
        .map(|job| {
            let (id, run) = job.into_parts();
            let deadline = deadline.clone();
            pool.submit(Job::new(id, move || {
                let cancel = Cancel::new();
                let _guard = deadline
                    .as_ref()
                    .map(|(timer, timeout)| timer.register(&cancel, *timeout));
                let output = run(&cancel);
                (output, cancel.is_cancelled())
            }))
        })
        .collect();
    tickets
        .into_iter()
        .map(|ticket| {
            let result = ticket.wait();
            let (status, output) = match result.output {
                Some((output, false)) => (JobStatus::Ok, Some(output)),
                Some((_, true)) => (JobStatus::TimedOut, None),
                None => (result.status, None),
            };
            JobResult {
                id: result.id,
                status,
                output,
                elapsed: result.elapsed,
                queue_wait: result.queue_wait,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs: Vec<Job<usize>> = (0..32)
            .map(|i| Job::new(format!("job-{i}"), move || i * i))
            .collect();
        let results = run_jobs(
            jobs,
            &PoolConfig {
                jobs: 8,
                timeout: None,
            },
        );
        assert_eq!(results.len(), 32);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.id, format!("job-{i}"));
            assert_eq!(r.status, JobStatus::Ok);
            assert_eq!(r.output, Some(i * i));
        }
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let results = run_jobs(
            vec![Job::new("only", || 7)],
            &PoolConfig {
                jobs: 0,
                timeout: None,
            },
        );
        assert_eq!(results[0].output, Some(7));
    }

    #[test]
    fn empty_job_list_is_fine() {
        let results: Vec<JobResult<()>> = run_jobs(vec![], &PoolConfig::serial());
        assert!(results.is_empty());
    }

    #[test]
    fn status_names_round_trip() {
        for status in [JobStatus::Ok, JobStatus::TimedOut, JobStatus::Crashed] {
            assert_eq!(JobStatus::parse(status.as_str()), Some(status));
        }
        assert_eq!(JobStatus::parse("nope"), None);
    }
}
