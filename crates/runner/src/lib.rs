//! Execution substrate of the stack: the experiment harness in
//! `crates/bench`, the CLI races, and the serving daemon.
//!
//! There is one executor and one timeout model:
//!
//! * **one executor** — the [`WarmPool`], a fixed set of worker threads
//!   fed from a FIFO queue (std-only: `std::thread`, a mutex and a
//!   condvar). [`run_jobs`] is the batch helper over it: results in
//!   submission order, panics contained per job;
//! * **cancellation-only deadlines** — a [`DeadlineTimer`] trips a job's
//!   [`Cancel`] token when its budget expires and the job winds down at
//!   its next poll. No thread is ever abandoned, so a timeout never
//!   leaves CPU burning behind the measurements that follow it;
//! * **comparability** — results land in a deterministic, schema-versioned
//!   [`report::Report`] (JSON, hand-rolled in [`json`] since the build is
//!   offline) that [`report::compare`] can diff against a committed
//!   baseline, turning perf PRs into measurable deltas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod deadline;
pub mod json;
pub mod pool;
pub mod report;
pub mod timing;
pub mod warm;

pub use cancel::Cancel;
pub use deadline::{DeadlineGuard, DeadlineTimer};
pub use json::Json;
pub use pool::{run_jobs, Job, JobResult, JobStatus, PoolConfig};
pub use report::{
    compare, compare_throughput, Aggregates, CompareConfig, Entry, Regression, RegressionKind,
    Report, Throughput, MIN_SCHEMA_VERSION, SCHEMA_VERSION,
};
pub use timing::measure;
pub use warm::{Ticket, WarmPool};
