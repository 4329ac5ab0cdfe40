//! Observability substrate for the SyGuS-unrealizability stack.
//!
//! Std-only, dependency-free, and threaded through every layer:
//!
//! - [`LatencyHist`] — the one log₂ percentile implementation shared by
//!   the fuzz campaigns, the serving load harness, and the metrics
//!   registry.
//! - [`Counter`] / [`Gauge`] / [`Histogram`] / [`Registry`] — atomic
//!   instruments with deterministic, canonically-sorted Prometheus text
//!   exposition ([`Registry::render`]). There is no process-wide
//!   registry: the server daemon builds one per instance, so concurrent
//!   tests stay isolated.
//! - [`Trace`] / [`Span`] — per-request span trees with monotonic
//!   relative offsets and a stable [`trace::phase`] catalogue, so span
//!   *structure* is snapshot-testable while wall-clock values float.
//!
//! The canonical metric-name catalogue lives in [`names`]; the span-phase
//! catalogue in [`trace::phase`]. `docs/OBSERVABILITY.md` documents both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod metrics;
pub mod trace;

pub use hist::{bucket_of_micros, LatencyHist, BUCKETS};
pub use metrics::{names, Counter, Gauge, Histogram, Registry};
pub use trace::{fresh_trace_id, Span, Trace};
