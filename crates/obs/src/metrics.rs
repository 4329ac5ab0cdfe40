//! A process-wide metrics registry: atomic counters, gauges, and log₂
//! latency histograms with deterministic Prometheus text exposition.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-backed
//! clones, safe to stamp into hot paths; the [`Registry`] is just a sorted
//! name → handle map consulted at render time. Components that own their
//! instrument (the warm pool's in-flight gauge, the deadline timer's trip
//! counter) create the handle themselves and register it under a canonical
//! name; everything else asks the registry to get-or-create.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::{LatencyHist, BUCKETS};

/// A monotonically increasing counter.
///
/// `set` exists for mirror counters sourced from an external snapshot
/// (e.g. cache statistics owned by another struct) — the mirrored value
/// is still monotone, the registry just isn't its system of record.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value (for snapshot-mirrored counters).
    pub fn set(&self, n: u64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous up/down gauge.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value.
    pub fn set(&self, n: i64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A concurrent log₂ latency histogram (the atomic counterpart of
/// [`LatencyHist`]): lock-free `observe_*` on the hot path, `snapshot()`
/// for quantile queries and exposition.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Arc::new(HistInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum_micros: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample given in microseconds.
    pub fn observe_micros(&self, micros: u64) {
        let bucket = crate::hist::bucket_of_micros(micros);
        self.inner.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Records one sample given in milliseconds.
    pub fn observe_millis(&self, millis: f64) {
        self.observe_micros((millis * 1000.0).max(0.0) as u64);
    }

    /// Records one sample given as a [`std::time::Duration`].
    pub fn observe(&self, elapsed: std::time::Duration) {
        self.observe_micros(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples, in microseconds.
    #[must_use]
    pub fn sum_micros(&self) -> u64 {
        self.inner.sum_micros.load(Ordering::Relaxed)
    }

    /// A point-in-time copy as a [`LatencyHist`] for quantile queries.
    #[must_use]
    pub fn snapshot(&self) -> LatencyHist {
        let mut hist = LatencyHist::default();
        for (bucket, slot) in self.inner.buckets.iter().enumerate() {
            let n = slot.load(Ordering::Relaxed);
            if n > 0 {
                hist.add_bucket(bucket, n);
            }
        }
        hist
    }
}

/// What kind of instrument a registry entry exposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

#[derive(Clone, Debug)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Clone, Debug)]
struct Entry {
    help: String,
    kind: Kind,
    handle: Handle,
}

/// A named collection of instruments with deterministic text exposition.
///
/// Cloning a `Registry` clones the `Arc`: all clones see the same
/// instruments. Names sort canonically (`BTreeMap`), so `render()` output
/// is byte-stable for a fixed set of values.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    entries: Arc<Mutex<BTreeMap<String, Entry>>>,
}

impl Registry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates a counter under `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let counter = Counter::new();
        match self.get_or_insert(name, help, Kind::Counter, Handle::Counter(counter.clone())) {
            Handle::Counter(existing) => existing,
            _ => unreachable!("kind checked by get_or_insert"),
        }
    }

    /// Gets or creates a gauge under `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let gauge = Gauge::new();
        match self.get_or_insert(name, help, Kind::Gauge, Handle::Gauge(gauge.clone())) {
            Handle::Gauge(existing) => existing,
            _ => unreachable!("kind checked by get_or_insert"),
        }
    }

    /// Gets or creates a histogram under `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        let hist = Histogram::new();
        match self.get_or_insert(name, help, Kind::Histogram, Handle::Histogram(hist.clone())) {
            Handle::Histogram(existing) => existing,
            _ => unreachable!("kind checked by get_or_insert"),
        }
    }

    /// Registers an externally owned counter under `name`, replacing any
    /// previous registration (components that own their instrument —
    /// e.g. a deadline timer's trip counter — register it here so it
    /// shows up in exposition).
    pub fn register_counter(&self, name: &str, help: &str, counter: Counter) {
        self.put(name, help, Kind::Counter, Handle::Counter(counter));
    }

    /// Registers an externally owned gauge under `name` (see
    /// [`Registry::register_counter`]).
    pub fn register_gauge(&self, name: &str, help: &str, gauge: Gauge) {
        self.put(name, help, Kind::Gauge, Handle::Gauge(gauge));
    }

    /// Registers an externally owned histogram under `name` (see
    /// [`Registry::register_counter`]).
    pub fn register_histogram(&self, name: &str, help: &str, hist: Histogram) {
        self.put(name, help, Kind::Histogram, Handle::Histogram(hist));
    }

    fn put(&self, name: &str, help: &str, kind: Kind, handle: Handle) {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        entries.insert(
            name.to_string(),
            Entry {
                help: help.to_string(),
                kind,
                handle,
            },
        );
    }

    fn get_or_insert(&self, name: &str, help: &str, kind: Kind, fresh: Handle) -> Handle {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        if let Some(existing) = entries.get(name) {
            assert!(
                existing.kind == kind,
                "metric {name:?} already registered as {:?}, requested {kind:?}",
                existing.kind
            );
            return existing.handle.clone();
        }
        entries.insert(
            name.to_string(),
            Entry {
                help: help.to_string(),
                kind,
                handle: fresh.clone(),
            },
        );
        fresh
    }

    /// Renders every registered instrument in Prometheus text exposition
    /// format (version 0.0.4). Families appear in canonical (sorted) name
    /// order; histogram buckets are cumulative with `le` edges at powers
    /// of two microseconds expressed in seconds.
    #[must_use]
    pub fn render(&self) -> String {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for (name, entry) in entries.iter() {
            match &entry.handle {
                Handle::Counter(c) => {
                    let _ = writeln!(out, "# HELP {name} {}", entry.help);
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Handle::Gauge(g) => {
                    let _ = writeln!(out, "# HELP {name} {}", entry.help);
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Handle::Histogram(h) => {
                    let _ = writeln!(out, "# HELP {name} {}", entry.help);
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let snapshot = h.snapshot();
                    let mut cumulative = 0u64;
                    for (bucket, &n) in snapshot.buckets().iter().enumerate() {
                        cumulative += n;
                        // The bucket's upper edge is 2^bucket microseconds;
                        // powers of two are exact in f64, so the printed
                        // seconds value is deterministic.
                        let le = (1u64 << bucket) as f64 / 1e6;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le:.6}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    let sum = h.sum_micros() as f64 / 1e6;
                    let _ = writeln!(out, "{name}_sum {sum:.6}");
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }
}

/// The process-wide default registry. Long-lived components that are not
/// handed an explicit registry (e.g. library consumers) can share this
/// one; the server daemon creates its own per-instance registry so tests
/// never observe each other's counters.
#[must_use]
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Canonical metric names: every family the daemon exposes, in one place,
/// so docs, tests, and CI greps can't drift from the implementation.
pub mod names {
    /// Total requests dispatched (any op).
    pub const REQUESTS_TOTAL: &str = "solver_requests_total";
    /// Requests that returned an error status.
    pub const ERRORS_TOTAL: &str = "solver_errors_total";
    /// Solve requests that hit their deadline.
    pub const TIMEOUTS_TOTAL: &str = "solver_timeouts_total";
    /// Solve requests shed by admission control.
    pub const SHED_TOTAL: &str = "solver_shed_total";
    /// Deadline-timer cancellations fired.
    pub const DEADLINE_TRIPS_TOTAL: &str = "solver_deadline_trips_total";
    /// Solve requests currently being served.
    pub const INFLIGHT_REQUESTS: &str = "solver_inflight_requests";
    /// Verdict-cache hits.
    pub const CACHE_HITS_TOTAL: &str = "solver_cache_hits_total";
    /// Verdict-cache misses.
    pub const CACHE_MISSES_TOTAL: &str = "solver_cache_misses_total";
    /// Fingerprint collisions detected on lookup (treated as misses).
    pub const CACHE_COLLISIONS_TOTAL: &str = "solver_cache_collisions_total";
    /// LRU evictions from the verdict cache.
    pub const CACHE_EVICTIONS_TOTAL: &str = "solver_cache_evictions_total";
    /// Insertions into the verdict cache.
    pub const CACHE_INSERTIONS_TOTAL: &str = "solver_cache_insertions_total";
    /// Entries currently resident in the verdict cache.
    pub const CACHE_ENTRIES: &str = "solver_cache_entries";
    /// Warm-pool jobs admitted and not yet finished.
    pub const POOL_IN_FLIGHT: &str = "solver_pool_in_flight";
    /// Warm-pool jobs queued and not yet started.
    pub const POOL_QUEUE_DEPTH: &str = "solver_pool_queue_depth";
    /// Warm-pool worker threads.
    pub const POOL_WORKERS: &str = "solver_pool_workers";
    /// End-to-end solve latency.
    pub const REQUEST_SECONDS: &str = "solver_request_seconds";
    /// SyGuS-IF parse latency.
    pub const PARSE_SECONDS: &str = "solver_parse_seconds";
    /// Static-presolve latency.
    pub const PRESOLVE_SECONDS: &str = "solver_presolve_seconds";
    /// Engine-race latency (excludes presolve).
    pub const RACE_SECONDS: &str = "solver_race_seconds";
    /// Warm-pool queue wait before an engine job starts.
    pub const QUEUE_WAIT_SECONDS: &str = "solver_queue_wait_seconds";
    /// Time from a solve's deadline to the return of its cancelled race.
    pub const CANCEL_LATENCY_SECONDS: &str = "solver_cancel_latency_seconds";

    /// Every name above, for "all documented families are exposed" tests.
    pub const ALL: &[&str] = &[
        REQUESTS_TOTAL,
        ERRORS_TOTAL,
        TIMEOUTS_TOTAL,
        SHED_TOTAL,
        DEADLINE_TRIPS_TOTAL,
        INFLIGHT_REQUESTS,
        CACHE_HITS_TOTAL,
        CACHE_MISSES_TOTAL,
        CACHE_COLLISIONS_TOTAL,
        CACHE_EVICTIONS_TOTAL,
        CACHE_INSERTIONS_TOTAL,
        CACHE_ENTRIES,
        POOL_IN_FLIGHT,
        POOL_QUEUE_DEPTH,
        POOL_WORKERS,
        REQUEST_SECONDS,
        PARSE_SECONDS,
        PRESOLVE_SECONDS,
        RACE_SECONDS,
        QUEUE_WAIT_SECONDS,
        CANCEL_LATENCY_SECONDS,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_state_across_clones() {
        let registry = Registry::new();
        let c = registry.counter("test_total", "a counter");
        let c2 = registry.counter("test_total", "a counter");
        c.inc();
        c2.add(2);
        assert_eq!(c.get(), 3);

        let g = registry.gauge("test_gauge", "a gauge");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(registry.gauge("test_gauge", "a gauge").get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        let _ = registry.counter("test_total", "a counter");
        let _ = registry.gauge("test_total", "now a gauge");
    }

    #[test]
    fn histogram_snapshot_matches_latency_hist_math() {
        let h = Histogram::new();
        let mut reference = LatencyHist::default();
        for millis in [0.0, 0.1, 1.0, 5.0, 123.4] {
            h.observe_millis(millis);
            reference.record_millis(millis);
        }
        let snap = h.snapshot();
        assert_eq!(snap, reference);
        assert_eq!(snap.quantile_millis(0.5), reference.quantile_millis(0.5));
    }

    #[test]
    fn render_is_sorted_and_deterministic() {
        let registry = Registry::new();
        registry.counter("zzz_total", "last").inc();
        registry.gauge("aaa_gauge", "first").set(7);
        let h = registry.histogram("mmm_seconds", "middle");
        h.observe_micros(1500);
        let text = registry.render();
        let a = text.find("aaa_gauge").unwrap();
        let m = text.find("mmm_seconds").unwrap();
        let z = text.find("zzz_total").unwrap();
        assert!(a < m && m < z, "families must render in sorted order");
        assert!(text.contains("# TYPE aaa_gauge gauge"));
        assert!(text.contains("# TYPE zzz_total counter"));
        assert!(text.contains("# TYPE mmm_seconds histogram"));
        // 1500 us lands in the (1024, 2048] bucket: le=2048us = 0.002048 s.
        assert!(text.contains("mmm_seconds_bucket{le=\"0.002048\"} 1"));
        assert!(text.contains("mmm_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("mmm_seconds_sum 0.001500"));
        assert!(text.contains("mmm_seconds_count 1"));
        assert_eq!(text, registry.render(), "render must be byte-stable");
    }

    #[test]
    fn registered_external_handles_render() {
        let registry = Registry::new();
        let trips = Counter::new();
        trips.add(4);
        registry.register_counter("ext_total", "externally owned", trips.clone());
        assert!(registry.render().contains("ext_total 4"));
        trips.inc();
        assert!(registry.render().contains("ext_total 5"));
    }

    #[test]
    fn all_names_are_unique_and_prefixed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in names::ALL {
            assert!(name.starts_with("solver_"), "{name} must be prefixed");
            assert!(seen.insert(name), "{name} duplicated in names::ALL");
        }
    }
}
