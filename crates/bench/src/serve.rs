//! The serving harness: workload assembly and the multi-client load
//! generator behind `reproduce bench-serve`.
//!
//! A workload is a list of named SyGuS-IF texts with verdict
//! expectations — the on-disk corpus (gated by its `MANIFEST` race
//! column) plus optionally a stream of `crates/gen` instances (gated by
//! their ground-truth expectation). [`run_load`] replays the workload
//! against a daemon endpoint for a configurable number of passes, with a
//! configurable number of concurrent clients and an optional per-client
//! QPS cap, and reports per-pass throughput, latency percentiles, and
//! cache hit rates — as text and as a runner-schema JSON [`Report`].
//!
//! With an empty cache, pass 1 races every instance; every later pass of
//! the same workload must be served from the verdict cache (the corpus'
//! race verdicts are all definitive), which the CI `serve` job asserts.

use crate::solve::{collect_sl_files, problem_name, Engine, Manifest};
use obs::LatencyHist;
use runner::{Entry, JobStatus, Report};
use server::{Client, Endpoint, Request, ResponseStatus, StatsSnapshot};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// How a work item's verdict is checked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expected {
    /// The daemon's verdict must equal this exactly (corpus instances:
    /// the MANIFEST race column is deterministic and definitive).
    Exactly(String),
    /// A definitive verdict contradicting this ground truth is a
    /// soundness violation; `unknown` is acceptable (generated
    /// instances, whose race verdict can be budget-dependent).
    NoContradiction(String),
    /// Nothing to check (no MANIFEST next to the corpus).
    Unchecked,
}

/// One named problem in the replay workload.
#[derive(Clone, Debug)]
pub struct WorkItem {
    /// Benchmark name (corpus file stem or generated-instance name).
    pub name: String,
    /// The SyGuS-IF problem text sent over the wire.
    pub text: String,
    /// The verdict check applied to responses.
    pub expected: Expected,
    /// Workload family for report grouping (`corpus` or the generated
    /// family name).
    pub family: String,
}

/// Load-generator knobs.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Concurrent client connections (workload items are sharded
    /// round-robin across them).
    pub clients: usize,
    /// Full replays of the workload. Pass 1 fills the cache; later
    /// passes measure the warm path.
    pub passes: usize,
    /// Per-client request rate cap; `None` sends back-to-back.
    pub qps: Option<f64>,
    /// Per-request deadline forwarded to the daemon; `None` uses the
    /// daemon's default.
    pub deadline_ms: Option<u64>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 2,
            passes: 2,
            qps: None,
            deadline_ms: None,
        }
    }
}

/// One request's client-side observation. Carries its item's expectation
/// by value: workload names are not unique (a corpus can contain
/// promoted generated instances whose names collide with a freshly
/// generated stream), so matching by name would check the wrong item.
#[derive(Clone, Debug)]
struct Observation {
    name: String,
    family: String,
    expected: Expected,
    pass: usize,
    latency_ms: f64,
    cached: bool,
    verdict: String,
    outcome: String,
}

/// Per-pass aggregates.
#[derive(Clone, Debug)]
pub struct PassSummary {
    /// 1-based pass number.
    pub pass: usize,
    /// Requests sent.
    pub requests: usize,
    /// Responses served from the verdict cache.
    pub cache_hits: usize,
    /// `timeout` responses.
    pub timeouts: usize,
    /// Error responses or client-side failures.
    pub errors: usize,
    /// Wall-clock milliseconds for the whole pass (slowest client).
    pub wall_millis: f64,
    /// Requests per second over the pass wall clock.
    pub throughput: f64,
    /// Median latency in milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile latency.
    pub p90_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// Slowest request.
    pub max_ms: f64,
}

/// Everything `bench-serve` produces.
pub struct LoadOutcome {
    /// Per-pass aggregates, in pass order.
    pub passes: Vec<PassSummary>,
    /// Expectation violations (empty on a clean run).
    pub mismatches: Vec<String>,
    /// The runner-schema report: one entry per request plus one summary
    /// entry per pass (and a daemon-stats entry when available).
    pub report: Report,
    /// The daemon's own counters after the last pass — evictions,
    /// collision misses, sheds, and queue-wait percentiles that no
    /// client-side observation can see. `None` if the final stats
    /// request failed.
    pub daemon_stats: Option<StatsSnapshot>,
}

/// Builds the corpus part of the workload: every `.sl` file under `dir`,
/// expected-exact against the MANIFEST race column when one is present.
///
/// # Errors
/// Returns a message when the directory is unreadable or the MANIFEST is
/// malformed.
pub fn corpus_workload(dir: &Path) -> Result<Vec<WorkItem>, String> {
    let files = collect_sl_files(dir)?;
    let manifest = Manifest::load(dir)?;
    files
        .iter()
        .map(|path| {
            let name = problem_name(path);
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
            let expected = match &manifest {
                Some(manifest) => match manifest.expected(&name, Engine::Race) {
                    Some(verdict) => Expected::Exactly(verdict.to_string()),
                    None => return Err(format!("`{name}` is missing from the MANIFEST")),
                },
                None => Expected::Unchecked,
            };
            Ok(WorkItem {
                name,
                text,
                expected,
                family: "corpus".into(),
            })
        })
        .collect()
}

/// Builds the generated part of the workload: `count` instances from the
/// seeded stream, checked for non-contradiction against their
/// ground-truth expectations.
pub fn gen_workload(count: usize, seed: u64, families: Option<Vec<gen::Family>>) -> Vec<WorkItem> {
    let mut config = gen::GenConfig::new(seed);
    if let Some(families) = families {
        config = config.with_families(families);
    }
    gen::ProblemStream::new(config)
        .take(count)
        .map(|instance| WorkItem {
            name: instance.name(),
            text: instance.to_sl(),
            expected: Expected::NoContradiction(instance.expected.name().to_string()),
            family: instance.family.name().to_string(),
        })
        .collect()
}

/// Replays `workload` against `endpoint` per the [`LoadConfig`]: each
/// pass shards the workload round-robin over `clients` threads, each
/// owning one connection, and the observations roll up into per-pass
/// summaries and a runner-schema report.
///
/// # Errors
/// Returns a message when a client cannot connect (response-level
/// failures are collected into the outcome instead).
pub fn run_load(
    endpoint: &Endpoint,
    workload: &[WorkItem],
    config: &LoadConfig,
) -> Result<LoadOutcome, String> {
    let clients = config.clients.max(1);
    let mut observations: Vec<Observation> = Vec::new();
    let mut passes = Vec::new();

    for pass in 1..=config.passes.max(1) {
        let started = Instant::now();
        let shards: Vec<Vec<WorkItem>> = (0..clients)
            .map(|c| workload.iter().skip(c).step_by(clients).cloned().collect())
            .collect();
        let handles: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                let endpoint = endpoint.clone();
                let qps = config.qps;
                let deadline_ms = config.deadline_ms;
                std::thread::spawn(move || run_client(&endpoint, &shard, pass, qps, deadline_ms))
            })
            .collect();
        let mut pass_observations = Vec::new();
        for handle in handles {
            let observed = handle
                .join()
                .map_err(|_| "a load client panicked".to_string())??;
            pass_observations.extend(observed);
        }
        passes.push(summarize(pass, &pass_observations, started.elapsed()));
        observations.extend(pass_observations);
    }

    let mismatches = check_expectations(&observations);
    // The daemon sees what clients cannot: cache evictions and collision
    // misses, admission sheds, and engine queue-wait percentiles.
    let daemon_stats = Client::connect_retry(endpoint, Duration::from_secs(5))
        .ok()
        .and_then(|mut client| client.stats().ok())
        .and_then(|response| response.stats);
    let report = build_report(&observations, &passes, &mismatches, daemon_stats.as_ref());
    Ok(LoadOutcome {
        passes,
        mismatches,
        report,
        daemon_stats,
    })
}

/// One client's replay of its shard: sequential requests over a single
/// connection, paced to `qps` when set.
fn run_client(
    endpoint: &Endpoint,
    shard: &[WorkItem],
    pass: usize,
    qps: Option<f64>,
    deadline_ms: Option<u64>,
) -> Result<Vec<Observation>, String> {
    let mut client = Client::connect_retry(endpoint, Duration::from_secs(5))
        .map_err(|e| format!("cannot connect to the daemon: {e}"))?;
    let started = Instant::now();
    let mut observations = Vec::with_capacity(shard.len());
    for (i, item) in shard.iter().enumerate() {
        if let Some(qps) = qps {
            // Open-loop pacing: request i is due at i/qps seconds.
            let due = Duration::from_secs_f64(i as f64 / qps.max(1e-9));
            let now = started.elapsed();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let mut request = Request::solve(format!("p{pass}-{}", item.name), &item.text);
        request.deadline_ms = deadline_ms;
        let sent = Instant::now();
        let observation = match client.request(&request) {
            Err(e) => Observation {
                name: item.name.clone(),
                family: item.family.clone(),
                expected: item.expected.clone(),
                pass,
                latency_ms: sent.elapsed().as_secs_f64() * 1000.0,
                cached: false,
                verdict: "-".into(),
                outcome: format!("client-error: {e}"),
            },
            Ok(response) => Observation {
                name: item.name.clone(),
                family: item.family.clone(),
                expected: item.expected.clone(),
                pass,
                latency_ms: sent.elapsed().as_secs_f64() * 1000.0,
                cached: response.cached,
                verdict: response.verdict.clone().unwrap_or_else(|| "-".into()),
                outcome: match response.status {
                    ResponseStatus::Ok => "ok".into(),
                    ResponseStatus::Timeout => "timeout".into(),
                    ResponseStatus::Error => format!(
                        "error: {}",
                        response.error_code.map(|c| c.as_str()).unwrap_or("unknown")
                    ),
                },
            },
        };
        observations.push(observation);
    }
    Ok(observations)
}

fn summarize(pass: usize, observations: &[Observation], wall: Duration) -> PassSummary {
    // Percentiles come from the workspace-wide log₂ histogram (upper
    // bucket edges, like every other latency report here); the slowest
    // request stays exact.
    let mut hist = LatencyHist::default();
    let mut max_ms = 0.0f64;
    for observation in observations {
        hist.record_millis(observation.latency_ms);
        max_ms = max_ms.max(observation.latency_ms);
    }
    let wall_millis = wall.as_secs_f64() * 1000.0;
    PassSummary {
        pass,
        requests: observations.len(),
        cache_hits: observations.iter().filter(|o| o.cached).count(),
        timeouts: observations
            .iter()
            .filter(|o| o.outcome == "timeout")
            .count(),
        errors: observations
            .iter()
            .filter(|o| o.outcome != "ok" && o.outcome != "timeout")
            .count(),
        wall_millis,
        throughput: observations.len() as f64 / (wall.as_secs_f64()).max(1e-9),
        p50_ms: hist.quantile_millis(0.50),
        p90_ms: hist.quantile_millis(0.90),
        p99_ms: hist.quantile_millis(0.99),
        max_ms,
    }
}

fn check_expectations(observations: &[Observation]) -> Vec<String> {
    let mut mismatches = Vec::new();
    for observation in observations {
        if observation.outcome != "ok" && observation.outcome != "timeout" {
            mismatches.push(format!(
                "{} (pass {}): {}",
                observation.name, observation.pass, observation.outcome
            ));
            continue;
        }
        match &observation.expected {
            Expected::Unchecked => {}
            Expected::Exactly(expected) => {
                if &observation.verdict != expected {
                    mismatches.push(format!(
                        "{} (pass {}): verdict {} != expected {} [cached={}]",
                        observation.name,
                        observation.pass,
                        observation.verdict,
                        expected,
                        observation.cached
                    ));
                }
            }
            Expected::NoContradiction(truth) => {
                let definitive =
                    observation.verdict == "realizable" || observation.verdict == "unrealizable";
                if definitive && &observation.verdict != truth {
                    mismatches.push(format!(
                        "{} (pass {}): verdict {} contradicts ground truth {} [cached={}]",
                        observation.name,
                        observation.pass,
                        observation.verdict,
                        truth,
                        observation.cached
                    ));
                }
            }
        }
    }
    mismatches
}

fn build_report(
    observations: &[Observation],
    passes: &[PassSummary],
    mismatches: &[String],
    daemon_stats: Option<&StatsSnapshot>,
) -> Report {
    let mut entries: Vec<Entry> = observations
        .iter()
        .map(|o| Entry {
            benchmark: o.name.clone(),
            tool: format!("serve/pass{}", o.pass),
            status: if o.outcome.starts_with("client-error") {
                JobStatus::Crashed
            } else if o.outcome == "timeout" {
                JobStatus::TimedOut
            } else {
                JobStatus::Ok
            },
            verdict: if o.cached {
                format!("{}(cached)", o.verdict)
            } else {
                o.verdict.clone()
            },
            proved: o.verdict == "unrealizable",
            iterations: 0,
            millis: o.latency_ms,
            family: o.family.clone(),
        })
        .collect();
    for summary in passes {
        entries.push(Entry {
            benchmark: format!("pass{}", summary.pass),
            tool: "serve/summary".into(),
            status: if summary.errors == 0 {
                JobStatus::Ok
            } else {
                JobStatus::Crashed
            },
            verdict: format!(
                "hits={}/{} timeouts={} qps={:.1} p50={:.2}ms p90={:.2}ms p99={:.2}ms max={:.2}ms",
                summary.cache_hits,
                summary.requests,
                summary.timeouts,
                summary.throughput,
                summary.p50_ms,
                summary.p90_ms,
                summary.p99_ms,
                summary.max_ms
            ),
            // For a summary row, "proved" means the pass was clean: no
            // errors and no expectation mismatches anywhere in the run.
            proved: summary.errors == 0 && mismatches.is_empty(),
            iterations: summary.requests as u64,
            millis: summary.wall_millis,
            family: String::new(),
        });
    }
    // Daemon-side counters ride along as one more summary row, keeping
    // `--json` output under the unchanged runner schema.
    if let Some(stats) = daemon_stats {
        entries.push(Entry {
            benchmark: "daemon".into(),
            tool: "serve/stats".into(),
            status: JobStatus::Ok,
            verdict: format!(
                "evictions={} collisions={} shed={} deadline_trips={} \
                 queue-p50={:.2}ms queue-p99={:.2}ms",
                stats.cache_evictions,
                stats.cache_collisions,
                stats.shed,
                stats.deadline_trips,
                stats.queue_wait_p50_ms,
                stats.queue_wait_p99_ms
            ),
            proved: false,
            iterations: stats.requests,
            millis: 0.0,
            family: String::new(),
        });
    }
    Report::new("bench-serve", entries)
}

/// Renders the per-pass summary table.
pub fn render_load(outcome: &LoadOutcome, config: &LoadConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# bench-serve — {} client(s), {} pass(es)",
        config.clients.max(1),
        config.passes.max(1)
    );
    let _ = writeln!(
        out,
        "{:<6} {:>9} {:>6} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "pass",
        "requests",
        "hits",
        "timeouts",
        "errors",
        "qps",
        "p50 ms",
        "p90 ms",
        "p99 ms",
        "max ms"
    );
    for p in &outcome.passes {
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>6} {:>9} {:>9} {:>10.1} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            p.pass,
            p.requests,
            p.cache_hits,
            p.timeouts,
            p.errors,
            p.throughput,
            p.p50_ms,
            p.p90_ms,
            p.p99_ms,
            p.max_ms
        );
    }
    if let Some(stats) = &outcome.daemon_stats {
        let _ = writeln!(
            out,
            "daemon: hits={} misses={} evictions={} collisions={} shed={} \
             deadline_trips={} queue-wait p50={:.2}ms p99={:.2}ms",
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_evictions,
            stats.cache_collisions,
            stats.shed,
            stats.deadline_trips,
            stats.queue_wait_p50_ms,
            stats.queue_wait_p99_ms
        );
    }
    if outcome.mismatches.is_empty() {
        let _ = writeln!(out, "verdicts: all match expectations");
    } else {
        let _ = writeln!(out, "{} verdict mismatch(es)", outcome.mismatches.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_bucket_percentiles_but_keep_the_max_exact() {
        let observe = |latency_ms: f64| Observation {
            name: "g".into(),
            family: "f".into(),
            expected: Expected::Unchecked,
            pass: 1,
            latency_ms,
            cached: false,
            verdict: "unknown".into(),
            outcome: "ok".into(),
        };
        let observations: Vec<_> = std::iter::repeat_with(|| observe(1.0))
            .take(98)
            .chain([observe(1000.5), observe(1000.5)])
            .collect();
        let summary = summarize(1, &observations, Duration::from_millis(1));
        assert_eq!(summary.requests, 100);
        // 1 ms = 1000 µs lands in the bucket with upper edge 1024 µs; the
        // outlier only shows up at p99 and beyond. The max is the raw
        // sample, not an upper bucket edge.
        assert_eq!(summary.p50_ms, 1.024);
        assert_eq!(summary.p90_ms, 1.024);
        assert!(summary.p99_ms >= 1000.0);
        assert_eq!(summary.max_ms, 1000.5);
        let empty = summarize(1, &[], Duration::from_millis(1));
        assert_eq!((empty.p50_ms, empty.max_ms), (0.0, 0.0));
    }

    #[test]
    fn gen_workload_is_deterministic_and_named() {
        let a = gen_workload(5, 42, None);
        let b = gen_workload(5, 42, None);
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.text, y.text);
            assert_eq!(x.expected, y.expected);
        }
    }

    #[test]
    fn contradiction_checking_accepts_unknown() {
        let observe = |verdict: &str| Observation {
            name: "g".into(),
            family: "f".into(),
            expected: Expected::NoContradiction("realizable".into()),
            pass: 1,
            latency_ms: 1.0,
            cached: false,
            verdict: verdict.into(),
            outcome: "ok".into(),
        };
        assert!(check_expectations(&[observe("unknown")]).is_empty());
        assert!(check_expectations(&[observe("realizable")]).is_empty());
        assert_eq!(check_expectations(&[observe("unrealizable")]).len(), 1);
    }

    #[test]
    fn colliding_names_are_checked_against_their_own_expectations() {
        // A corpus item and a generated item can share a name while being
        // different problems; each observation carries its own check.
        let corpus = Observation {
            name: "gen_x_00001".into(),
            family: "corpus".into(),
            expected: Expected::Exactly("unrealizable".into()),
            pass: 1,
            latency_ms: 1.0,
            cached: false,
            verdict: "unrealizable".into(),
            outcome: "ok".into(),
        };
        let generated = Observation {
            expected: Expected::NoContradiction("realizable".into()),
            family: "x".into(),
            verdict: "realizable".into(),
            ..corpus.clone()
        };
        assert!(check_expectations(&[corpus, generated]).is_empty());
    }
}
