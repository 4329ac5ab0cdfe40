//! The `reproduce gen` / `reproduce fuzz` front-ends: corpus-scale
//! workload production and the differential fuzzing sweep.
//!
//! `run_gen` materializes a deterministic generated corpus on disk;
//! `run_fuzz` runs a sharded, constant-memory fuzz campaign: the draw
//! index space `0..count` is split into [`FuzzConfig::shards`] contiguous
//! ranges, each a [`runner::run_jobs`] job on `--jobs` workers that
//! **constructs its instances locally** from per-instance seeds
//! ([`GenConfig::instance_at`] — no generator thread, no corpus on disk,
//! no queue of pending problems), solves them one at a time, and folds
//! every result into a per-shard single-pass accumulator (per-(family,
//! tool) counts, verdict tallies, latency histograms, peak term-search
//! witness-log nodes) that is merged once, in shard order, at the end.
//! At no point does more than one instance per worker exist in memory, so
//! the campaign's footprint is flat from count 10³ to 10⁶⁺ — the 1BRC
//! discipline, end to end.
//!
//! The merged aggregate lands in the same schema-versioned [`Report`] the
//! rest of the harness speaks, now carrying a first-class
//! [`runner::Throughput`] block (instances/sec per family and total) that
//! `reproduce compare` gates on. Every instance is also pushed through
//! the three soundness oracles of [`gen::oracle`] plus the print→parse
//! round-trip gate; any violation fails the sweep loudly with the
//! reproducing seed and the offending `.sl` text.

use gen::{
    check_instance, roundtrip_violation, Claim, EngineClaim, Family, GenConfig, ProblemStream,
    ShardStream, Violation,
};
use portfolio::{solve_nay, solve_nope, Cancel, NopeEngine, Portfolio, SolveVerdict};
use runner::{
    run_jobs, DeadlineTimer, Entry, Job, JobStatus, PoolConfig, Report, Throughput, WarmPool,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which engines a fuzz sweep drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuzzEngine {
    /// Both engines, independently to completion (the strongest
    /// differential signal: neither engine is cancelled).
    Both,
    /// The portfolio race (first definitive verdict wins; the loser's
    /// claim is opportunistic — `cancelled` maps to no claim).
    Race,
    /// Only the exact engine.
    Nay,
    /// Only the approximate engine.
    Nope,
    /// No engine at all: generation plus the print→parse round-trip gate.
    /// The cheapest sweep that still validates the workload — used to
    /// calibrate raw generator throughput and by the constant-memory
    /// regression test.
    Check,
}

impl FuzzEngine {
    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            FuzzEngine::Both => "both",
            FuzzEngine::Race => "race",
            FuzzEngine::Nay => "nay",
            FuzzEngine::Nope => "nope",
            FuzzEngine::Check => "check",
        }
    }

    /// Inverse of [`FuzzEngine::name`].
    pub fn parse(s: &str) -> Option<FuzzEngine> {
        match s {
            "both" => Some(FuzzEngine::Both),
            "race" => Some(FuzzEngine::Race),
            "nay" => Some(FuzzEngine::Nay),
            "nope" => Some(FuzzEngine::Nope),
            "check" => Some(FuzzEngine::Check),
            _ => None,
        }
    }
}

/// Configuration of a `gen` or `fuzz` run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// How many instances to generate (draw indices `0..count`).
    pub count: usize,
    /// The base seed; fixes the whole workload byte-for-byte.
    pub seed: u64,
    /// Which engines to drive (`fuzz` only).
    pub engine: FuzzEngine,
    /// Worker threads attacking the campaign (`fuzz` only).
    pub jobs: usize,
    /// Per-solve wall-clock budget (a solo engine, or a whole race),
    /// enforced by cancellation.
    pub timeout: Duration,
    /// Restrict generation to these families (`None` = the full
    /// catalogue).
    pub families: Option<Vec<Family>>,
    /// Whether the portfolio's static presolve stage runs in front of
    /// each race (`fuzz` with `race` only; default: enabled).
    pub presolve: bool,
    /// How many contiguous index-space shards to split `0..count` into;
    /// `0` picks one shard per worker. Sharding never changes *what* is
    /// computed (instance `i` is a pure function of `(seed, i)`), only how
    /// the work is distributed — the merged aggregate is byte-identical
    /// to a serial run for any (shards, jobs) split.
    pub shards: usize,
}

/// The default per-engine budget of a fuzz sweep. Deliberately much
/// tighter than [`crate::DEFAULT_SOLVE_TIMEOUT`]: fuzzing is a throughput
/// tool, a handful of adversarial instances (the generator *does* produce
/// CLIA instances whose exact-engine cost explodes with the example
/// count) must cost seconds, not minutes, and a timeout is just an
/// `unknown` claim — never an oracle violation.
pub const DEFAULT_FUZZ_TIMEOUT: Duration = Duration::from_secs(10);

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            count: 200,
            seed: 7,
            engine: FuzzEngine::Both,
            jobs: 1,
            timeout: DEFAULT_FUZZ_TIMEOUT,
            families: None,
            presolve: true,
            shards: 0,
        }
    }
}

impl FuzzConfig {
    fn gen_config(&self) -> GenConfig {
        let config = GenConfig::new(self.seed);
        match &self.families {
            Some(families) => config.with_families(families.clone()),
            None => config,
        }
    }
}

/// Writes `count` generated instances into `dir` (see
/// [`gen::write_corpus`]) and returns the per-family emission counts.
///
/// # Errors
/// Propagates I/O errors.
pub fn run_gen(dir: &Path, config: &FuzzConfig) -> Result<BTreeMap<&'static str, usize>, String> {
    let instances = gen::write_corpus(dir, config.count, config.gen_config())?;
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for instance in &instances {
        *counts.entry(instance.family.name()).or_insert(0) += 1;
    }
    Ok(counts)
}

// The campaign's latency histogram is the workspace-wide
// [`obs::LatencyHist`]: log₂ µs buckets whose merge is a plain `u64` add
// per bucket (commutative and exact, unlike merging f64 sums), with
// quantiles reported as upper bucket edges — within 2× of the true value,
// plenty for a p50/p99 trend line across nightly campaign artifacts.
use obs::LatencyHist;

/// The 1BRC-style accumulator: one per (family, tool), folded as results
/// stream off the workers, merged across shards at the end. Every field
/// merges commutatively (sums, maxes, per-bucket adds), so the merged
/// aggregate is independent of how the index space was sharded.
#[derive(Clone, Debug, Default)]
struct FamilyAgg {
    instances: u64,
    verdicts: BTreeMap<String, u64>,
    worst_status: Option<JobStatus>,
    iterations: u64,
    millis: f64,
    peak_arena: usize,
    hist: LatencyHist,
}

impl FamilyAgg {
    fn fold(
        &mut self,
        status: JobStatus,
        verdict: &str,
        iterations: u64,
        millis: f64,
        arena_terms: usize,
    ) {
        self.instances += 1;
        *self.verdicts.entry(verdict.to_string()).or_insert(0) += 1;
        self.worst_status = Some(self.worst_status.map_or(status, |w| w.worst(status)));
        self.iterations += iterations;
        self.millis += millis;
        self.peak_arena = self.peak_arena.max(arena_terms);
        self.hist.record_millis(millis);
    }

    /// Folds another accumulator (one shard's worth) into this one.
    fn merge(&mut self, other: &FamilyAgg) {
        self.instances += other.instances;
        for (verdict, n) in &other.verdicts {
            *self.verdicts.entry(verdict.clone()).or_insert(0) += n;
        }
        self.worst_status = match (self.worst_status, other.worst_status) {
            (Some(a), Some(b)) => Some(a.worst(b)),
            (a, b) => a.or(b),
        };
        self.iterations += other.iterations;
        self.millis += other.millis;
        self.peak_arena = self.peak_arena.max(other.peak_arena);
        self.hist.merge(&other.hist);
    }

    /// The verdict-distribution string, e.g.
    /// `realizable=12;unknown=3;unrealizable=85` (sorted by verdict name).
    /// Deterministic for a fixed seed only while every job stays within
    /// the wall-clock budget: timed-out and crashed jobs land in buckets
    /// named after their status, which depends on the machine's speed —
    /// so fuzz reports from different machines are not byte-comparable.
    fn verdict_distribution(&self) -> String {
        self.verdicts
            .iter()
            .map(|(v, n)| format!("{v}={n}"))
            .collect::<Vec<_>>()
            .join(";")
    }

    fn entry(&self, family: &str, tool: &str) -> Entry {
        let definitive: u64 = self
            .verdicts
            .iter()
            .filter(|(v, _)| v.as_str() == "unrealizable" || v.as_str() == "realizable")
            .map(|(_, n)| n)
            .sum();
        Entry {
            benchmark: format!("gen/{family}"),
            tool: tool.to_string(),
            status: self.worst_status.unwrap_or(JobStatus::Ok),
            verdict: self.verdict_distribution(),
            // For an aggregate row, "proved" means fully classified: every
            // instance of the family got a definitive verdict.
            proved: definitive == self.instances,
            iterations: self.iterations,
            millis: self.millis,
            family: family.to_string(),
        }
    }
}

/// One row of the human-readable fuzz table.
#[derive(Clone, Debug)]
pub struct FuzzRow {
    /// Family name.
    pub family: &'static str,
    /// Tool (engine) name.
    pub tool: String,
    /// Instances attacked.
    pub instances: u64,
    /// Verdict distribution string.
    pub verdicts: String,
    /// Total engine milliseconds.
    pub millis: f64,
    /// Largest per-instance term-search witness-log node count seen for
    /// this (family, tool).
    pub peak_arena: usize,
    /// Median per-instance latency (bucketed; see the histogram docs).
    pub p50_millis: f64,
    /// 99th-percentile per-instance latency (bucketed).
    pub p99_millis: f64,
}

/// Memory high-water marks of a sweep, tracked live by the workers. The
/// constant-memory claim in numbers: `peak_live_instances` is bounded by
/// the worker count, never by `--count`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FuzzMemStats {
    /// Most generated instances alive simultaneously across all workers.
    pub peak_live_instances: usize,
}

/// Cap on the violations retained in [`FuzzOutcome::violations`]. A
/// campaign with a systematically broken oracle would otherwise
/// accumulate a million full `.sl` reproductions in memory —
/// `violations_total` keeps the true count while the list keeps the first
/// few dozen reproducible reports, which is what a human (or the nightly
/// failure artifact) actually reads.
pub const MAX_KEPT_VIOLATIONS: usize = 64;

/// What a fuzz sweep produced: the aggregate report, the human-readable
/// rows, and every oracle violation found.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    /// Per-(family, tool) aggregate report (suite `fuzz-<engine>`),
    /// carrying the sweep's [`Throughput`] block.
    pub report: Report,
    /// The table rows, in report order.
    pub rows: Vec<FuzzRow>,
    /// The first [`MAX_KEPT_VIOLATIONS`] violations, in draw-index order;
    /// an empty list is a clean sweep ([`FuzzOutcome::violations_total`]
    /// holds the uncapped count).
    pub violations: Vec<Violation>,
    /// Total violations found, including any beyond the retention cap.
    pub violations_total: usize,
    /// Total instances generated and attacked (always the requested
    /// count: the sharded sweep draws `0..count` with no deduplication).
    pub instances: usize,
    /// Wall-clock milliseconds of the whole sweep (generation, solving
    /// and oracle checks).
    pub wall_millis: f64,
    /// Memory high-water marks observed during the sweep.
    pub mem: FuzzMemStats,
}

fn claim_of(verdict: SolveVerdict) -> Claim {
    match verdict {
        SolveVerdict::Unrealizable => Claim::Unrealizable,
        SolveVerdict::Realizable => Claim::Realizable,
        SolveVerdict::Unknown | SolveVerdict::Cancelled => Claim::Unknown,
    }
}

/// One shard's single-pass result: everything a worker accumulates while
/// walking its index range, and nothing per-instance. Merging shard
/// results in shard order reproduces the serial sweep exactly.
#[derive(Default)]
struct ShardResult {
    aggs: BTreeMap<(&'static str, String), FamilyAgg>,
    violations: Vec<Violation>,
    violations_total: usize,
    attacked: usize,
    family_counts: BTreeMap<&'static str, u64>,
}

impl ShardResult {
    fn push_violation(&mut self, violation: Violation) {
        self.violations_total += 1;
        if self.violations.len() < MAX_KEPT_VIOLATIONS {
            self.violations.push(violation);
        }
    }
}

/// Live gauge of how many generated instances exist at once — the "queue"
/// high-water mark of the constant-memory claim (there is no queue; the
/// gauge proves it stays at ≤ 1 instance per worker).
#[derive(Default)]
struct MemGauge {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl MemGauge {
    fn enter(&self) {
        let live = self.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(live, Ordering::SeqCst);
    }

    fn exit(&self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What every shard of a sweep shares.
struct Sweep<O> {
    config: FuzzConfig,
    gen_config: GenConfig,
    /// Arms a fresh cancel token per solve.
    timer: DeadlineTimer,
    /// Runs the races' engine jobs: two workers per shard worker, so every
    /// concurrent race has both its engines running at once.
    engines: WarmPool,
    mem: MemGauge,
    observer: O,
}

/// Attacks every instance of one shard, streaming: construct from the
/// per-instance seed, round-trip-gate, solve, judge, fold, drop.
fn run_shard(sweep: &Sweep<impl Fn(u64, &str, &str)>, draws: std::ops::Range<u64>) -> ShardResult {
    let Sweep {
        config,
        timer,
        mem,
        observer,
        ..
    } = sweep;
    let mut shard = ShardResult::default();
    let portfolio = Portfolio::new().with_presolve(config.presolve);
    for instance in ShardStream::new(sweep.gen_config.clone(), draws.start, draws.end) {
        mem.enter();
        let family = instance.family.name();
        shard.attacked += 1;
        *shard.family_counts.entry(family).or_insert(0) += 1;

        // Round-trip gate: generated text must parse back to identical
        // content before we spend engine time on it.
        if let Some(violation) = roundtrip_violation(&instance) {
            shard.push_violation(violation);
        }

        match config.engine {
            FuzzEngine::Check => {
                observer(instance.index, "check", instance.expected.name());
                shard
                    .aggs
                    .entry((family, "check".into()))
                    .or_default()
                    .fold(JobStatus::Ok, instance.expected.name(), 0, 0.0, 0);
            }
            FuzzEngine::Race => {
                let cancel = Cancel::new();
                let race = {
                    let _deadline = timer.register(&cancel, config.timeout);
                    portfolio.race_on_pool(&instance.problem, &sweep.engines, &cancel)
                };
                let mut claims = vec![
                    EngineClaim::new(
                        "race/nay",
                        if race.nay.status == JobStatus::Ok {
                            claim_of(race.nay.verdict)
                        } else {
                            Claim::Unknown
                        },
                        (race.nay.verdict == SolveVerdict::Realizable)
                            .then(|| race.solution.clone())
                            .flatten(),
                    ),
                    EngineClaim::new(
                        "race/nope",
                        if race.nope.status == JobStatus::Ok {
                            claim_of(race.nope.verdict)
                        } else {
                            Claim::Unknown
                        },
                        None,
                    ),
                ];
                if let Some(stage) = &race.presolve {
                    // The presolve's claim goes through the same
                    // by-construction oracle as the engines': a
                    // statically-settled verdict that contradicts the
                    // generator's ground truth is a violation.
                    claims.push(EngineClaim::new(
                        "race/presolve",
                        claim_of(stage.verdict),
                        (stage.verdict == SolveVerdict::Realizable)
                            .then(|| race.solution.clone())
                            .flatten(),
                    ));
                }
                for violation in check_instance(&instance, &claims) {
                    shard.push_violation(violation);
                }
                let race_status = race.nay.status.worst(race.nope.status);
                observer(instance.index, "race", race.verdict.name());
                shard.aggs.entry((family, "race".into())).or_default().fold(
                    race_status,
                    race.verdict.name(),
                    race.nay.iterations + race.nope.iterations,
                    race.wall_millis,
                    race.nay.arena_terms.max(race.nope.arena_terms),
                );
                for side in [&race.nay, &race.nope] {
                    observer(
                        instance.index,
                        &format!("race/{}", side.engine),
                        side.verdict.name(),
                    );
                    shard
                        .aggs
                        .entry((family, format!("race/{}", side.engine)))
                        .or_default()
                        .fold(
                            side.status,
                            side.verdict.name(),
                            side.iterations,
                            side.millis,
                            side.arena_terms,
                        );
                }
                if let Some(stage) = &race.presolve {
                    // The `race/presolve` aggregate's verdict
                    // distribution is the per-family `presolved`
                    // count: its definitive buckets are exactly the
                    // instances the analyzer settled statically.
                    observer(instance.index, "race/presolve", stage.verdict.name());
                    shard
                        .aggs
                        .entry((family, "race/presolve".into()))
                        .or_default()
                        .fold(JobStatus::Ok, stage.verdict.name(), 0, stage.millis, 0);
                }
            }
            FuzzEngine::Both | FuzzEngine::Nay | FuzzEngine::Nope => {
                let tools: &[&str] = match config.engine {
                    FuzzEngine::Both => &["nay", "nope"],
                    FuzzEngine::Nay => &["nay"],
                    _ => &["nope"],
                };
                let mut claims = Vec::new();
                for &tool in tools {
                    // Purely cooperative timeout: the shared timer trips a
                    // fresh token at the deadline and the engine exits at
                    // its next poll.
                    let cancel = Cancel::new();
                    let guard = timer.register(&cancel, config.timeout);
                    let solve_started = Instant::now();
                    let outcome =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match tool {
                            "nay" => solve_nay(&instance.problem, &cancel, &nay::Nay::default()),
                            _ => solve_nope(&instance.problem, &cancel, &NopeEngine::default()),
                        }));
                    let millis = solve_started.elapsed().as_secs_f64() * 1000.0;
                    drop(guard);
                    let (status, claim, verdict_name, iterations, arena_terms, witness) =
                        match &outcome {
                            Ok(outcome) if outcome.verdict != SolveVerdict::Cancelled => (
                                JobStatus::Ok,
                                claim_of(outcome.verdict),
                                outcome.verdict.name(),
                                outcome.iterations,
                                outcome.arena_terms,
                                outcome.solution.clone(),
                            ),
                            // A cancelled verdict means the deadline tripped
                            // the token mid-search: a timeout, which claims
                            // nothing and lands in its own verdict bucket.
                            Ok(_) => (JobStatus::TimedOut, Claim::Unknown, "timed_out", 0, 0, None),
                            Err(_) => (JobStatus::Crashed, Claim::Unknown, "crashed", 0, 0, None),
                        };
                    claims.push(EngineClaim::new(tool, claim, witness));
                    observer(instance.index, tool, verdict_name);
                    shard
                        .aggs
                        .entry((family, tool.to_string()))
                        .or_default()
                        .fold(status, verdict_name, iterations, millis, arena_terms);
                }
                for violation in check_instance(&instance, &claims) {
                    shard.push_violation(violation);
                }
            }
        }
        mem.exit();
    }
    shard
}

/// Runs the differential fuzzing sweep. See the module docs; this is the
/// engine behind `reproduce fuzz`.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzOutcome {
    run_fuzz_observed(config, |_, _, _| {})
}

/// [`run_fuzz`] with a per-result hook: `observer(draw_index, tool,
/// verdict)` fires for every (instance, tool) result, from worker
/// threads. Test instrumentation (the determinism-under-sharding proptest
/// compares per-instance verdict sets across shardings); not part of the
/// stable API.
#[doc(hidden)]
pub fn run_fuzz_observed(
    config: &FuzzConfig,
    observer: impl Fn(u64, &str, &str) + Send + Sync + 'static,
) -> FuzzOutcome {
    let sweep_started = Instant::now();
    let gen_config = config.gen_config();
    let workers = config.jobs.max(1);
    let shards = match config.shards {
        0 => workers,
        n => n,
    };
    let chunk = (config.count as u64).div_ceil(shards as u64).max(1);
    let bounds = |shard: usize| {
        let start = (shard as u64 * chunk).min(config.count as u64);
        let end = ((shard as u64 + 1) * chunk).min(config.count as u64);
        start..end
    };

    let sweep = Arc::new(Sweep {
        config: config.clone(),
        gen_config,
        timer: DeadlineTimer::new(),
        engines: WarmPool::new(2 * workers),
        mem: MemGauge::default(),
        observer,
    });
    // Shards are jobs on `workers` workers; results come back in shard
    // order whatever the schedule, so the merge below — f64 time sums
    // included, which are order-sensitive — does not depend on it.
    let shard_jobs = (0..shards)
        .map(|shard| {
            let (sweep, draws) = (Arc::clone(&sweep), bounds(shard));
            Job::new(format!("shard-{shard}"), move || run_shard(&sweep, draws))
        })
        .collect();
    let shard_pool = PoolConfig {
        jobs: workers,
        timeout: None,
    };
    let shard_results = run_jobs(shard_jobs, &shard_pool);

    // Merge once, in shard order.
    let mut aggs: BTreeMap<(&'static str, String), FamilyAgg> = BTreeMap::new();
    let mut violations: Vec<Violation> = Vec::new();
    let mut violations_total = 0usize;
    let mut attacked = 0usize;
    let mut family_counts: BTreeMap<String, u64> = BTreeMap::new();
    for result in shard_results {
        let shard = result.output.expect("fuzz shard panicked");
        for (key, agg) in &shard.aggs {
            aggs.entry(key.clone()).or_default().merge(agg);
        }
        violations_total += shard.violations_total;
        for violation in shard.violations {
            if violations.len() < MAX_KEPT_VIOLATIONS {
                violations.push(violation);
            }
        }
        attacked += shard.attacked;
        for (family, n) in &shard.family_counts {
            *family_counts.entry((*family).to_string()).or_insert(0) += n;
        }
    }

    // The aggs map iterates in (family, tool) order, which matches the
    // report's canonical (benchmark, tool) order because every benchmark
    // name is `gen/<family>`.
    let entries: Vec<Entry> = aggs
        .iter()
        .map(|((family, tool), agg)| agg.entry(family, tool))
        .collect();
    let rows: Vec<FuzzRow> = aggs
        .iter()
        .map(|((family, tool), agg)| FuzzRow {
            family,
            tool: tool.clone(),
            instances: agg.instances,
            verdicts: agg.verdict_distribution(),
            millis: agg.millis,
            peak_arena: agg.peak_arena,
            p50_millis: agg.hist.quantile_millis(0.50),
            p99_millis: agg.hist.quantile_millis(0.99),
        })
        .collect();
    let wall_millis = sweep_started.elapsed().as_secs_f64() * 1000.0;
    let throughput = Throughput::from_counts(wall_millis, workers, shards, &family_counts);
    let report =
        Report::new(format!("fuzz-{}", config.engine.name()), entries).with_throughput(throughput);
    FuzzOutcome {
        report,
        rows,
        violations,
        violations_total,
        instances: attacked,
        wall_millis,
        mem: FuzzMemStats {
            peak_live_instances: sweep.mem.peak.load(Ordering::SeqCst),
        },
    }
}

/// What the presolve differential sweep found.
#[derive(Clone, Debug)]
pub struct PresolveDiffOutcome {
    /// Verdict flips: instances where racing with the presolve enabled
    /// produced a different race verdict than racing without it. Any entry
    /// here is a soundness bug in the presolve (or an engine); the sweep
    /// must fail.
    pub flips: Vec<String>,
    /// Per family: instances the presolve settled statically.
    pub presolved: BTreeMap<&'static str, u64>,
    /// Per family: instances attacked.
    pub instances: BTreeMap<&'static str, u64>,
    /// Aggregate report (suite `presolve-diff`): per family one
    /// `race+presolve` and one `race-presolve` entry with the two verdict
    /// distributions, plus a `presolve` entry whose `iterations` field is
    /// the family's `presolved` count.
    pub report: Report,
    /// Wall-clock milliseconds of the whole sweep.
    pub wall_millis: f64,
}

/// Runs every generated instance through the portfolio twice — presolve
/// enabled and disabled — and diffs the race verdicts. The presolve is
/// verdict-preserving by construction (sound verdicts, recheck gate), so
/// any flip is a bug; this sweep is the empirical check of that guarantee,
/// and the engine behind `reproduce presolve-diff` and the CI `analyze`
/// job.
pub fn run_presolve_diff(config: &FuzzConfig) -> PresolveDiffOutcome {
    let sweep_started = Instant::now();
    let mut flips: Vec<String> = Vec::new();
    let mut presolved: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut instances: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut aggs: BTreeMap<(&'static str, &'static str), FamilyAgg> = BTreeMap::new();
    let with_presolve = Portfolio::new().with_presolve(true);
    let without_presolve = Portfolio::new().with_presolve(false);
    let pool = WarmPool::new(2);
    let timer = DeadlineTimer::new();
    let race = |portfolio: &Portfolio, problem: &sygus::Problem| {
        let cancel = Cancel::new();
        let _deadline = timer.register(&cancel, config.timeout);
        portfolio.race_on_pool(problem, &pool, &cancel)
    };

    let mut stream = ProblemStream::new(config.gen_config());
    for instance in stream.by_ref().take(config.count) {
        let family = instance.family.name();
        *instances.entry(family).or_insert(0) += 1;
        let on = race(&with_presolve, &instance.problem);
        let off = race(&without_presolve, &instance.problem);
        // A sound presolve may *add* a definitive verdict where the
        // engines said unknown (that is its whole point on hard
        // instances), but it may never contradict a definitive engine
        // verdict — that is the flip this sweep hunts.
        let contradiction = on.verdict != off.verdict
            && on.verdict != SolveVerdict::Unknown
            && off.verdict != SolveVerdict::Unknown;
        let engines_lost_verdict =
            on.verdict == SolveVerdict::Unknown && off.verdict != SolveVerdict::Unknown;
        if contradiction || engines_lost_verdict {
            flips.push(format!(
                "{}: race verdict `{}` with presolve vs `{}` without (seed {})",
                instance.name(),
                on.verdict.name(),
                off.verdict.name(),
                instance.seed,
            ));
        }
        if on.winner == Some("presolve") {
            *presolved.entry(family).or_insert(0) += 1;
        }
        aggs.entry((family, "race+presolve")).or_default().fold(
            on.nay.status.worst(on.nope.status),
            on.verdict.name(),
            on.nay.iterations + on.nope.iterations,
            on.wall_millis,
            on.nay.arena_terms.max(on.nope.arena_terms),
        );
        aggs.entry((family, "race-presolve")).or_default().fold(
            off.nay.status.worst(off.nope.status),
            off.verdict.name(),
            off.nay.iterations + off.nope.iterations,
            off.wall_millis,
            off.nay.arena_terms.max(off.nope.arena_terms),
        );
    }

    let mut entries: Vec<Entry> = aggs
        .iter()
        .map(|((family, tool), agg)| agg.entry(family, tool))
        .collect();
    for (family, n) in &instances {
        entries.push(Entry {
            benchmark: format!("gen/{family}"),
            tool: "presolve".into(),
            status: JobStatus::Ok,
            verdict: format!("presolved={}", presolved.get(family).copied().unwrap_or(0)),
            proved: presolved.get(family).copied().unwrap_or(0) > 0,
            iterations: presolved.get(family).copied().unwrap_or(0),
            millis: 0.0,
            family: family.to_string(),
        });
        debug_assert!(*n > 0);
    }
    entries.sort_by(|a, b| (&a.benchmark, &a.tool).cmp(&(&b.benchmark, &b.tool)));
    PresolveDiffOutcome {
        flips,
        presolved,
        instances,
        report: Report::new("presolve-diff", entries),
        wall_millis: sweep_started.elapsed().as_secs_f64() * 1000.0,
    }
}

/// Renders the presolve differential summary.
pub fn render_presolve_diff(outcome: &PresolveDiffOutcome, config: &FuzzConfig) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# presolve-diff — count: {}, seed: {}",
        config.count, config.seed
    );
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>10}  verdicts with presolve | without",
        "family", "n", "presolved"
    );
    for (family, n) in &outcome.instances {
        let dist = |tool: &str| {
            outcome
                .report
                .entries
                .iter()
                .find(|e| e.family == *family && e.tool == tool)
                .map(|e| e.verdict.clone())
                .unwrap_or_default()
        };
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>10}  {} | {}",
            family,
            n,
            outcome.presolved.get(family).copied().unwrap_or(0),
            dist("race+presolve"),
            dist("race-presolve"),
        );
    }
    let total_presolved: u64 = outcome.presolved.values().sum();
    let total: u64 = outcome.instances.values().sum();
    let _ = writeln!(
        out,
        "{total} instance(s), {total_presolved} presolved, {} verdict flip(s); wall-clock {:.1} ms",
        outcome.flips.len(),
        outcome.wall_millis
    );
    out
}

/// Renders the human-readable fuzz table, ending with a summary line
/// carrying the sweep's total wall clock and the peak term-search
/// witness-log nodes per family (maximum across that family's tools).
pub fn render_fuzz(outcome: &FuzzOutcome, config: &FuzzConfig) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# fuzz — engine: {}, count: {}, seed: {}",
        config.engine.name(),
        config.count,
        config.seed
    );
    let _ = writeln!(
        out,
        "{:<16} {:<10} {:>6} {:>12} {:>9} {:>9} {:>11}  verdicts",
        "family", "tool", "n", "millis", "p50-ms", "p99-ms", "peak-arena"
    );
    for row in &outcome.rows {
        let _ = writeln!(
            out,
            "{:<16} {:<10} {:>6} {:>12.1} {:>9.3} {:>9.3} {:>11}  {}",
            row.family,
            row.tool,
            row.instances,
            row.millis,
            row.p50_millis,
            row.p99_millis,
            row.peak_arena,
            row.verdicts
        );
    }
    let mut family_peaks: BTreeMap<&str, usize> = BTreeMap::new();
    for row in &outcome.rows {
        let peak = family_peaks.entry(row.family).or_insert(0);
        *peak = (*peak).max(row.peak_arena);
    }
    let peaks = family_peaks
        .iter()
        .map(|(family, peak)| format!("{family}={peak}"))
        .collect::<Vec<_>>()
        .join(" ");
    let _ = writeln!(
        out,
        "{} instance(s), {} oracle violation(s); wall-clock {:.1} ms; peak term-arena: {}",
        outcome.instances,
        outcome.violations_total,
        outcome.wall_millis,
        if peaks.is_empty() {
            "-".to_string()
        } else {
            peaks
        }
    );
    if let Some(throughput) = &outcome.report.throughput {
        let per_family = throughput
            .per_family
            .iter()
            .map(|(family, rate)| format!("{family}={rate:.0}/s"))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            out,
            "throughput: {:.0} instances/sec total ({} worker(s), {} shard(s), peak {} live instance(s)); {}",
            throughput.total_per_sec,
            throughput.workers,
            throughput.shards,
            outcome.mem.peak_live_instances,
            if per_family.is_empty() {
                "-".to_string()
            } else {
                per_family
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(engine: FuzzEngine) -> FuzzConfig {
        FuzzConfig {
            count: 12,
            seed: 7,
            engine,
            jobs: 1,
            timeout: Duration::from_secs(120),
            families: None,
            presolve: true,
            shards: 0,
        }
    }

    #[test]
    fn both_engine_sweep_is_clean_and_aggregates_per_family() {
        let config = quick_config(FuzzEngine::Both);
        let outcome = run_fuzz(&config);
        assert!(
            outcome.violations.is_empty(),
            "soundness violations: {:#?}",
            outcome.violations
        );
        // 12 instances round-robin over 5 families: every family appears,
        // with one entry per engine.
        let families = outcome.report.family_aggregates();
        assert_eq!(families.len(), Family::ALL.len());
        for entry in &outcome.report.entries {
            assert!(entry.benchmark.starts_with("gen/"));
            assert!(!entry.family.is_empty());
            assert!(entry.tool == "nay" || entry.tool == "nope");
        }
        let total_instances: u64 = outcome.rows.iter().map(|r| r.instances).sum();
        assert_eq!(total_instances, 12 * 2, "one row fold per engine run");
        // The sweep is deterministic: same config, same canonical report.
        let again = run_fuzz(&config);
        assert_eq!(
            again.report.canonicalized().to_json(),
            outcome.report.canonicalized().to_json()
        );
    }

    #[test]
    fn race_engine_sweep_is_clean() {
        let outcome = run_fuzz(&quick_config(FuzzEngine::Race));
        assert!(
            outcome.violations.is_empty(),
            "soundness violations: {:#?}",
            outcome.violations
        );
        let tools: std::collections::BTreeSet<&str> = outcome
            .report
            .entries
            .iter()
            .map(|e| e.tool.as_str())
            .collect();
        assert!(tools.contains("race"));
        assert!(tools.contains("race/nay"));
        assert!(tools.contains("race/nope"));
        assert!(tools.contains("race/presolve"));
    }

    #[test]
    fn presolve_diff_sweep_has_no_flips() {
        let config = quick_config(FuzzEngine::Race);
        let outcome = run_presolve_diff(&config);
        assert!(
            outcome.flips.is_empty(),
            "verdict flips: {:#?}",
            outcome.flips
        );
        assert_eq!(outcome.report.suite, "presolve-diff");
        let total: u64 = outcome.instances.values().sum();
        assert_eq!(total, config.count as u64);
        let rendered = render_presolve_diff(&outcome, &config);
        assert!(rendered.contains("presolved"));
        assert!(rendered.contains("0 verdict flip(s)"));
    }

    #[test]
    fn family_restriction_and_solo_engines_work() {
        let config = FuzzConfig {
            families: Some(vec![Family::ConstSum]),
            ..quick_config(FuzzEngine::Nope)
        };
        let outcome = run_fuzz(&config);
        assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
        assert!(outcome
            .report
            .entries
            .iter()
            .all(|e| e.family == "const_sum" && e.tool == "nope"));
        let rendered = render_fuzz(&outcome, &config);
        assert!(rendered.contains("const_sum"));
        assert!(rendered.contains("0 oracle violation(s)"));
    }

    #[test]
    fn fuzz_engine_names_round_trip() {
        for engine in [
            FuzzEngine::Both,
            FuzzEngine::Race,
            FuzzEngine::Nay,
            FuzzEngine::Nope,
            FuzzEngine::Check,
        ] {
            assert_eq!(FuzzEngine::parse(engine.name()), Some(engine));
        }
        assert_eq!(FuzzEngine::parse("cvc5"), None);
    }

    #[test]
    fn sharded_runs_merge_to_the_serial_aggregate() {
        // The whole point of the sharded design: (shards, workers) is an
        // execution detail, not a semantic one. Canonicalized reports
        // (timings and throughput zeroed/dropped) must match exactly.
        let serial = run_fuzz(&quick_config(FuzzEngine::Nope));
        for (shards, jobs) in [(3, 1), (5, 2), (12, 4), (1, 3)] {
            let config = FuzzConfig {
                shards,
                jobs,
                ..quick_config(FuzzEngine::Nope)
            };
            let sharded = run_fuzz(&config);
            assert_eq!(
                sharded.report.canonicalized().to_json(),
                serial.report.canonicalized().to_json(),
                "shards={shards} jobs={jobs} diverged from serial"
            );
            assert_eq!(sharded.instances, serial.instances);
            assert_eq!(sharded.violations_total, serial.violations_total);
        }
    }

    #[test]
    fn check_engine_skips_solving_and_reports_ground_truth() {
        let outcome = run_fuzz(&quick_config(FuzzEngine::Check));
        assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
        assert_eq!(outcome.instances, 12);
        for entry in &outcome.report.entries {
            assert_eq!(entry.tool, "check");
        }
        for row in &outcome.rows {
            assert!(
                row.verdicts.contains("realizable") || row.verdicts.contains("unrealizable"),
                "check rows bucket by expectation: {}",
                row.verdicts
            );
        }
    }

    #[test]
    fn peak_live_instances_is_bounded_by_workers() {
        let config = FuzzConfig {
            jobs: 2,
            shards: 4,
            ..quick_config(FuzzEngine::Check)
        };
        let outcome = run_fuzz(&config);
        assert!(outcome.mem.peak_live_instances >= 1);
        assert!(
            outcome.mem.peak_live_instances <= 2,
            "peak {} live instances with 2 workers: streaming is broken",
            outcome.mem.peak_live_instances
        );
    }

    #[test]
    fn fuzz_reports_carry_throughput() {
        let config = FuzzConfig {
            jobs: 2,
            shards: 3,
            ..quick_config(FuzzEngine::Check)
        };
        let outcome = run_fuzz(&config);
        let throughput = outcome.report.throughput.as_ref().expect("throughput set");
        assert_eq!(throughput.workers, 2);
        assert_eq!(throughput.shards, 3);
        assert_eq!(throughput.instances, 12);
        assert!(throughput.total_per_sec > 0.0);
        assert_eq!(throughput.per_family.len(), Family::ALL.len());
        let rendered = render_fuzz(&outcome, &config);
        assert!(rendered.contains("instances/sec"));
    }

    #[test]
    fn observer_sees_every_instance_exactly_once_per_tool() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<(u64, String)>>> = Arc::default();
        let config = FuzzConfig {
            jobs: 3,
            shards: 5,
            ..quick_config(FuzzEngine::Both)
        };
        let observed = Arc::clone(&seen);
        run_fuzz_observed(&config, move |index, tool, _verdict| {
            observed.lock().unwrap().push((index, tool.to_string()));
        });
        let mut seen = seen.lock().unwrap().clone();
        seen.sort();
        let expected: Vec<(u64, String)> = (0..12)
            .flat_map(|i| [(i, "nay".to_string()), (i, "nope".to_string())])
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn latency_hist_quantiles_and_merge() {
        let mut a = LatencyHist::default();
        for _ in 0..99 {
            a.record_millis(1.0); // ~bucket of 1024 µs
        }
        let mut b = LatencyHist::default();
        b.record_millis(1000.0); // ~bucket of 2^20 µs
        a.merge(&b);
        assert_eq!(a.count(), 100);
        // p50 lands in the 1 ms bucket (upper edge ≤ 2.048 ms), p99+ in
        // the outlier's bucket.
        assert!(a.quantile_millis(0.50) <= 2.048 + 1e-9);
        assert!(a.quantile_millis(1.0) >= 1000.0);
        assert_eq!(LatencyHist::default().quantile_millis(0.5), 0.0);
    }
}

#[cfg(test)]
mod golden {
    use super::*;

    /// Pins the exact bytes of a canonical fuzz report. The check engine
    /// folds fully deterministic values (zero iterations, zero millis),
    /// so this catches any drift in report serialization or in the shared
    /// [`obs::LatencyHist`] math that backs the campaign percentiles —
    /// nightly trend lines depend on both staying put.
    #[test]
    fn check_engine_report_json_is_byte_identical_to_the_golden() {
        let config = FuzzConfig {
            count: 10,
            seed: 11,
            engine: FuzzEngine::Check,
            jobs: 1,
            timeout: Duration::from_secs(120),
            families: None,
            presolve: true,
            shards: 0,
        };
        let outcome = run_fuzz(&config);
        let golden = include_str!("../golden/fuzz_check_report.json");
        assert_eq!(
            outcome.report.canonicalized().to_json(),
            golden,
            "canonical fuzz JSON drifted from golden/fuzz_check_report.json"
        );
        // Zero-millis folds land in the lowest histogram bucket, whose
        // upper edge is 1 µs: the percentile columns are pinned too.
        for row in &outcome.rows {
            assert_eq!((row.p50_millis, row.p99_millis), (0.001, 0.001), "{row:?}");
        }
    }
}
