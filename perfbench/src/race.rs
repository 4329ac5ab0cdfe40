//! `gen-race`: a seeded `gen` stream raced instance by instance.
//!
//! One operation parses an instance's printed SyGuS-IF text with
//! `sygus::parser::parse_problem` and races it with the presolve on. One
//! caller runs one instance at a time; each race uses the 2 engine
//! threads of a warm pool. A definitive verdict that contradicts the
//! instance's by-construction claim is a failure; `unknown` only lowers
//! `decided_frac`.
//!
//! Races go through `Portfolio::race_on_pool`, not `Portfolio::race`: the
//! scoped per-race pool behind `race` (`runner::run_jobs`) can deadlock
//! when both workers run dry together, and the benchmark needs workloads on
//! which no operation fails. So no workload measures `run_jobs`, and
//! `portfolio.overhead_s` is the cost of dispatching to the warm pool.
//! Every operation is still boxed from outside.
//!
//! `mod_ite` and `mod_pool` are left out: a few of their instances run to
//! the engine budget because cancellation inside the engines is not yet
//! bounded, and those few would set most of a run's wall time.
//!
//! The traced run replays the race from outside — parse, then
//! `analyze::Presolver::presolve` and `recheck`, then the engine race with
//! the presolve off — and takes CEGIS splits from solo `nay::Nay::run`s.

use crate::lanes::{run_lanes, LaneWork, Outcome};
use crate::probe::{run_sliced, RACING};
use crate::stats::quantile;
use crate::trace::{ledger, write_spans, Tracer};
use crate::{ledger_metrics, ledger_notes, repeat_setup, Args, Measured, Run};
use analyze::Presolver;
use gen::{Expectation, Family, GenConfig, ShardStream};
use portfolio::{Portfolio, RaceReport};
use runner::{Cancel, DeadlineTimer, JobStatus, WarmPool};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The raced families.
pub const FAMILIES: [Family; 6] = [
    Family::ConstSum,
    Family::GuardedConst,
    Family::MaxGap,
    Family::PbePoints,
    Family::PlusMod,
    Family::ModNeg,
];

/// Instances generated per set-up; operation `i` races instance
/// `i mod INSTANCES`. A 30 s run on a 2-CPU container races about this
/// many, so the latency tail is drawn from many distinct instances.
const INSTANCES: usize = 20_000;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 25;

/// The fixed per-race engine budget, enforced by cancellation.
const ENGINE_BUDGET: Duration = Duration::from_secs(2);

/// The outside box on one operation.
const OP_BOX: Duration = Duration::from_secs(20);

/// One generated instance, printed.
struct Instance {
    family: Family,
    /// The seed that rebuilds it (`gen::GenRng::from_seed`).
    seed: u64,
    name: String,
    /// The by-construction verdict.
    expected: Expectation,
    /// Its SyGuS-IF text.
    text: String,
}

/// `count` instances of the six families' seeded stream, printed.
fn generate(seed: u64, count: usize) -> Vec<Instance> {
    let config = GenConfig::new(seed).with_families(FAMILIES.to_vec());
    ShardStream::new(config, 0, count as u64)
        .map(|instance| Instance {
            family: instance.family,
            seed: instance.seed,
            name: instance.name(),
            expected: instance.expected,
            text: instance.to_sl(),
        })
        .collect()
}

fn is_definitive(verdict: &str) -> bool {
    verdict == "realizable" || verdict == "unrealizable"
}

/// `Err` when a definitive verdict contradicts the by-construction claim.
fn check_claim(instance: &Instance, verdict: &str) -> Result<(), String> {
    if is_definitive(verdict) && verdict != instance.expected.name() {
        return Err(format!(
            "{} (instance seed {}): verdict {verdict} contradicts the claim {}",
            instance.name,
            instance.seed,
            instance.expected.name()
        ));
    }
    Ok(())
}

/// What one race produced.
struct RaceOut {
    verdict: &'static str,
    /// An error that makes the operation a failure (parse error, crash).
    error: Option<String>,
}

/// A lane's race machinery: two warm engine workers, the budget timer,
/// and the portfolio.
struct Racer {
    pool: WarmPool,
    timer: DeadlineTimer,
    portfolio: Portfolio,
}

impl Racer {
    fn new(presolve: bool) -> Racer {
        Racer {
            pool: WarmPool::new(2),
            timer: DeadlineTimer::new(),
            portfolio: Portfolio::new().with_presolve(presolve),
        }
    }

    fn race(&self, problem: &sygus::Problem) -> RaceReport {
        let cancel = Cancel::new();
        let _budget = self.timer.register(&cancel, ENGINE_BUDGET);
        self.portfolio.race_on_pool(problem, &self.pool, &cancel)
    }
}

fn crash(report: &RaceReport) -> Option<String> {
    (report.nay.status != JobStatus::Ok || report.nope.status != JobStatus::Ok).then(|| {
        format!(
            "engine jobs ended {} / {}",
            report.nay.status.as_str(),
            report.nope.status.as_str()
        )
    })
}

struct Untraced(Arc<Vec<Instance>>);

impl LaneWork for Untraced {
    type State = Racer;
    type Output = RaceOut;
    fn init(&self, _lane: usize) -> Racer {
        Racer::new(true)
    }
    fn run(&self, racer: &mut Racer, op: usize) -> RaceOut {
        let instance = &self.0[op % self.0.len()];
        match sygus::parser::parse_problem(&instance.text, &instance.name) {
            Err(e) => RaceOut {
                verdict: "-",
                error: Some(format!("parse error: {e}")),
            },
            Ok(problem) => {
                let report = racer.race(&problem);
                RaceOut {
                    verdict: report.verdict.name(),
                    error: crash(&report),
                }
            }
        }
    }
}

pub fn run(args: &Args) -> Result<Run, String> {
    let (instances, setup_s) =
        repeat_setup(SETUPS, |_| Ok(()), || Ok(generate(args.seed, INSTANCES)))?;
    let instances = Arc::new(instances);
    let mut measured = Measured {
        setup_s,
        ..Measured::default()
    };
    let stop_at = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut budget_trips = 0u64;
    let phase = run_sliced(
        Arc::new(Untraced(Arc::clone(&instances))),
        1,
        0..usize::MAX,
        Some(stop_at),
        OP_BOX,
        RACING,
        |racer: Racer| budget_trips += racer.timer.trip_counter().get(),
    );
    measured.wall_s = phase.wall_s;
    let probe_note = phase.note();
    let mut verdicts: BTreeMap<usize, &'static str> = BTreeMap::new();
    for outcome in phase.outcomes {
        measured.attempted += 1;
        measured.decisions += 1;
        match outcome {
            Outcome::Done { op, result, millis } => {
                let instance = &instances[op % instances.len()];
                measured.latencies_ms.push(millis);
                verdicts.insert(op, result.verdict);
                if let Some(error) = result.error {
                    measured.failures.push(format!(
                        "{} (instance seed {}): {error}",
                        instance.name, instance.seed
                    ));
                    continue;
                }
                measured.decided += u64::from(is_definitive(result.verdict));
                if let Err(e) = check_claim(instance, result.verdict) {
                    measured.failures.push(e);
                    measured.wrong += 1;
                }
            }
            Outcome::Hung { op, millis } => {
                let instance = &instances[op % instances.len()];
                measured.latencies_ms.push(millis);
                measured.failures.push(format!(
                    "{} (instance seed {}): no verdict within {OP_BOX:?}",
                    instance.name, instance.seed
                ));
            }
        }
    }
    let mut notes = vec![
        format!(
            "gen-race: {} races over {} instances, {budget_trips} engine-budget trips",
            measured.attempted,
            instances.len(),
        ),
        probe_note,
    ];
    let mut layers = BTreeMap::new();
    if args.trace {
        traced(
            args,
            &instances,
            &verdicts,
            phase.raw_wall_s,
            &mut measured,
            &mut layers,
            &mut notes,
        )?;
    }
    Ok(Run {
        measured,
        layers,
        notes,
    })
}

/// The traced replay of one race.
struct Replay {
    verdict: &'static str,
    settled: bool,
    report: Option<RaceReport>,
}

struct Traced {
    instances: Arc<Vec<Instance>>,
    epoch: Instant,
}

impl LaneWork for Traced {
    type State = (Tracer, Racer, Presolver);
    type Output = Replay;
    fn init(&self, _lane: usize) -> Self::State {
        (Tracer::new(self.epoch), Racer::new(false), Presolver::new())
    }
    fn run(&self, (tracer, racer, presolver): &mut Self::State, op: usize) -> Replay {
        let instance = &self.instances[op % self.instances.len()];
        tracer.set_op(op as u64);
        let root = format!("gen.{}", instance.family.name());
        tracer.span(&root, |t| {
            let Ok(problem) = t.span("sygus.parse", |_| {
                sygus::parser::parse_problem(&instance.text, &instance.name)
            }) else {
                return Replay {
                    verdict: "-",
                    settled: false,
                    report: None,
                };
            };
            let settled = t.span("analyze.presolve", |_| {
                let outcome = presolver.presolve(&problem);
                (outcome.is_definitive() && presolver.recheck(&problem, &outcome))
                    .then_some(outcome.verdict)
            });
            if let Some(verdict) = settled {
                return Replay {
                    verdict: match verdict {
                        analyze::PresolveVerdict::Realizable => "realizable",
                        analyze::PresolveVerdict::Unrealizable => "unrealizable",
                        analyze::PresolveVerdict::Unknown => "unknown",
                    },
                    settled: true,
                    report: None,
                };
            }
            let report = t.span("portfolio.race", |_| racer.race(&problem));
            Replay {
                verdict: report.verdict.name(),
                settled: false,
                report: Some(report),
            }
        })
    }
}

fn traced(
    args: &Args,
    instances: &Arc<Vec<Instance>>,
    untraced: &BTreeMap<usize, &'static str>,
    untraced_wall_s: f64,
    measured: &mut Measured,
    layers: &mut BTreeMap<String, f64>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    // Replay exactly the operations of the untraced phase.
    let ops = untraced.keys().next_back().map_or(0, |last| last + 1);
    let work = Arc::new(Traced {
        instances: Arc::clone(instances),
        epoch: Instant::now(),
    });
    let phase = run_lanes(work, 1, 0..ops, None, OP_BOX, Vec::new());
    let wall = phase.wall.as_secs_f64();
    let mut settled = 0usize;
    let mut raced: Vec<usize> = Vec::new();
    let (mut overhead_ms, mut loser_ms) = (0.0, 0.0);
    let mut cancel_ms: Vec<f64> = Vec::new();
    let (mut nay_wins, mut nope_wins) = (0usize, 0usize);
    let mut budget_differences = 0usize;
    for outcome in phase.outcomes {
        let Outcome::Done { op, result, .. } = outcome else {
            continue;
        };
        let instance = &instances[op % instances.len()];
        let first = untraced.get(&op).copied().unwrap_or("-");
        if first != result.verdict {
            // A definitive flip means the replay left the real path; a
            // definitive-versus-unknown difference is the engine budget.
            if is_definitive(first) && is_definitive(result.verdict) {
                measured.failures.push(format!(
                    "{} (instance seed {}): traced replay said {}, the race said {first}",
                    instance.name, instance.seed, result.verdict
                ));
                measured.wrong += 1;
            } else {
                budget_differences += 1;
            }
        }
        settled += usize::from(result.settled);
        let Some(report) = result.report else {
            continue;
        };
        raced.push(op);
        let engine_ms = |engine: &str| {
            if engine == "nay" {
                report.nay.millis
            } else {
                report.nope.millis
            }
        };
        match report.winner {
            Some(winner) => {
                overhead_ms += report.wall_millis - engine_ms(winner);
                let loser = if winner == "nay" { "nope" } else { "nay" };
                loser_ms += engine_ms(loser);
                nay_wins += usize::from(winner == "nay");
                nope_wins += usize::from(winner == "nope");
            }
            None => {
                overhead_ms += report.wall_millis - report.nay.millis.max(report.nope.millis);
            }
        }
        if let Some(ms) = report.loser_cancel_millis {
            cancel_ms.push(ms);
        }
    }
    let total = ops.max(1) as f64;
    let tracers: Vec<Tracer> = phase.states.into_iter().map(|(t, _, _)| t).collect();
    let totals = ledger(&tracers);
    ledger_metrics(layers, &totals, wall);
    notes.extend(ledger_notes(&totals, wall));
    layers.insert(
        "trace.overhead_frac".into(),
        (wall - untraced_wall_s) / untraced_wall_s,
    );
    notes.push(format!(
        "tracing overhead: traced replay {wall:.4} s vs untraced {untraced_wall_s:.4} s over {ops} races"
    ));
    layers.insert(
        "sygus.parse.calls".into(),
        totals.get("sygus.parse").map_or(0.0, |t| t.calls as f64),
    );
    layers.insert(
        "analyze.presolve.settled_frac".into(),
        settled as f64 / total,
    );
    layers.insert("portfolio.overhead_s".into(), overhead_ms / 1000.0);
    layers.insert("portfolio.loser_busy_s".into(), loser_ms / 1000.0);
    layers.insert(
        "portfolio.loser_cancel_ms.p50".into(),
        quantile(&cancel_ms, 0.5).unwrap_or(0.0),
    );
    layers.insert(
        "portfolio.loser_cancel_ms.p99".into(),
        quantile(&cancel_ms, 0.99).unwrap_or(0.0),
    );
    layers.insert("portfolio.winner.nay_frac".into(), nay_wins as f64 / total);
    layers.insert(
        "portfolio.winner.nope_frac".into(),
        nope_wins as f64 / total,
    );
    notes.push(format!(
        "presolve settled {settled}/{ops}; engines raced {}; nay won {nay_wins}, nope won {nope_wins}; \
         {} cancelled losers; {budget_differences} replay verdicts differ by an unknown",
        raced.len(),
        cancel_ms.len()
    ));

    // CEGIS splits from solo nay runs over the distinct raced instances.
    raced.sort_unstable_by_key(|op| op % instances.len());
    raced.dedup_by_key(|op| *op % instances.len());
    let (mut check_s, mut rest_s) = (0.0, 0.0);
    let (mut gfa_checks, mut iterations, mut random) = (0usize, 0usize, 0usize);
    for op in &raced {
        let instance = &instances[op % instances.len()];
        let problem = sygus::parser::parse_problem(&instance.text, &instance.name)
            .map_err(|e| format!("{}: {e}", instance.name))?;
        let (_, stats) = nay::Nay::new().run(&problem);
        check_s += stats.check_time.as_secs_f64();
        rest_s += stats
            .total_time
            .saturating_sub(stats.check_time)
            .as_secs_f64();
        gfa_checks += stats.gfa_checks;
        iterations += stats.cegis_iterations;
        random += stats.random_examples;
    }
    layers.insert("nay.cegis.check_s".into(), check_s);
    layers.insert("nay.cegis.enumerate_verify_s".into(), rest_s);
    layers.insert("nay.cegis.gfa_checks".into(), gfa_checks as f64);
    layers.insert("nay.cegis.iterations".into(), iterations as f64);
    layers.insert("nay.cegis.random_examples".into(), random as f64);
    notes.push(format!(
        "solo nay over {} distinct raced instances: GFA checks {check_s:.4} s, \
         enumerate+verify {rest_s:.4} s",
        raced.len()
    ));
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/gen-race-seed{}.spans.jsonl",
        args.seed
    ));
    write_spans(&path, &tracers).map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    notes.push(format!("spans written to {}", path.display()));
    Ok(())
}
