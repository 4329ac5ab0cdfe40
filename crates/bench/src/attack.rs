//! One attack on one problem: the only place the harness dispatches an
//! engine and turns what it did into per-tool rows. `reproduce solve`
//! folds the rows into report entries, `reproduce fuzz` into per-family
//! aggregates and oracle claims.

use crate::Engine;
use portfolio::{solve_nay, solve_nope, Cancel, NopeEngine, Portfolio, RaceReport, SolveVerdict};
use runner::{DeadlineTimer, JobStatus, WarmPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use sygus::{Problem, Term, Verdict};

/// What one tool did in an attack.
pub(crate) struct Row {
    /// `race`, `race/nay`, `race/nope` and `race/presolve` for a race, or
    /// the single engine's name.
    pub tool: &'static str,
    pub status: JobStatus,
    /// `None` when a single engine timed out or crashed: its outcome is
    /// dropped.
    pub verdict: Option<SolveVerdict>,
    pub iterations: u64,
    pub millis: f64,
    /// Peak term-search witness-log nodes.
    pub nodes: usize,
    /// The verified solution term, when the tool produced one.
    pub witness: Option<Term>,
}

impl Row {
    /// What the row claims about the problem: a tool that did not
    /// complete claims nothing.
    pub fn claim(&self) -> Verdict {
        match self.verdict {
            Some(verdict) if self.status == JobStatus::Ok => verdict.into(),
            _ => Verdict::Unknown,
        }
    }
}

/// The rows of one attack, the engine choice's own row (`race` or the
/// single engine) first, plus the race report itself when racing (the
/// `solve` table shows its winner, loser latency and trace).
pub(crate) struct Attack {
    pub rows: Vec<Row>,
    pub race: Option<RaceReport>,
}

/// What every attack of a sweep shares: the warm pool the race's engines
/// run on, the deadline timer, the per-attack budget, and whether the race
/// runs the presolve stage.
pub(crate) struct Attacker {
    pool: WarmPool,
    timer: DeadlineTimer,
    timeout: Duration,
    portfolio: Portfolio,
}

impl Attacker {
    /// An attacker whose pool has `workers` workers: two per thread that
    /// races, so both engines of every race run at once.
    pub fn new(workers: usize, timeout: Duration, presolve: bool) -> Attacker {
        Attacker {
            pool: WarmPool::new(workers),
            timer: DeadlineTimer::new(),
            timeout,
            portfolio: Portfolio::new().with_presolve(presolve),
        }
    }

    /// Attacks `problem` with `engine` under a fresh token that the timer
    /// trips at the budget. A single engine runs on the calling thread; a
    /// panic anywhere in the attack becomes one `crashed` row.
    pub fn attack(&self, problem: &Problem, engine: Engine) -> Attack {
        let cancel = Cancel::new();
        let _deadline = self.timer.register(&cancel, self.timeout);
        let started = Instant::now();
        let millis = || started.elapsed().as_secs_f64() * 1000.0;
        catch_unwind(AssertUnwindSafe(|| {
            let outcome = match engine {
                Engine::Race => {
                    let race = self.portfolio.race_on_pool(problem, &self.pool, &cancel);
                    return Attack {
                        rows: race_rows(&race),
                        race: Some(race),
                    };
                }
                Engine::Nay => solve_nay(problem, &cancel, &nay::Nay::default()),
                Engine::Nope => solve_nope(problem, &cancel, &NopeEngine::default()),
            };
            let row = match outcome.verdict {
                // A cancelled verdict means the deadline tripped the token
                // mid-search: a timeout.
                SolveVerdict::Cancelled => dropped(engine, JobStatus::TimedOut, millis()),
                verdict => Row {
                    tool: engine.name(),
                    status: JobStatus::Ok,
                    verdict: Some(verdict),
                    iterations: outcome.iterations,
                    millis: millis(),
                    nodes: outcome.arena_terms,
                    witness: outcome.solution,
                },
            };
            Attack {
                rows: vec![row],
                race: None,
            }
        }))
        .unwrap_or_else(|_| Attack {
            rows: vec![dropped(engine, JobStatus::Crashed, millis())],
            race: None,
        })
    }
}

/// The row of an engine whose outcome is dropped.
fn dropped(engine: Engine, status: JobStatus, millis: f64) -> Row {
    Row {
        tool: engine.name(),
        status,
        verdict: None,
        iterations: 0,
        millis,
        nodes: 0,
        witness: None,
    }
}

/// A race's rows: `race`, `race/nay`, `race/nope`, and `race/presolve`
/// when the stage ran. The `race` row carries the *worst* engine status: a
/// panicking engine is a crash and an engine stopped by the deadline is a
/// timeout (a loser cancelled by the winner exits `ok` with verdict
/// `cancelled`).
fn race_rows(race: &RaceReport) -> Vec<Row> {
    let solution_if = |verdict: SolveVerdict| {
        (verdict == SolveVerdict::Realizable)
            .then(|| race.solution.clone())
            .flatten()
    };
    let mut rows = vec![Row {
        tool: "race",
        status: race.nay.status.worst(race.nope.status),
        verdict: Some(race.verdict),
        iterations: race.nay.iterations + race.nope.iterations,
        millis: race.wall_millis,
        nodes: race.nay.arena_terms.max(race.nope.arena_terms),
        witness: race.solution.clone(),
    }];
    for (tool, side) in [("race/nay", &race.nay), ("race/nope", &race.nope)] {
        rows.push(Row {
            tool,
            status: side.status,
            verdict: Some(side.verdict),
            iterations: side.iterations,
            millis: side.millis,
            nodes: side.arena_terms,
            witness: solution_if(side.verdict),
        });
    }
    if let Some(stage) = &race.presolve {
        rows.push(Row {
            tool: "race/presolve",
            status: JobStatus::Ok,
            verdict: Some(stage.verdict),
            iterations: 0,
            millis: stage.millis,
            nodes: 0,
            witness: solution_if(stage.verdict),
        });
    }
    rows
}
