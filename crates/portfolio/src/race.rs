//! The racer: a static presolve in front, then both engines as jobs on a
//! caller-owned [`WarmPool`], first definitive verdict wins, the loser is
//! cancelled cooperatively.
//!
//! [`Portfolio::race_on_pool`] is the only race entry point. The CLI, the
//! fuzz sweeps, the daemon and the benchmark all keep one long-lived pool
//! of (at least) two workers per racing thread, so both engines genuinely
//! overlap and no race spawns a thread.
//!
//! # The presolve stage
//!
//! Every race starts (unless disabled via [`Portfolio::with_presolve`])
//! with crate `analyze`'s static presolve: a finite-language lane plus
//! `chc`'s interval × congruence abstract interpretation on probe inputs,
//! which can settle a problem without dispatching either engine. A definitive presolve verdict is
//! only trusted after it passes [`Presolver::recheck`], which re-derives
//! the proof from scratch; a verdict that fails its own recheck is
//! discarded and the engines race as if the presolve had abstained. The
//! stage is therefore *verdict-preserving by construction*: it can only
//! replace an engine verdict with the same verdict, or settle a problem
//! the engines would have left `unknown` — never flip one.
//!
//! # Cancellation and deadlines
//!
//! Both engines poll the race's [`Cancel`] token, down to single GFA
//! steps inside `nay`'s unrealizability checks. The first engine to reach
//! a definitive verdict trips it and the loser aborts. Deadlines are the
//! caller's: arm the token on a [`runner::DeadlineTimer`], and when it
//! trips both engines wind down, the race returns verdict `unknown`, and
//! each engine that observed the trip reports [`JobStatus::TimedOut`] with
//! verdict `cancelled`. Because winners also trip the token, a caller
//! must hand each race a fresh token and must not interpret a tripped
//! token alone as "deadline exceeded" — the race report is the source of
//! truth.

use crate::engines::{solve_nay, solve_nope, EngineOutcome, NopeEngine, SolveVerdict};
use analyze::{PresolveVerdict, Presolver};
use nay::Nay;
use runner::{measure, Cancel, Job, JobResult, JobStatus, WarmPool};
use sygus::{Problem, Term};

/// What one engine did inside a race: its verdict plus the wall-clock view
/// the pool measured for it.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Engine name (`nay` or `nope`).
    pub engine: &'static str,
    /// How the engine's pool job ended: [`JobStatus::TimedOut`] when it
    /// was cancelled by the caller's deadline (no engine won the race).
    pub status: JobStatus,
    /// The engine's verdict ([`SolveVerdict::Cancelled`] when it lost and
    /// aborted on the shared token).
    pub verdict: SolveVerdict,
    /// Engine iterations (CEGIS iterations for `nay`, abstract fixpoint
    /// iterations for `nope`); 0 when the job did not complete.
    pub iterations: u64,
    /// The engine's peak term-search witness-log nodes (see
    /// [`EngineOutcome::arena_terms`]); 0 when the job did not
    /// complete.
    pub arena_terms: usize,
    /// The engine's own wall-clock milliseconds on the pool.
    pub millis: f64,
    /// Milliseconds the engine job waited in the [`WarmPool`] queue before
    /// a worker picked it up.
    pub queue_millis: f64,
}

impl EngineReport {
    /// `true` when the engine aborted because the other engine won.
    pub fn was_cancelled(&self) -> bool {
        self.verdict == SolveVerdict::Cancelled
    }
}

/// What the static presolve (crate `analyze`) did in front of a race.
#[derive(Clone, Debug)]
pub struct PresolveSummary {
    /// The presolve verdict in the engines' vocabulary; `Unknown` when the
    /// presolve abstained (or a definitive outcome failed its own
    /// [`Presolver::recheck`] gate, in which case the reason says so).
    pub verdict: SolveVerdict,
    /// The rendered [`analyze::PresolveReason`].
    pub reason: String,
    /// Wall-clock milliseconds of the presolve, recheck included.
    pub millis: f64,
}

/// The outcome of racing both engines on one problem.
#[derive(Clone, Debug)]
pub struct RaceReport {
    /// The portfolio's verdict: the winner's definitive verdict, or
    /// `Unknown` when neither engine settled the problem.
    pub verdict: SolveVerdict,
    /// Which engine produced the definitive verdict first, if any.
    pub winner: Option<&'static str>,
    /// The `nay` side of the race.
    pub nay: EngineReport,
    /// The `nope` side of the race.
    pub nope: EngineReport,
    /// Wall-clock milliseconds of the whole race (both engines, from
    /// submission to the last one stopping).
    pub wall_millis: f64,
    /// How long the losing engine kept running after the winner finished
    /// before it observed the cancellation — the portfolio's overhead over
    /// a hypothetical hard kill. `None` when there was no cancelled loser.
    pub loser_cancel_millis: Option<f64>,
    /// The verified solution term when the verdict is `Realizable`.
    pub solution: Option<Term>,
    /// What the static presolve concluded before any engine was
    /// dispatched; `None` when the presolve stage was disabled.
    pub presolve: Option<PresolveSummary>,
}

impl RaceReport {
    /// Builds the solve trace for this race: a span tree under one root
    /// `solve` span, with the phases laid out sequentially — parse, then
    /// the optional cache lookup (daemon path), then the optional
    /// presolve, then (unless the presolve settled the problem) the
    /// engine race with per-engine `queue`/`run` sub-spans and a `cancel`
    /// tail when a loser was cancelled.
    ///
    /// Offsets are microseconds relative to the solve start, rebuilt from
    /// the report's own phase durations, so the *structure* is a pure
    /// function of what happened (snapshot-testable) while the values
    /// carry the measured wall clock. The `queue` sub-span is emitted even
    /// at zero duration so the span shape does not depend on pool load.
    pub fn trace_with(
        &self,
        trace_id: impl Into<String>,
        parse_millis: f64,
        cache_lookup_millis: Option<f64>,
    ) -> obs::Trace {
        let us = |millis: f64| (millis * 1000.0).max(0.0) as u64;
        let mut trace = obs::Trace::new(trace_id);
        // Span 0 is the root; its duration is patched to the full extent
        // once every child is placed.
        trace.push(obs::trace::phase::SOLVE, 0, 0, 0, "");
        let mut cursor = 0u64;
        trace.push(obs::trace::phase::PARSE, 1, cursor, us(parse_millis), "");
        cursor += us(parse_millis);
        if let Some(cache_millis) = cache_lookup_millis {
            trace.push(
                obs::trace::phase::CACHE,
                1,
                cursor,
                us(cache_millis),
                "miss",
            );
            cursor += us(cache_millis);
        }
        if let Some(presolve) = &self.presolve {
            trace.push(
                obs::trace::phase::PRESOLVE,
                1,
                cursor,
                us(presolve.millis),
                format!("{} ({})", presolve.verdict.name(), presolve.reason),
            );
            cursor += us(presolve.millis);
        }
        if self.winner != Some("presolve") {
            let race_start = cursor;
            let race_end = race_start + us(self.wall_millis);
            trace.push(
                obs::trace::phase::RACE,
                1,
                race_start,
                us(self.wall_millis),
                self.winner.map_or(String::new(), |w| format!("winner {w}")),
            );
            for (phase, engine) in [
                (obs::trace::phase::NAY, &self.nay),
                (obs::trace::phase::NOPE, &self.nope),
            ] {
                let queue_us = us(engine.queue_millis);
                let run_us = us(engine.millis);
                trace.push(
                    phase,
                    2,
                    race_start,
                    queue_us + run_us,
                    engine.verdict.name().to_string(),
                );
                trace.push(obs::trace::phase::QUEUE, 3, race_start, queue_us, "");
                trace.push(obs::trace::phase::RUN, 3, race_start + queue_us, run_us, "");
            }
            if let Some(cancel_millis) = self.loser_cancel_millis {
                let cancel_us = us(cancel_millis);
                let loser = match self.winner {
                    Some("nay") => "nope",
                    Some("nope") => "nay",
                    _ => "",
                };
                trace.push(
                    obs::trace::phase::CANCEL,
                    2,
                    race_end.saturating_sub(cancel_us),
                    cancel_us,
                    loser,
                );
            }
        }
        let total = trace.total_us();
        trace.spans[0].dur_us = total;
        trace
    }
}

/// The portfolio configuration: one `nay` and one `nope` engine at their
/// default budgets, with a static presolve stage in front (on by default).
#[derive(Clone, Debug)]
pub struct Portfolio {
    presolve: bool,
}

impl Default for Portfolio {
    fn default() -> Self {
        Portfolio { presolve: true }
    }
}

impl Portfolio {
    /// A portfolio with both engines at their default budgets.
    pub fn new() -> Self {
        Portfolio::default()
    }

    /// Enables or disables the static presolve stage (default: enabled).
    pub fn with_presolve(mut self, presolve: bool) -> Self {
        self.presolve = presolve;
        self
    }

    /// Races both engines on the problem as jobs on `pool` and returns
    /// the first definitive verdict, with per-engine timing and the
    /// loser's cancellation latency.
    ///
    /// Each engine trips `cancel` the moment it reaches a definitive
    /// verdict; the other engine polls the token and aborts. When an
    /// engine is inapplicable or out of budget it returns `Unknown` and
    /// the race simply degrades to the other engine's answer. Tripping
    /// `cancel` from outside (a deadline) cancels both engines; see the
    /// [module docs](self) for the token contract. Hand every race a fresh
    /// token.
    ///
    /// The pool should have at least two workers, so the engines overlap.
    /// Under load an engine job may wait for a free worker; `wall_millis`
    /// then includes queueing time (the serving latency view) while each
    /// engine's own `millis` measures its body only, so
    /// `loser_cancel_millis` remains an engine-time delta.
    ///
    /// When the presolve stage is enabled (the default), the static
    /// analyzer runs first; if it settles the problem — *and* its outcome
    /// passes the independent [`Presolver::recheck`] gate — the engines
    /// are skipped entirely and the winner is `"presolve"`. The presolve
    /// is sound by construction and the gate re-derives its proof, so
    /// enabling it can never change a race verdict: it only ever replaces
    /// an engine's definitive verdict with the same verdict, or adds a
    /// definitive verdict where the engines would have said `Unknown`.
    pub fn race_on_pool(&self, problem: &Problem, pool: &WarmPool, cancel: &Cancel) -> RaceReport {
        let presolve_summary = match self.presolve_stage(problem) {
            Ok(report) => return report,
            Err(summary) => summary,
        };

        let [nay_job, nope_job] = self.engine_jobs(problem, cancel);
        let ((nay_result, nope_result), wall) = measure(|| {
            let nay_ticket = pool.submit(nay_job);
            let nope_ticket = pool.submit(nope_job);
            (nay_ticket.wait(), nope_ticket.wait())
        });
        assemble_race_report(
            nay_result,
            nope_result,
            wall.as_secs_f64() * 1000.0,
            presolve_summary,
        )
    }

    /// Runs the presolve stage when enabled. `Ok` carries the finished
    /// race report of a statically settled problem (engines skipped);
    /// `Err` carries the presolve summary (or `None` when the stage is
    /// disabled) and the engines must race.
    fn presolve_stage(&self, problem: &Problem) -> Result<RaceReport, Option<PresolveSummary>> {
        if self.presolve {
            let presolver = Presolver::new();
            let ((outcome, gated), elapsed) = measure(|| {
                let outcome = presolver.presolve(problem);
                let gated = outcome.is_definitive() && presolver.recheck(problem, &outcome);
                (outcome, gated)
            });
            let millis = elapsed.as_secs_f64() * 1000.0;
            if gated {
                let verdict = match outcome.verdict {
                    PresolveVerdict::Realizable => SolveVerdict::Realizable,
                    PresolveVerdict::Unrealizable => SolveVerdict::Unrealizable,
                    PresolveVerdict::Unknown => SolveVerdict::Unknown,
                };
                return Ok(RaceReport {
                    verdict,
                    winner: Some("presolve"),
                    solution: outcome.witness.clone(),
                    nay: skipped_report("nay"),
                    nope: skipped_report("nope"),
                    wall_millis: millis,
                    loser_cancel_millis: None,
                    presolve: Some(PresolveSummary {
                        verdict,
                        reason: outcome.reason.to_string(),
                        millis,
                    }),
                });
            }
            let reason = if outcome.is_definitive() {
                // a definitive outcome that failed its own recheck is a
                // bug in the presolver; never trust it, race the engines
                format!("recheck failed, ignoring: {}", outcome.reason)
            } else {
                outcome.reason.to_string()
            };
            Err(Some(PresolveSummary {
                verdict: SolveVerdict::Unknown,
                reason,
                millis,
            }))
        } else {
            Err(None)
        }
    }

    /// Builds the two engine jobs sharing one cancellation token.
    fn engine_jobs(&self, problem: &Problem, cancel: &Cancel) -> [Job<EngineOutcome>; 2] {
        [
            engine_job("nay", problem, cancel, |p, c| solve_nay(p, c, &Nay::new())),
            engine_job("nope", problem, cancel, |p, c| {
                solve_nope(p, c, &NopeEngine::new())
            }),
        ]
    }
}

/// One engine as a job: it trips the shared token the moment it reaches a
/// definitive verdict, cancelling the other side.
fn engine_job(
    name: &'static str,
    problem: &Problem,
    cancel: &Cancel,
    solve: impl FnOnce(&Problem, &Cancel) -> EngineOutcome + Send + 'static,
) -> Job<EngineOutcome> {
    let (problem, cancel) = (problem.clone(), cancel.clone());
    Job::new(name, move || {
        let outcome = solve(&problem, &cancel);
        if outcome.verdict.is_definitive() {
            cancel.cancel();
        }
        outcome
    })
}

/// Turns one engine job result into the race's per-engine view, plus the
/// solution term when the engine produced one.
fn engine_report(result: JobResult<EngineOutcome>) -> (EngineReport, Option<Term>) {
    let millis = result.elapsed.as_secs_f64() * 1000.0;
    let (engine, verdict, iterations, arena_terms, solution) = match result.output {
        Some(outcome) => (
            outcome.engine,
            outcome.verdict,
            outcome.iterations,
            outcome.arena_terms,
            outcome.solution,
        ),
        None => (
            if result.id == "nay" { "nay" } else { "nope" },
            SolveVerdict::Unknown,
            0,
            0,
            None,
        ),
    };
    (
        EngineReport {
            engine,
            status: result.status,
            verdict,
            iterations,
            arena_terms,
            millis,
            queue_millis: result
                .queue_wait
                .map_or(0.0, |wait| wait.as_secs_f64() * 1000.0),
        },
        solution,
    )
}

/// Assembles the final [`RaceReport`] from the two engines' job results.
fn assemble_race_report(
    nay_result: JobResult<EngineOutcome>,
    nope_result: JobResult<EngineOutcome>,
    wall_millis: f64,
    presolve_summary: Option<PresolveSummary>,
) -> RaceReport {
    let (mut nay_report, nay_solution) = engine_report(nay_result);
    let (mut nope_report, _) = engine_report(nope_result);

    let (verdict, winner) = pick_winner(&nay_report, &nope_report);
    if winner.is_none() {
        // Nobody won, so the token was tripped from outside: a deadline.
        for side in [&mut nay_report, &mut nope_report] {
            if side.was_cancelled() && side.status == JobStatus::Ok {
                side.status = JobStatus::TimedOut;
            }
        }
    }
    let loser_cancel_millis = match winner {
        Some("nay") if nope_report.was_cancelled() => {
            Some((nope_report.millis - nay_report.millis).max(0.0))
        }
        Some("nope") if nay_report.was_cancelled() => {
            Some((nay_report.millis - nope_report.millis).max(0.0))
        }
        _ => None,
    };
    RaceReport {
        verdict,
        winner,
        solution: if verdict == SolveVerdict::Realizable {
            nay_solution
        } else {
            None
        },
        nay: nay_report,
        nope: nope_report,
        wall_millis,
        loser_cancel_millis,
        presolve: presolve_summary,
    }
}

/// The report of an engine that never ran because the presolve settled
/// the problem first.
fn skipped_report(engine: &'static str) -> EngineReport {
    EngineReport {
        engine,
        status: JobStatus::Ok,
        verdict: SolveVerdict::Unknown,
        iterations: 0,
        arena_terms: 0,
        millis: 0.0,
        queue_millis: 0.0,
    }
}

/// The winner policy: the definitive verdict whose engine finished first.
/// Both engines are sound, so two definitive verdicts always agree and the
/// tie-break by elapsed time is only about attribution, never about the
/// answer.
fn pick_winner(nay: &EngineReport, nope: &EngineReport) -> (SolveVerdict, Option<&'static str>) {
    let definitive = |r: &EngineReport| r.status == JobStatus::Ok && r.verdict.is_definitive();
    match (definitive(nay), definitive(nope)) {
        (true, true) => {
            if nay.millis <= nope.millis {
                (nay.verdict, Some("nay"))
            } else {
                (nope.verdict, Some("nope"))
            }
        }
        (true, false) => (nay.verdict, Some("nay")),
        (false, true) => (nope.verdict, Some("nope")),
        (false, false) => (SolveVerdict::Unknown, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_problems::{realizable_xplus2, section2_lia};

    /// One race on a fresh two-worker pool with a fresh token.
    fn race(portfolio: &Portfolio, problem: &Problem) -> RaceReport {
        portfolio.race_on_pool(problem, &WarmPool::new(2), &Cancel::new())
    }

    #[test]
    fn race_proves_unrealizability() {
        let report = race(&Portfolio::new(), &section2_lia());
        assert_eq!(report.verdict, SolveVerdict::Unrealizable);
        assert!(report.winner.is_some());
        assert!(report.wall_millis >= 0.0);
        // the losing engine either also finished (fast problem) or was
        // cancelled; either way both sides report a status
        assert_eq!(report.nay.engine, "nay");
        assert_eq!(report.nope.engine, "nope");
    }

    #[test]
    fn capped_fixpoints_never_prove_unrealizability() {
        // Both chains are realizable, and a Kleene iteration capped at 100
        // rounds stops before `Start` sees the chain's value: read as a
        // fixpoint, the cut-short iteration refutes `f(x) = 5`.
        let x0 = sygus::ExampleSet::for_single_var("x", [0]);
        for looped in [true, false] {
            let problem = crate::test_problems::deep_chain(looped);
            let horn = nay::check_unrealizable(&problem, &x0, &nay::Mode::Horn);
            assert_ne!(horn.verdict, nay::Verdict::Unrealizable, "looped={looped}");
            let (nope, _) = nope::NopeSolver::new().check(&problem, &x0);
            assert_ne!(nope, nope::NopeVerdict::Unrealizable, "looped={looped}");
            let (horn_cegis, _) = Nay::new().with_mode(nay::Mode::Horn).run(&problem);
            assert_ne!(
                horn_cegis,
                nay::CegisOutcome::Unrealizable,
                "looped={looped}"
            );
            let presolved = Presolver::new().presolve(&problem);
            assert_ne!(
                presolved.verdict,
                PresolveVerdict::Unrealizable,
                "looped={looped}"
            );
            for presolve in [true, false] {
                let report = race(&Portfolio::new().with_presolve(presolve), &problem);
                assert_ne!(
                    report.verdict,
                    SolveVerdict::Unrealizable,
                    "looped={looped} presolve={presolve}"
                );
            }
        }
    }

    #[test]
    fn race_finds_solutions_and_reports_the_winner() {
        let report = race(&Portfolio::new(), &realizable_xplus2());
        // only nay can prove realizability, so it must win
        assert_eq!(report.verdict, SolveVerdict::Realizable);
        assert_eq!(report.winner, Some("nay"));
        assert!(report.solution.is_some());
    }

    #[test]
    fn loser_latency_is_reported_when_the_loser_was_cancelled() {
        let report = race(&Portfolio::new(), &section2_lia());
        if let Some(latency) = report.loser_cancel_millis {
            assert!(latency >= 0.0);
            let loser = if report.winner == Some("nay") {
                &report.nope
            } else {
                &report.nay
            };
            assert!(loser.was_cancelled());
        }
    }

    #[test]
    fn presolve_settles_section2_without_engines() {
        // at x = 0 the §2 grammar only produces 0, but the spec demands
        // 2·0 + 2 = 2 — the abstract refutation settles this statically
        let report = race(&Portfolio::new(), &section2_lia());
        assert_eq!(report.verdict, SolveVerdict::Unrealizable);
        assert_eq!(report.winner, Some("presolve"));
        let summary = report.presolve.as_ref().expect("presolve ran");
        assert_eq!(summary.verdict, SolveVerdict::Unrealizable);
        // the engines were never dispatched
        assert_eq!(report.nay.iterations, 0);
        assert_eq!(report.nope.iterations, 0);
    }

    #[test]
    fn disabling_presolve_restores_the_engine_race() {
        let report = race(&Portfolio::new().with_presolve(false), &section2_lia());
        assert!(report.presolve.is_none());
        assert_eq!(report.verdict, SolveVerdict::Unrealizable);
        assert_ne!(report.winner, Some("presolve"));
    }

    #[test]
    fn presolve_never_flips_engine_verdicts() {
        for problem in [section2_lia(), realizable_xplus2()] {
            let with = race(&Portfolio::new(), &problem);
            let without = race(&Portfolio::new().with_presolve(false), &problem);
            assert_eq!(
                with.verdict,
                without.verdict,
                "presolve flipped the verdict on {}",
                problem.name()
            );
        }
    }

    #[test]
    fn presolve_abstains_on_realizable_infinite_languages() {
        let report = race(&Portfolio::new(), &realizable_xplus2());
        assert_eq!(report.verdict, SolveVerdict::Realizable);
        assert_eq!(report.winner, Some("nay"));
        let summary = report.presolve.as_ref().expect("presolve ran");
        assert_eq!(summary.verdict, SolveVerdict::Unknown);
    }

    #[test]
    fn one_warm_pool_serves_many_races() {
        let pool = WarmPool::new(2);
        let tripped = Cancel::new();
        tripped.cancel();
        for _ in 0..3 {
            for (problem, expected) in [
                (section2_lia(), SolveVerdict::Unrealizable),
                (realizable_xplus2(), SolveVerdict::Realizable),
            ] {
                let report = Portfolio::new().race_on_pool(&problem, &pool, &Cancel::new());
                assert_eq!(report.verdict, expected, "on {}", problem.name());
                // A pre-tripped race runs both engines' stop-hook scopes on
                // the same workers; no hook may outlive its job and stop
                // the untripped races after it.
                let stopped = Portfolio::new()
                    .with_presolve(false)
                    .race_on_pool(&problem, &pool, &tripped);
                assert_eq!(
                    stopped.verdict,
                    SolveVerdict::Unknown,
                    "on {}",
                    problem.name()
                );
                // The barrier puts one probe on each worker.
                let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
                let probes: Vec<_> = (0..2)
                    .map(|_| {
                        let barrier = barrier.clone();
                        pool.submit(Job::new("probe", move || {
                            barrier.wait();
                            logic::stop_requested()
                        }))
                    })
                    .collect();
                for probe in probes {
                    let outcome = probe.wait().output;
                    assert_eq!(outcome, Some(false), "a stop hook outlived its job");
                }
                let engines = Portfolio::new().with_presolve(false);
                let report = engines.race_on_pool(&problem, &pool, &Cancel::new());
                assert_eq!(report.verdict, expected, "engines on {}", problem.name());
            }
        }
        // the same pool serves many races without respawning workers
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn pre_tripped_cancel_returns_unknown_with_both_engines_cancelled() {
        let cancel = Cancel::new();
        cancel.cancel();
        let report = Portfolio::new().with_presolve(false).race_on_pool(
            &section2_lia(),
            &WarmPool::new(2),
            &cancel,
        );
        assert_eq!(report.verdict, SolveVerdict::Unknown);
        assert_eq!(report.winner, None);
        assert_eq!(report.nay.verdict, SolveVerdict::Cancelled);
        assert_eq!(report.nope.verdict, SolveVerdict::Cancelled);
        // With no winner the trip came from outside: both engines timed out.
        assert_eq!(report.nay.status, JobStatus::TimedOut);
        assert_eq!(report.nope.status, JobStatus::TimedOut);
    }

    #[test]
    fn presolve_settled_trace_has_the_minimal_structure() {
        let report = race(&Portfolio::new(), &section2_lia());
        assert_eq!(report.winner, Some("presolve"));
        let trace = report.trace_with("t-test", 0.3, None);
        assert_eq!(trace.trace_id, "t-test");
        assert_eq!(
            trace.structure(),
            vec![
                (0, "solve".to_string()),
                (1, "parse".to_string()),
                (1, "presolve".to_string()),
            ]
        );
        // The root spans the whole request.
        assert_eq!(trace.spans[0].dur_us, trace.total_us());
    }

    #[test]
    fn engine_race_trace_nests_queue_and_run_under_each_engine() {
        let report = race(&Portfolio::new().with_presolve(false), &section2_lia());
        let trace = report.trace_with("t-race", 0.1, Some(0.05));
        // The cancel span's presence depends on which engine won, so the
        // snapshot filters it; everything else is fixed.
        let structure: Vec<(usize, String)> = trace
            .structure()
            .into_iter()
            .filter(|(_, phase)| phase != "cancel")
            .collect();
        assert_eq!(
            structure,
            vec![
                (0, "solve".to_string()),
                (1, "parse".to_string()),
                (1, "cache".to_string()),
                (1, "race".to_string()),
                (2, "nay".to_string()),
                (3, "queue".to_string()),
                (3, "run".to_string()),
                (2, "nope".to_string()),
                (3, "queue".to_string()),
                (3, "run".to_string()),
            ]
        );
        // Offsets are monotone per depth-1 lane: parse ends before the
        // race starts.
        let parse = &trace.spans[1];
        let race = trace
            .spans
            .iter()
            .find(|s| s.phase == "race")
            .expect("race span");
        assert!(parse.start_us + parse.dur_us <= race.start_us);
        // The waterfall renders one line per span plus the header.
        let waterfall = trace.render_waterfall();
        assert_eq!(waterfall.lines().count(), trace.spans.len() + 1);
    }

    #[test]
    fn degrades_gracefully_when_neither_engine_answers() {
        // Gconst (Ex. 3.8): unrealizable but beyond both engines — nay's
        // CEGIS cannot converge and nope's domain cannot refute it. The
        // race must settle on Unknown instead of hanging or panicking.
        let problem = crate::test_problems::gconst();
        let report = race(&Portfolio::new(), &problem);
        assert_eq!(report.verdict, SolveVerdict::Unknown);
        assert_eq!(report.winner, None);
        assert_eq!(report.loser_cancel_millis, None);
    }
}
